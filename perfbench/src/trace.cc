#include "trace.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {
namespace {

thread_local std::vector<Span>* tl_buffer = nullptr;
thread_local std::uint64_t tl_current = 0;  // innermost open ScopedSpan

}  // namespace

void Span::Set(const char* key, double value) {
  for (std::uint32_t i = 0; i < num_attrs; ++i) {
    if (std::string_view(attrs[i].key) == key) {
      attrs[i].value = value;
      return;
    }
  }
  if (num_attrs == kMaxAttrs) throw std::logic_error("span attributes full");
  attrs[num_attrs++] = {key, value};
}

double Span::Get(std::string_view key) const {
  for (std::uint32_t i = 0; i < num_attrs; ++i) {
    if (key == attrs[i].key) return attrs[i].value;
  }
  throw std::logic_error(std::string("span ") + name + " has no attribute " +
                         std::string(key));
}

Tracer& Tracer::Instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const Span& span) {
  if (tl_buffer == nullptr) {
    auto buffer = std::make_unique<std::vector<Span>>();
    buffer->reserve(1 << 14);
    tl_buffer = buffer.get();
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::move(buffer));
  }
  tl_buffer->push_back(span);
}

std::vector<Span> Tracer::Collect() const {
  std::vector<Span> spans;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    spans.insert(spans.end(), buffer->begin(), buffer->end());
  }
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return spans;
}

void Tracer::WriteJsonLines(const std::vector<Span>& spans,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  const std::int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << ",\"start_ns\":" << (s.start_ns - origin)
        << ",\"end_ns\":" << (s.end_ns - origin);
    for (std::uint32_t i = 0; i < s.num_attrs; ++i) {
      out << ",\"" << s.attrs[i].key << "\":" << s.attrs[i].value;
    }
    out << "}\n";
  }
  if (!out) throw std::runtime_error("error writing " + path);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request,
                       std::uint64_t parent)
    : active_(Tracer::Instance().enabled()) {
  if (!active_) return;
  span_.name = name;
  span_.id = Tracer::Instance().NewId();
  span_.parent = parent == kInheritParent ? tl_current : parent;
  span_.request = request;
  saved_current_ = tl_current;
  tl_current = span_.id;
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  tl_current = saved_current_;
  Tracer::Instance().Record(span_);
}

}  // namespace perfbench
