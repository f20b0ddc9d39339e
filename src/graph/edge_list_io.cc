#include "graph/edge_list_io.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>  // strtoull / strtod
#include <cstring>
#include <fstream>
#include <memory>
#include <vector>

#include "common/check.h"

namespace tsd {
namespace {

// Read size of the loader. A line longer than this grows the buffer.
constexpr std::size_t kBlockBytes = std::size_t{64} << 10;

const char* SkipSpace(const char* p) {
  while (*p == ' ' || *p == '\t' || *p == '\r') ++p;
  return p;
}

bool IsDigit(char c) { return static_cast<unsigned char>(c - '0') < 10; }
bool IsBlank(char c) { return c == ' ' || c == '\t'; }

// The fast path: [p, end) is exactly "digits [ \t]+ digits [ \t\r]*" with
// both ids below kInvalidVertex. Returns false for every other line; those
// go to ParseGeneralLine, which then decides as it does for any line. The
// general parser reads such a line as the same edge, so the fast path
// changes no outcome.
bool ParseSimpleEdge(const char* p, const char* end, VertexId* u,
                     VertexId* v) {
  const auto parse_id = [&](VertexId* out) {
    // Ten digits hold any id below 2^32; longer runs take the general path.
    const char* start = p;
    std::uint64_t value = 0;
    while (p != end && IsDigit(*p) && p - start < 10) {
      value = value * 10 + static_cast<std::uint64_t>(*p - '0');
      ++p;
    }
    if (p == start || (p != end && IsDigit(*p)) || value >= kInvalidVertex) {
      return false;
    }
    *out = static_cast<VertexId>(value);
    return true;
  };
  if (!parse_id(u)) return false;
  const char* gap = p;
  while (p != end && IsBlank(*p)) ++p;
  if (p == gap || !parse_id(v)) return false;
  while (p != end && (IsBlank(*p) || *p == '\r')) ++p;
  return p == end;
}

// Every line the fast path does not take: comments, blank lines, signs,
// weight columns, overflowing ids and malformed lines.
void ParseGeneralLine(const std::string& line, const std::string& path,
                      std::size_t line_number, GraphBuilder* builder) {
  // Skip comments and blank lines.
  std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos || line[first] == '#' ||
      line[first] == '%') {
    return;
  }
  const char* p = line.c_str() + first;
  char* end = nullptr;
  const unsigned long long u = std::strtoull(p, &end, 10);
  TSD_CHECK_MSG(end != p, "parse error at " << path << ":" << line_number);
  p = end;
  const unsigned long long v = std::strtoull(p, &end, 10);
  TSD_CHECK_MSG(end != p, "parse error at " << path << ":" << line_number);
  TSD_CHECK_MSG(u < kInvalidVertex && v < kInvalidVertex,
                "vertex id overflow at " << path << ":" << line_number);
  // Anything after the two ids must be an optional numeric weight column
  // (loadable but ignored — the graph model is unweighted) followed by
  // whitespace. A malformed tail like "1 2x7" is rejected with the line.
  p = SkipSpace(end);
  if (*p != '\0') {
    std::strtod(p, &end);
    TSD_CHECK_MSG(end != p && *SkipSpace(end) == '\0',
                  "trailing garbage after edge at " << path << ":"
                                                    << line_number << ": '"
                                                    << line << "'");
  }
  builder->AddEdge(static_cast<VertexId>(u), static_cast<VertexId>(v));
}

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};

}  // namespace

Graph LoadEdgeListText(const std::string& path) {
  const std::unique_ptr<std::FILE, FileCloser> file(
      std::fopen(path.c_str(), "rb"));
  TSD_CHECK_MSG(file != nullptr, "cannot open edge list: " << path);

  GraphBuilder builder;
  std::size_t line_number = 0;
  const auto parse_line = [&](const char* begin, const char* end) {
    ++line_number;
    VertexId u = 0;
    VertexId v = 0;
    if (ParseSimpleEdge(begin, end, &u, &v)) {
      builder.AddEdge(u, v);
    } else {
      ParseGeneralLine(std::string(begin, end), path, line_number, &builder);
    }
  };

  // buffer[0, carry) holds the unfinished last line of the previous read.
  std::vector<char> buffer(kBlockBytes);
  std::size_t carry = 0;
  while (true) {
    if (carry == buffer.size()) buffer.resize(2 * buffer.size());
    const std::size_t want = buffer.size() - carry;
    const std::size_t got =
        std::fread(buffer.data() + carry, 1, want, file.get());
    TSD_CHECK_MSG(!std::ferror(file.get()), "cannot read edge list: " << path);
    const char* p = buffer.data();
    const char* const end = p + carry + got;
    while (const void* newline = std::memchr(p, '\n', end - p)) {
      parse_line(p, static_cast<const char*>(newline));
      p = static_cast<const char*>(newline) + 1;
    }
    if (got < want) {  // end of file; a last line may lack its newline
      if (p != end) parse_line(p, end);
      break;
    }
    carry = static_cast<std::size_t>(end - p);
    std::memmove(buffer.data(), p, carry);
  }
  return builder.Build();
}

void SaveEdgeListText(const Graph& graph, const std::string& path) {
  std::ofstream out(path);
  TSD_CHECK_MSG(out.good(), "cannot open file for writing: " << path);
  out << "# Undirected graph: " << graph.num_vertices() << " vertices, "
      << graph.num_edges() << " edges\n";
  for (const Edge& e : graph.edges()) {
    out << e.u << '\t' << e.v << '\n';
  }
  out.flush();
  TSD_CHECK_MSG(out.good(), "write failed: " << path);
}

}  // namespace tsd
