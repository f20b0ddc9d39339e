#include "common/flags.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace tsd {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      values_[arg] = "true";  // bare boolean flag
    }
  }
}

void Flags::RejectUnknown(std::span<const std::string_view> known) const {
  for (const auto& [name, value] : values_) {
    const bool is_known =
        std::find(known.begin(), known.end(), name) != known.end();
    TSD_CHECK_MSG(is_known, "unknown flag --" << name);
  }
}

bool Flags::Has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::GetString(const std::string& name,
                             const std::string& default_value) const {
  auto it = values_.find(name);
  return it == values_.end() ? default_value : it->second;
}

std::int64_t Flags::GetInt(const std::string& name,
                           std::int64_t default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  TSD_CHECK_MSG(end != nullptr && *end == '\0',
                "flag --" << name << " is not an integer: " << it->second);
  return v;
}

double Flags::GetDouble(const std::string& name, double default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  TSD_CHECK_MSG(end != nullptr && *end == '\0',
                "flag --" << name << " is not a number: " << it->second);
  return v;
}

bool Flags::GetBool(const std::string& name, bool default_value) const {
  auto it = values_.find(name);
  if (it == values_.end()) return default_value;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Flags::BenchScale() const {
  if (Has("scale")) return GetString("scale", "small");
  const char* env = std::getenv("TSD_BENCH_SCALE");
  if (env != nullptr && *env != '\0') return env;
  return "small";
}

}  // namespace tsd
