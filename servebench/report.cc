#include "report.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace servebench {

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
        c != '.' && c != '-') {
      return false;
    }
  }
  return true;
}

void Report::Set(const std::string& name, const std::string& unit,
                 double value) {
  if (!ValidMetricName(name)) {
    std::fprintf(stderr, "servebench: invalid metric name '%s'\n",
                 name.c_str());
    std::abort();
  }
  metrics_[name] = Metric{unit, value};
}

void Report::Count(const std::string& op, bool ok) {
  OpCount& c = ops_[op];
  ++c.attempted;
  if (ok) ++c.succeeded;
}

void Report::Fail(const std::string& reason) { failures_.push_back(reason); }

std::string Report::Text(const std::vector<std::string>& names) const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-10s %10s %10s %10s\n", "op",
                "attempted", "succeeded", "failed");
  out += line;
  for (const auto& [op, c] : ops_) {
    std::snprintf(line, sizeof(line), "%-10s %10llu %10llu %10llu\n",
                  op.c_str(), static_cast<unsigned long long>(c.attempted),
                  static_cast<unsigned long long>(c.succeeded),
                  static_cast<unsigned long long>(c.failed()));
    out += line;
  }
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) continue;
    std::snprintf(line, sizeof(line), "%-40s %16.6f %s\n", name.c_str(),
                  it->second.value, it->second.unit.c_str());
    out += line;
  }
  for (const std::string& n : notes_) out += n + "\n";
  for (const std::string& f : failures_) out += "FAILED: " + f + "\n";
  return out;
}

std::string Report::Json(const std::vector<std::string>& names) const {
  uint64_t attempted = 0, failed = 0;
  for (const auto& [_, c] : ops_) {
    attempted += c.attempted;
    failed += c.failed();
  }
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  char buf[128];
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    // A run missing a metric is marked incorrect by its caller; the line
    // still carries every name, as a finite number, so it stays parseable.
    const double v = it == metrics_.end() || !std::isfinite(it->second.value)
                         ? 0.0
                         : it->second.value;
    const std::string unit = it == metrics_.end() ? "" : it->second.unit;
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace servebench
