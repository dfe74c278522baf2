// Copyright 2026 The WWT Authors
//
// What one benchmark run reports: named metrics with units, operation
// accounting per operation type, and the one-line JSON result.

#ifndef SERVEBENCH_REPORT_H_
#define SERVEBENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace servebench {

/// True for names made of [A-Za-z0-9_.-], starting with a letter or a
/// digit, at most 64 characters.
bool ValidMetricName(const std::string& name);

/// Attempted / succeeded / failed for one operation type.
struct OpCount {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed() const { return attempted - succeeded; }
};

class Report {
 public:
  /// Adds (or replaces) a metric. Aborts on an invalid name: a typo in a
  /// metric name is a benchmark bug, never a measurement.
  void Set(const std::string& name, const std::string& unit, double value);

  /// Counts one operation of type `op` ("query", "write", "merge").
  void Count(const std::string& op, bool ok);

  /// Marks the run incorrect (a digest mismatch or an invalid run) and
  /// records why.
  void Fail(const std::string& reason);

  /// A line printed with the metrics (sample counts behind a tail).
  void Note(const std::string& line) { notes_.push_back(line); }

  bool correct() const { return failures_.empty(); }
  bool Has(const std::string& name) const { return metrics_.count(name) > 0; }

  /// Human-readable lines: one per operation type, one per metric in
  /// `names` order (name, value, unit), then the notes and failures.
  std::string Text(const std::vector<std::string>& names) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the metrics in `names`.
  std::string Json(const std::vector<std::string>& names) const;

 private:
  struct Metric {
    std::string unit;
    double value = 0;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, OpCount> ops_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

}  // namespace servebench

#endif  // SERVEBENCH_REPORT_H_
