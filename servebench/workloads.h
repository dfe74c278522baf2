// Copyright 2026 The WWT Authors
//
// The three serving workloads (see README.md for why each exists):
//   serial       1 closed-loop client, in process, 1-shard .wwtsnap,
//                cache off.
//   routed-open  Poisson open loop into a router WwtService whose index
//                probes go to 2 wwt_shardd workers over unix sockets.
//   fresh-zipf   2 Zipf-skewed closed-loop readers through the response
//                cache, beside an open-loop writer and count-triggered
//                merges.

#ifndef SERVEBENCH_WORKLOADS_H_
#define SERVEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace servebench {

struct RunConfig {
  std::string workload;
  /// Seeds the request order, arrivals, Zipf draws and write mix.
  uint64_t seed = 1;
  /// Seeds the served corpus (fixed by default, so seeds vary the
  /// traffic over one corpus).
  uint64_t corpus_seed = 42;
  /// WWT corpus scale: 1.0 is 2055 tables and the 59 Table 1 queries.
  double scale = 1.0;
  /// Length of the timed window.
  double seconds = 25;
  /// Per-layer traced run instead of the end-to-end run.
  bool trace = false;
  /// Absolute path of the wwt_shardd binary (routed-open only).
  std::string shardd;
  /// Where the traced run writes its spans ("" = nowhere).
  std::string trace_path;
};

/// Metric names, in BENCHMARK.json order.
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

/// Runs one workload from the current directory, which must be an empty
/// scratch directory the run may fill (artifacts, sockets, journal).
/// Returns false with `error` set when the run could not be carried out
/// at all (no result must be printed then); correctness failures are
/// recorded in `report` instead.
bool RunWorkload(const RunConfig& config, Report* report, std::string* error);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOADS_H_
