// Copyright 2026 The WWT Authors
//
// Sample statistics of the serving benchmark: nearest-rank percentiles
// and the tail rule every reported tail percentile obeys (at least
// kMinTailSamples samples must lie beyond it).

#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace servebench {

/// A tail percentile is reported only when this many samples lie beyond
/// it.
inline constexpr size_t kMinTailSamples = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: the smallest rank r with r >= p/100 * n. 0 when n == 0.
size_t NearestRank(size_t n, double p);

/// Nearest-rank percentile of `values` (need not be sorted); 0 when
/// empty. Infinite samples (failed operations) sort last.
double Percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank percentile: n - rank.
size_t SamplesBeyond(size_t n, double p);

/// True when at least kMinTailSamples samples lie beyond percentile p.
bool TailSupported(size_t n, double p);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
