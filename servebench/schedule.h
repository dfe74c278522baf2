// Copyright 2026 The WWT Authors
//
// Seeded request schedules. Every stream is a pure function of its seed,
// so two runs with one --seed send the same requests in the same order
// at the same offsets.

#ifndef SERVEBENCH_SCHEDULE_H_
#define SERVEBENCH_SCHEDULE_H_

#include <cstdint>
#include <vector>

#include "util/random.h"

namespace servebench {

/// Cycles through [0, n) in a fresh seeded shuffle per cycle (the serial
/// workload's order: every query equally often, no fixed pattern).
class ShuffledCycle {
 public:
  ShuffledCycle(int n, uint64_t seed);
  int Next();

 private:
  wwt::Random rng_;
  std::vector<int> order_;
  size_t pos_;
};

/// Zipf-skewed draws over [0, n): rank r has weight 1/(r+1)^s. Ranks map
/// to items through one fixed permutation (not Table 1 order, not the
/// seed), so every seed has the same hot set and the seed varies only the
/// draws.
class ZipfStream {
 public:
  ZipfStream(int n, double s, uint64_t seed);
  int Next();

 private:
  wwt::Random rng_;
  double s_;
  std::vector<int> item_of_rank_;
};

/// Poisson arrival offsets in seconds over [0, horizon): exponential
/// inter-arrival gaps at `rate` per second.
std::vector<double> PoissonArrivals(double rate, double horizon,
                                    uint64_t seed);

/// Kinds of freshness mutation the writer issues.
enum class WriteKind { kAdd = 0, kUpdate = 1, kOverride = 2, kTombstone = 3 };
inline constexpr int kNumWriteKinds = 4;
const char* WriteKindName(WriteKind kind);

/// The writer's seeded operation mix: add 40%, update 25%, override 25%,
/// tombstone 10%, exact within every block of kWriteMixBlock operations.
inline constexpr size_t kWriteMixBlock = 20;
std::vector<WriteKind> WriteMix(size_t count, uint64_t seed);

/// Independent sub-seed for stream `stream` of run seed `seed`.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

}  // namespace servebench

#endif  // SERVEBENCH_SCHEDULE_H_
