#include "schedule.h"

#include <cmath>
#include <numeric>

namespace servebench {

ShuffledCycle::ShuffledCycle(int n, uint64_t seed)
    : rng_(seed), order_(n), pos_(n) {
  std::iota(order_.begin(), order_.end(), 0);
}

int ShuffledCycle::Next() {
  if (pos_ >= order_.size()) {
    rng_.Shuffle(&order_);
    pos_ = 0;
  }
  return order_[pos_++];
}

ZipfStream::ZipfStream(int n, double s, uint64_t seed)
    : rng_(seed), s_(s), item_of_rank_(n) {
  std::iota(item_of_rank_.begin(), item_of_rank_.end(), 0);
  wwt::Random fixed(0x5eedf00d);
  fixed.Shuffle(&item_of_rank_);
}

int ZipfStream::Next() {
  return item_of_rank_[rng_.Zipf(item_of_rank_.size(), s_)];
}

std::vector<double> PoissonArrivals(double rate, double horizon,
                                    uint64_t seed) {
  std::vector<double> arrivals;
  if (rate <= 0) return arrivals;
  wwt::Random rng(seed);
  double t = 0;
  while (true) {
    // 1 - u lies in (0, 1], so the log is finite.
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= horizon) break;
    arrivals.push_back(t);
  }
  return arrivals;
}

const char* WriteKindName(WriteKind kind) {
  switch (kind) {
    case WriteKind::kAdd:
      return "add";
    case WriteKind::kUpdate:
      return "update";
    case WriteKind::kOverride:
      return "override";
    case WriteKind::kTombstone:
      return "tombstone";
  }
  return "?";
}

std::vector<WriteKind> WriteMix(size_t count, uint64_t seed) {
  // Exact proportions per block of 20 (8 add, 5 update, 5 override,
  // 2 tombstone), shuffled within the block: the seed changes the order,
  // never the mix, so write latency does not vary with the seed's luck.
  std::vector<WriteKind> block;
  const std::pair<WriteKind, int> kShare[] = {{WriteKind::kAdd, 8},
                                              {WriteKind::kUpdate, 5},
                                              {WriteKind::kOverride, 5},
                                              {WriteKind::kTombstone, 2}};
  for (const auto& [kind, n] : kShare) block.insert(block.end(), n, kind);
  wwt::Random rng(seed);
  std::vector<WriteKind> mix;
  mix.reserve(count + block.size());
  while (mix.size() < count) {
    rng.Shuffle(&block);
    mix.insert(mix.end(), block.begin(), block.end());
  }
  mix.resize(count);
  return mix;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream): nearby seeds give unrelated streams.
  uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace servebench
