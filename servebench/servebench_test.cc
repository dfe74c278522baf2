// Copyright 2026 The WWT Authors
//
// Unit tests of the benchmark's own machinery: percentiles and the tail
// rule, seeded schedules, span self time, and metric naming.

#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "report.h"
#include "schedule.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

namespace servebench {
namespace {

TEST(Percentile, NearestRank) {
  EXPECT_EQ(NearestRank(0, 50), 0u);
  EXPECT_EQ(NearestRank(10, 50), 5u);
  EXPECT_EQ(NearestRank(100, 90), 90u);  // exact product, no round-up
  EXPECT_EQ(NearestRank(100, 99), 99u);
  EXPECT_EQ(NearestRank(101, 99), 100u);
  EXPECT_EQ(NearestRank(3, 1), 1u);
  EXPECT_EQ(NearestRank(3, 100), 3u);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3, 2, 4}, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile({5, 1, 3, 2, 4}, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
}

TEST(Percentile, FailedSamplesSortLast) {
  std::vector<double> v(99, 1.0);
  v.push_back(HUGE_VAL);
  EXPECT_DOUBLE_EQ(Percentile(v, 99), 1.0);
  EXPECT_TRUE(std::isinf(Percentile(v, 100)));
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(SamplesBeyond(1000, 99), 10u);
  EXPECT_TRUE(TailSupported(1000, 99));
  EXPECT_EQ(SamplesBeyond(999, 99), 9u);
  EXPECT_FALSE(TailSupported(999, 99));
  EXPECT_TRUE(TailSupported(100, 90));
  EXPECT_FALSE(TailSupported(99, 90));
  EXPECT_FALSE(TailSupported(0, 50));
}

TEST(Schedule, ShuffledCycleIsSeededPermutationPerCycle) {
  ShuffledCycle a(59, 7), b(59, 7), c(59, 8);
  std::vector<int> first, again, other;
  for (int i = 0; i < 59 * 3; ++i) {
    first.push_back(a.Next());
    again.push_back(b.Next());
    other.push_back(c.Next());
  }
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);
  for (int cycle = 0; cycle < 3; ++cycle) {
    std::set<int> seen(first.begin() + cycle * 59,
                       first.begin() + (cycle + 1) * 59);
    EXPECT_EQ(seen.size(), 59u);
  }
}

TEST(Schedule, ZipfIsSeededAndSkewed) {
  ZipfStream a(59, 1.1, 3), b(59, 1.1, 3), c(59, 1.1, 4);
  std::vector<int> counts(59, 0);
  std::vector<int> first, again, other;
  for (int i = 0; i < 20000; ++i) {
    first.push_back(a.Next());
    again.push_back(b.Next());
    other.push_back(c.Next());
    ++counts[first.back()];
  }
  EXPECT_EQ(first, again);
  EXPECT_NE(first, other);
  std::vector<int> sorted = counts;
  std::sort(sorted.rbegin(), sorted.rend());
  // With s = 1.1 over 59 items the hottest item draws ~25% of requests
  // and is about 2^1.1 times as popular as the second.
  EXPECT_GT(sorted[0], 20000 * 0.23);
  EXPECT_LT(sorted[0], 20000 * 0.28);
  EXPECT_GT(sorted[0], 1.7 * sorted[1]);
  EXPECT_GT(sorted[58], 0);
  // The hot item is the same for every seed.
  std::vector<int> other_counts(59, 0);
  for (int q : other) ++other_counts[q];
  EXPECT_EQ(std::max_element(counts.begin(), counts.end()) - counts.begin(),
            std::max_element(other_counts.begin(), other_counts.end()) -
                other_counts.begin());
}

TEST(Schedule, PoissonIsSeededAndAtRate) {
  const std::vector<double> a = PoissonArrivals(65, 30, 11);
  EXPECT_EQ(a, PoissonArrivals(65, 30, 11));
  EXPECT_NE(a, PoissonArrivals(65, 30, 12));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_GT(a.front(), 0);
  EXPECT_LT(a.back(), 30);
  // 1950 expected arrivals, sd ~44: five sd either side.
  EXPECT_NEAR(static_cast<double>(a.size()), 1950, 5 * 44.2);
  EXPECT_TRUE(PoissonArrivals(0, 30, 1).empty());
}

TEST(Schedule, WriteMixIsSeededWithExactProportions) {
  const std::vector<WriteKind> a = WriteMix(4000, 5);
  EXPECT_EQ(a, WriteMix(4000, 5));
  EXPECT_NE(a, WriteMix(4000, 6));
  for (size_t b = 0; b < a.size(); b += kWriteMixBlock) {
    int count[kNumWriteKinds] = {0, 0, 0, 0};
    for (size_t i = b; i < b + kWriteMixBlock; ++i) {
      ++count[static_cast<int>(a[i])];
    }
    EXPECT_EQ(count[static_cast<int>(WriteKind::kAdd)], 8);
    EXPECT_EQ(count[static_cast<int>(WriteKind::kUpdate)], 5);
    EXPECT_EQ(count[static_cast<int>(WriteKind::kOverride)], 5);
    EXPECT_EQ(count[static_cast<int>(WriteKind::kTombstone)], 2);
  }
  EXPECT_EQ(WriteMix(7, 5).size(), 7u);
  EXPECT_NE(SubSeed(1, 1), SubSeed(1, 2));
  EXPECT_NE(SubSeed(1, 1), SubSeed(2, 1));
}

TEST(Trace, SelfTimeSubtractsTheUnionOfChildren) {
  const Clock::time_point t0 = Clock::now();
  auto at = [t0](int ms) { return t0 + std::chrono::milliseconds(ms); };
  std::vector<Span> spans = {
      {"root", 1, 0, 9, at(0), at(10)},
      {"a", 2, 1, 9, at(1), at(3)},
      {"b", 3, 1, 9, at(2), at(5)},    // overlaps a
      {"c", 4, 1, 9, at(8), at(12)},   // clipped to the parent
      {"leaf", 5, 3, 9, at(3), at(4)},
  };
  const std::map<uint64_t, double> self = SelfSeconds(spans);
  EXPECT_NEAR(self.at(1), 0.004, 1e-9);
  EXPECT_NEAR(self.at(2), 0.002, 1e-9);
  EXPECT_NEAR(self.at(3), 0.002, 1e-9);
  EXPECT_NEAR(self.at(4), 0.004, 1e-9);
  const std::map<std::string, double> by_name = SelfSecondsByName(spans);
  EXPECT_NEAR(by_name.at("leaf"), 0.001, 1e-9);
}

TEST(Trace, DisabledTracerKeepsNothing) {
  Tracer tracer(false);
  { ScopedSpan span(&tracer, "x", 1); }
  EXPECT_TRUE(tracer.spans().empty());
  Tracer on(true);
  { ScopedSpan span(&on, "x", 1); }
  ASSERT_EQ(on.spans().size(), 1u);
  EXPECT_EQ(on.spans()[0].request, 1u);
}

TEST(Metrics, NamesAreWellFormedAndUnique) {
  const std::regex pattern("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string> seen;
  for (const auto* names : {&EndToEndMetricNames(), &PerLayerMetricNames()}) {
    for (const std::string& name : *names) {
      EXPECT_TRUE(std::regex_match(name, pattern)) << name;
      EXPECT_TRUE(ValidMetricName(name)) << name;
      EXPECT_TRUE(seen.insert(name).second) << "duplicate " << name;
    }
  }
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("has space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
  EXPECT_TRUE(ValidMetricName(std::string(64, 'a')));
}

TEST(Metrics, JsonCarriesExactlyTheRequestedMetrics) {
  Report report;
  report.Set("qps", "1/s", 12.5);
  report.Set("extra", "count", 3);
  report.Count("query", true);
  report.Count("query", false);
  const std::string json = report.Json({"qps"});
  EXPECT_EQ(json,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 1, "
            "\"metrics\": {\"qps\": {\"value\": 12.5, \"unit\": \"1/s\"}}}");
  report.Fail("mismatch");
  EXPECT_FALSE(report.correct());
}

}  // namespace
}  // namespace servebench
