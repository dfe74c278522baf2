#include "stats.h"

#include <algorithm>
#include <cmath>

namespace servebench {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // The epsilon keeps an exact product (p = 90, n = 100) from rounding
  // up to the next rank through floating-point error.
  const double exact = p / 100.0 * static_cast<double>(n);
  size_t rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

double Percentile(std::vector<double> values, double p) {
  const size_t rank = NearestRank(values.size(), p);
  if (rank == 0) return 0;
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  return n - NearestRank(n, p);
}

bool TailSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinTailSamples;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace servebench
