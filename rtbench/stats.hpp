// Order statistics for the benchmark's timings.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace rtbench {

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (p in [0, 100]).  Reorders `v`; NaN when empty.
template <class T>
double percentile(std::vector<T>& v, double p) {
  if (v.empty()) return std::nan("");
  const double exact = p * static_cast<double>(v.size()) / 100.0;
  auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<size_t>(rank, 1, v.size());
  std::nth_element(v.begin(), v.begin() + static_cast<long>(rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

template <class T>
double median(std::vector<T> v) {
  return percentile(v, 50);
}

}  // namespace rtbench
