#include "stats/summary.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lmo::stats {

void RunningStats::add(double x) {
  ++n_;
  max_ = n_ == 1 ? x : std::max(max_, x);
  const double delta = x - mean_;
  mean_ += delta / double(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::add_all(const std::vector<double>& xs) {
  for (double x : xs) add(x);
}

double RunningStats::mean() const { return n_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / double(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::sem() const {
  return n_ == 0 ? 0.0 : stddev() / std::sqrt(double(n_));
}

double RunningStats::max() const {
  LMO_CHECK(n_ > 0);
  return max_;
}

double median_of(std::vector<double> xs) {
  LMO_CHECK(!xs.empty());
  const std::size_t mid = xs.size() / 2;
  std::nth_element(xs.begin(), xs.begin() + mid, xs.end());
  if (xs.size() % 2 == 1) return xs[mid];
  const double hi = xs[mid];
  const double lo = *std::max_element(xs.begin(), xs.begin() + mid);
  return 0.5 * (lo + hi);
}

}  // namespace lmo::stats
