// Streaming summary statistics (Welford) used by every measurement loop.
#pragma once

#include <cstddef>
#include <vector>

namespace lmo::stats {

/// Numerically stable streaming mean/variance/max accumulator.
class RunningStats {
 public:
  void add(double x);
  void add_all(const std::vector<double>& xs);

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for n < 2.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  /// Standard error of the mean.
  [[nodiscard]] double sem() const;
  [[nodiscard]] double max() const;
  [[nodiscard]] double sum() const { return mean() * double(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double max_ = 0.0;
};

/// Median of a sample (taken by value: it is partially sorted).
[[nodiscard]] double median_of(std::vector<double> xs);

}  // namespace lmo::stats
