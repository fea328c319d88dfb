// Unit tests for the stats library.
#include <gtest/gtest.h>

#include "stats/histogram.hpp"
#include "stats/piecewise.hpp"
#include "stats/regression.hpp"
#include "stats/students_t.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace lmo::stats {
namespace {

TEST(RunningStats, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MedianOddEven) {
  EXPECT_DOUBLE_EQ(median_of({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median_of({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median_of({7}), 7.0);
}

TEST(StudentsT, KnownQuantiles) {
  EXPECT_NEAR(t_critical(0.95, 1), 12.706, 1e-3);
  EXPECT_NEAR(t_critical(0.95, 10), 2.228, 1e-3);
  EXPECT_NEAR(t_critical(0.99, 5), 4.032, 1e-3);
  EXPECT_NEAR(t_critical(0.90, 30), 1.697, 1e-3);
  // Large df approaches the normal quantile.
  EXPECT_NEAR(t_critical(0.95, 100000), 1.960, 5e-3);
}

TEST(StudentsT, MonotoneInDf) {
  for (std::size_t df = 1; df < 50; ++df)
    EXPECT_GT(t_critical(0.95, df), t_critical(0.95, df + 1));
}

TEST(StudentsT, RejectsBadInput) {
  EXPECT_THROW((void)t_critical(0.95, 0), Error);
  EXPECT_THROW((void)t_critical(1.5, 10), Error);
}

TEST(ConfidenceIntervalTest, ShrinksWithSamples) {
  RunningStats small, big;
  // Same spread, different n.
  for (int i = 0; i < 4; ++i) small.add(i % 2 ? 1.0 : 3.0);
  for (int i = 0; i < 400; ++i) big.add(i % 2 ? 1.0 : 3.0);
  const auto ci_small = confidence_interval(small, 0.95);
  const auto ci_big = confidence_interval(big, 0.95);
  EXPECT_NEAR(ci_small.mean, 2.0, 1e-12);
  EXPECT_NEAR(ci_big.mean, 2.0, 1e-12);
  EXPECT_GT(ci_small.half_width, ci_big.half_width * 5);
  EXPECT_LT(ci_big.relative_error(), 0.05);
}

TEST(ConfidenceIntervalTest, Bounds) {
  ConfidenceInterval ci{10.0, 1.0};
  EXPECT_DOUBLE_EQ(ci.lo(), 9.0);
  EXPECT_DOUBLE_EQ(ci.hi(), 11.0);
  EXPECT_DOUBLE_EQ(ci.relative_error(), 0.1);
}

TEST(Regression, RecoversExactLine) {
  std::vector<double> x{0, 1, 2, 3, 4};
  std::vector<double> y;
  for (double v : x) y.push_back(2.5 + 0.75 * v);
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.intercept, 2.5, 1e-12);
  EXPECT_NEAR(f.slope, 0.75, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
  EXPECT_NEAR(f.rmse, 0.0, 1e-9);
}

TEST(Regression, NoisyFitReasonable) {
  std::vector<double> x, y;
  for (int i = 0; i < 100; ++i) {
    x.push_back(i);
    y.push_back(1.0 + 2.0 * i + ((i % 3) - 1) * 0.1);
  }
  const LinearFit f = fit_linear(x, y);
  EXPECT_NEAR(f.slope, 2.0, 0.01);
  EXPECT_NEAR(f.intercept, 1.0, 0.1);
  EXPECT_GT(f.r_squared, 0.999);
}

TEST(Regression, RejectsDegenerate) {
  EXPECT_THROW((void)fit_linear({1}, {2}), Error);
  EXPECT_THROW((void)fit_linear({1, 1}, {2, 3}), Error);
}

TEST(Piecewise, InterpolatesAndExtrapolates) {
  PiecewiseLinear f;
  f.add_point(0, 10);
  f.add_point(10, 20);
  f.add_point(20, 40);
  EXPECT_DOUBLE_EQ(f(5), 15.0);
  EXPECT_DOUBLE_EQ(f(15), 30.0);
  EXPECT_DOUBLE_EQ(f(0), 10.0);
  EXPECT_DOUBLE_EQ(f(25), 50.0);   // extrapolate right
  EXPECT_DOUBLE_EQ(f(-10), 0.0);   // extrapolate left
}

TEST(Piecewise, SinglePointConstant) {
  PiecewiseLinear f;
  f.add_point(3, 7);
  EXPECT_DOUBLE_EQ(f(100), 7.0);
}

TEST(Piecewise, OverwriteAndOrderIndependence) {
  PiecewiseLinear f;
  f.add_point(10, 1);
  f.add_point(0, 0);
  f.add_point(10, 2);  // overwrite
  EXPECT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f(10), 2.0);
  EXPECT_DOUBLE_EQ(f(5), 1.0);
}

TEST(Piecewise, ExtrapolateFromLastTwo) {
  PiecewiseLinear f;
  f.add_point(0, 0);
  f.add_point(1, 1);
  f.add_point(2, 4);
  EXPECT_DOUBLE_EQ(f.extrapolate_from_last_two(3), 7.0);
}

TEST(Modes, ClustersByTolerance) {
  // Two clusters: around 0.05 and around 0.20.
  const auto modes =
      find_modes({0.049, 0.050, 0.051, 0.052, 0.199, 0.201}, 0.01);
  ASSERT_EQ(modes.size(), 2u);
  EXPECT_EQ(modes[0].count, 4u);
  EXPECT_NEAR(modes[0].value, 0.0505, 1e-3);
  EXPECT_NEAR(modes[0].frequency, 4.0 / 6.0, 1e-12);
  EXPECT_EQ(modes[1].count, 2u);
  EXPECT_NEAR(modes[1].value, 0.200, 1e-3);
}

TEST(Modes, SingletonClusters) {
  const auto modes = find_modes({1.0, 2.0, 3.0}, 0.1);
  EXPECT_EQ(modes.size(), 3u);
}

}  // namespace
}  // namespace lmo::stats
