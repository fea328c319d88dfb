// Tests for the traditional models (Hockney, LogP/LogGP, PLogP).
#include <gtest/gtest.h>

#include "models/hockney.hpp"
#include "models/logp.hpp"
#include "models/pair_table.hpp"
#include "models/plogp.hpp"
#include "util/error.hpp"

namespace lmo::models {
namespace {

TEST(PairTableTest, AccessAndMean) {
  PairTable t(3);
  t(0, 1) = 2.0;
  t(1, 0) = 2.0;
  t(0, 2) = 4.0;
  t(2, 0) = 4.0;
  t(1, 2) = 6.0;
  t(2, 1) = 6.0;
  EXPECT_DOUBLE_EQ(t.off_diagonal_mean(), 4.0);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
}

TEST(HockneyTest, PointToPoint) {
  const Hockney h{100e-6, 80e-9};
  EXPECT_DOUBLE_EQ(h.pt2pt(0), 100e-6);
  EXPECT_DOUBLE_EQ(h.pt2pt(1000), 100e-6 + 80e-6);
}

TEST(HockneyTest, FlatAssumptions) {
  const Hockney h{100e-6, 80e-9};
  EXPECT_DOUBLE_EQ(h.flat_collective(16, 1000, FlatAssumption::kSequential),
                   15 * h.pt2pt(1000));
  EXPECT_DOUBLE_EQ(h.flat_collective(16, 1000, FlatAssumption::kParallel),
                   h.pt2pt(1000));
}

TEST(HockneyTest, BinomialClosedForm) {
  const Hockney h{100e-6, 80e-9};
  // eq. (3): log2(16) alpha + 15 beta M.
  EXPECT_DOUBLE_EQ(h.binomial_collective(16, 1000),
                   4 * 100e-6 + 15 * 80e-9 * 1000);
}

HeteroHockney uniform_hetero(int n, double alpha, double beta) {
  HeteroHockney h;
  h.alpha = PairTable(n);
  h.beta = PairTable(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      h.alpha(i, j) = alpha;
      h.beta(i, j) = beta;
    }
  return h;
}

TEST(HeteroHockneyTest, DegeneratesToHomogeneous) {
  // Paper: "the formula for the homogeneous Hockney model is a special
  // case" — eq. (2) collapses to eq. (3) when all parameters coincide.
  const double alpha = 120e-6, beta = 90e-9;
  const auto h = uniform_hetero(8, alpha, beta);
  const Bytes m = 4096;
  const double recursive = h.binomial_collective(0, m);
  const double closed = Hockney{alpha, beta}.binomial_collective(8, m);
  // eq. (3) is itself an approximation (log2(8) alpha + 7 beta M vs the
  // exact 3 alpha + 7 beta M here) — they agree exactly for powers of two.
  EXPECT_NEAR(recursive, closed, 1e-15);
}

TEST(HeteroHockneyTest, PaperEquationTwoStructure) {
  // Hand-check eq. (2) for n = 8 with distinguishable parameters.
  HeteroHockney h;
  h.alpha = PairTable(8);
  h.beta = PairTable(8);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) {
      if (i == j) continue;
      h.alpha(i, j) = 1.0 + i + 10.0 * j;  // arbitrary, asymmetric
      h.beta(i, j) = 0.0;                  // isolate the alpha structure
    }
  const double expected =
      h.alpha(0, 4) +
      std::max(h.alpha(0, 2) + std::max(h.alpha(0, 1), h.alpha(2, 3)),
               h.alpha(4, 6) + std::max(h.alpha(4, 5), h.alpha(6, 7)));
  EXPECT_DOUBLE_EQ(h.binomial_collective(0, 0), expected);
}

TEST(HeteroHockneyTest, FlatSumAndMax) {
  auto h = uniform_hetero(4, 1.0, 0.0);
  h.alpha(0, 3) = 5.0;
  EXPECT_DOUBLE_EQ(h.flat_collective(0, 0, FlatAssumption::kSequential), 7.0);
  EXPECT_DOUBLE_EQ(h.flat_collective(0, 0, FlatAssumption::kParallel), 5.0);
}

TEST(HeteroHockneyTest, AveragedMatchesMeans) {
  auto h = uniform_hetero(3, 2.0, 4.0);
  h.alpha(0, 1) = h.alpha(1, 0) = 8.0;
  const Hockney avg = h.averaged();
  EXPECT_DOUBLE_EQ(avg.alpha, (8.0 + 8.0 + 2.0 * 4) / 6.0);
  EXPECT_DOUBLE_EQ(avg.beta, 4.0);
}

TEST(HeteroHockneyTest, MappingAffectsBinomialPrediction) {
  auto h = uniform_hetero(8, 1.0, 0.0);
  // Make processor 7 terrible to reach.
  for (int i = 0; i < 8; ++i) {
    if (i == 7) continue;
    h.alpha(i, 7) = h.alpha(7, i) = 50.0;
  }
  const double leaf = h.binomial_collective(0, 0);  // 7 is a leaf by default
  std::vector<int> mapping{0, 1, 2, 3, 7, 5, 6, 4};  // 7 inner
  const double inner = h.binomial_collective(0, 0, mapping);
  EXPECT_GT(inner, leaf);
}

TEST(LogPTest, PointToPointAndSeries) {
  const LogP p{50e-6, 10e-6, 30e-6};
  EXPECT_DOUBLE_EQ(p.pt2pt(), 70e-6);
}

TEST(LogGPTest, PointToPoint) {
  const LogGP p{50e-6, 10e-6, 30e-6, 100e-9};
  EXPECT_DOUBLE_EQ(p.pt2pt(0), 70e-6);
  EXPECT_DOUBLE_EQ(p.pt2pt(1), 70e-6);  // (M-1) G with M = 1
  EXPECT_DOUBLE_EQ(p.pt2pt(1001), 70e-6 + 1000 * 100e-9);
}

TEST(LogGPTest, FlatCollectiveTableTwo) {
  const LogGP p{50e-6, 10e-6, 30e-6, 100e-9};
  const int n = 16;
  const Bytes m = 1024;
  EXPECT_DOUBLE_EQ(p.flat_collective(n, m),
                   50e-6 + 2 * 10e-6 + 15.0 * 1023 * 100e-9 + 14.0 * 30e-6);
}

TEST(PLogPTest, PointToPointUsesGap) {
  PLogP p;
  p.L = 40e-6;
  p.g.add_point(0, 20e-6);
  p.g.add_point(1024, 120e-6);
  EXPECT_DOUBLE_EQ(p.pt2pt(0), 60e-6);
  EXPECT_DOUBLE_EQ(p.pt2pt(512), 40e-6 + 70e-6);
  EXPECT_DOUBLE_EQ(p.flat_collective(16, 1024), 40e-6 + 15 * 120e-6);
}

TEST(PLogPTest, EmptyGapRejected) {
  PLogP p;
  EXPECT_THROW((void)p.pt2pt(10), Error);
}

}  // namespace
}  // namespace lmo::models
