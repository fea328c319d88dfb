// Tests for the LMO core: parameter sets, predictions, empirical model,
// model-based optimization.
#include <gtest/gtest.h>

#include "core/empirical.hpp"
#include "core/lmo_model.hpp"
#include "core/optimize.hpp"
#include "core/predictions.hpp"
#include "core/tuner.hpp"
#include "simnet/cluster.hpp"
#include "util/error.hpp"

#include "fixtures.hpp"

namespace lmo::core {
namespace {

/// LMO parameters straight from a cluster's ground truth.
LmoParams from_ground_truth(const sim::ClusterConfig& cfg) {
  const auto gt = sim::ground_truth(cfg);
  const int n = cfg.size();
  LmoParams p;
  p.C = gt.C;
  p.t = gt.t;
  p.L = models::PairTable(n);
  p.inv_beta = models::PairTable(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      p.L(i, j) = gt.L(i, j);
      p.inv_beta(i, j) = gt.inv_beta(i, j);
    }
  return p;
}

LmoParams paper_params() { return from_ground_truth(sim::make_paper_cluster()); }

/// The tuner's price of `id` for one `kind` invocation of m bytes from
/// root 0, under `mapping` (empty = the MPI default).
double tuner_price(const LmoParams& p, CollectiveKind kind, AlgorithmId id,
                   Bytes m, std::vector<int> mapping = {}) {
  TunedDecision d;
  d.kind = kind;
  d.algorithm = id;
  d.message = m;
  d.mapping = std::move(mapping);
  return Tuner(p, GatherEmpirical{}).price(d);
}

/// Fig. 6's LMO choice from root 0: linear unless binomial prices lower.
ScatterAlgorithm lmo_scatter_choice(const LmoParams& p, Bytes m) {
  return tuner_price(p, CollectiveKind::kScatter, AlgorithmId::kLinear, m) <=
                 tuner_price(p, CollectiveKind::kScatter,
                             AlgorithmId::kBinomial, m)
             ? ScatterAlgorithm::kLinear
             : ScatterAlgorithm::kBinomial;
}

TEST(LmoModel, PointToPointFormula) {
  const auto p = paper_params();
  const Bytes m = 10000;
  const double expect = p.C[0] + p.L(0, 5) + p.C[5] +
                        double(m) * (p.t[0] + p.inv_beta(0, 5) + p.t[5]);
  EXPECT_DOUBLE_EQ(p.pt2pt(0, 5, m), expect);
}

TEST(LmoModel, HockneyViewMatchesDefinition) {
  const auto p = paper_params();
  const auto h = p.as_hockney();
  for (int i = 0; i < p.size(); ++i)
    for (int j = 0; j < p.size(); ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(h.alpha(i, j), p.C[std::size_t(i)] + p.L(i, j) +
                                          p.C[std::size_t(j)]);
      EXPECT_DOUBLE_EQ(h.pt2pt(i, j, 4096), p.pt2pt(i, j, 4096));
    }
}

TEST(LmoModel, FoldLatenciesPreservesVariablePart) {
  const auto p = paper_params();
  const auto o = fold_latencies(p);
  EXPECT_EQ(o.size(), p.size());
  for (int i = 0; i < p.size(); ++i) {
    EXPECT_GT(o.C[std::size_t(i)], p.C[std::size_t(i)]);  // absorbed latency
    EXPECT_DOUBLE_EQ(o.t[std::size_t(i)], p.t[std::size_t(i)]);
  }
}

TEST(LmoModel, ValidatesShape) {
  LmoParams p;
  p.C = {1e-6, 1e-6};
  p.t = {1e-9};
  EXPECT_THROW(p.validate(), Error);
}

TEST(LmoPredictions, ScatterEquationFour) {
  const auto p = paper_params();
  const int root = 0;
  const Bytes m = 50000;
  const int n = p.size();
  double mx = 0;
  for (int i = 1; i < n; ++i)
    mx = std::max(mx, p.L(root, i) + double(m) * p.inv_beta(root, i) +
                          p.C[std::size_t(i)] + double(m) * p.t[std::size_t(i)]);
  const double expect =
      double(n - 1) * (p.C[0] + double(m) * p.t[0]) + mx;
  EXPECT_DOUBLE_EQ(linear_scatter_time(p, root, m), expect);
}

TEST(LmoPredictions, ScatterMonotoneInSize) {
  const auto p = paper_params();
  double prev = 0;
  for (Bytes m : {1024, 4096, 16384, 65536, 262144}) {
    const double t = linear_scatter_time(p, 0, m);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(LmoPredictions, GatherRegimes) {
  const auto p = paper_params();
  GatherEmpirical emp;
  emp.m1 = 4096;
  emp.m2 = 65536;
  emp.escalation_modes = {{0.1, 7, 0.7}, {0.25, 3, 0.3}};
  emp.linear_prob_at_m1 = 1.0;
  emp.linear_prob_at_m2 = 0.2;

  const auto small = linear_gather_time(p, emp, 0, 1024);
  EXPECT_EQ(small.regime, GatherRegime::kSmall);
  EXPECT_DOUBLE_EQ(small.expected_escalation, 0.0);
  EXPECT_DOUBLE_EQ(small.linear_probability, 1.0);

  const auto medium = linear_gather_time(p, emp, 0, 32768);
  EXPECT_EQ(medium.regime, GatherRegime::kMedium);
  EXPECT_GT(medium.expected_escalation, 0.0);
  EXPECT_LT(medium.linear_probability, 1.0);
  EXPECT_DOUBLE_EQ(medium.max_escalation, 0.25);
  EXPECT_GT(medium.worst_case(), medium.expected());

  const auto large = linear_gather_time(p, emp, 0, 131072);
  EXPECT_EQ(large.regime, GatherRegime::kLarge);
  // Sum branch strictly exceeds max branch.
  EXPECT_GT(large.base, linear_scatter_time(p, 0, 131072));
}

TEST(LmoPredictions, GatherSumBranchIsSumOfTerms) {
  const auto p = paper_params();
  GatherEmpirical emp;
  emp.m1 = 1;
  emp.m2 = 2;
  const Bytes m = 100000;
  double sum = 0;
  for (int i = 1; i < p.size(); ++i)
    sum += p.L(0, i) + double(m) * p.inv_beta(0, i) + p.C[std::size_t(i)] +
           double(m) * p.t[std::size_t(i)];
  const double expect =
      double(p.size() - 1) * (p.C[0] + double(m) * p.t[0]) + sum;
  EXPECT_DOUBLE_EQ(linear_gather_time(p, emp, 0, m).base, expect);
}

TEST(LmoPredictions, LinearOpsPriceTheLinkTheyCross) {
  // Scatter sends root -> i; gather and reduce send i -> root. With the
  // outbound links 100x slower, each must read its own direction.
  auto p = paper_params();
  const int root = 2;
  const Bytes m = 50000;
  for (int i = 0; i < p.size(); ++i) {
    if (i == root) continue;
    p.L(root, i) *= 100.0;
    p.inv_beta(root, i) *= 100.0;
  }
  double out_max = 0, in_max = 0, in_sum = 0;
  for (int i = 0; i < p.size(); ++i) {
    if (i == root) continue;
    const double remote = p.C[std::size_t(i)] + double(m) * p.t[std::size_t(i)];
    out_max = std::max(out_max, p.L(root, i) +
                                    double(m) * p.inv_beta(root, i) + remote);
    const double in = p.L(i, root) + double(m) * p.inv_beta(i, root) + remote;
    in_max = std::max(in_max, in);
    in_sum += in;
  }
  const double serial = double(p.size() - 1) *
                        (p.C[std::size_t(root)] +
                         double(m) * p.t[std::size_t(root)]);
  EXPECT_DOUBLE_EQ(linear_scatter_time(p, root, m), serial + out_max);
  EXPECT_DOUBLE_EQ(linear_reduce_time(p, root, m), 2.0 * serial + in_max);
  GatherEmpirical emp;
  EXPECT_DOUBLE_EQ(linear_gather_time(p, emp, root, m).base, serial + in_max);
  emp.m1 = 1;
  emp.m2 = 2;  // the large-message (sum) branch
  EXPECT_DOUBLE_EQ(linear_gather_time(p, emp, root, m).base, serial + in_sum);
}

TEST(LmoPredictions, BinomialScatterHomogeneousSanity) {
  // On a homogeneous cluster the LMO binomial recursion approximates the
  // homogeneous Hockney eq. (3) with alpha = C+L+C, beta_H = t+1/b+t.
  sim::NodeParams node;
  node.fixed_delay_s = 50e-6;
  node.per_byte_s = 100e-9;
  node.link_rate_bps = 12.5e6;
  node.latency_s = 20e-6;
  const auto cfg = test_support::make_homogeneous_cluster(16, node);
  const auto p = from_ground_truth(cfg);
  const Bytes m = 8192;
  const double lmo =
      tuner_price(p, CollectiveKind::kScatter, AlgorithmId::kBinomial, m);
  const double hockney = p.as_hockney().binomial_collective(0, m);
  // The homogeneous critical path always descends through each node's
  // *first* (largest) child, where LMO's serialized-CPU accounting and the
  // Hockney edge cost coincide — the recursions agree exactly. LMO can only
  // be cheaper-or-equal: it never charges wire time twice.
  EXPECT_LE(lmo, hockney);
  EXPECT_NEAR(lmo, hockney, 1e-12);
}

TEST(LmoPredictions, BinomialMappingSensitivity) {
  const auto p = paper_params();
  const double default_time = tuner_price(p, CollectiveKind::kScatter,
                                         AlgorithmId::kBinomial, 16384);
  // Put the Celeron (node 12, slowest) at virtual rank 8 (sends 8 blocks).
  std::vector<int> mapping(16);
  for (int v = 0; v < 16; ++v) mapping[std::size_t(v)] = v;
  std::swap(mapping[8], mapping[12]);
  const double bad = tuner_price(p, CollectiveKind::kScatter,
                                AlgorithmId::kBinomial, 16384, mapping);
  EXPECT_GT(bad, default_time);
}

TEST(LmoPredictions, BinomialGatherPositiveAndSizeMonotone) {
  const auto p = paper_params();
  double prev = 0;
  for (Bytes m : {512, 2048, 8192, 32768}) {
    const double t =
        tuner_price(p, CollectiveKind::kGather, AlgorithmId::kBinomial, m);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(Empirical, LinearProbabilityInterpolates) {
  GatherEmpirical emp;
  emp.m1 = 1000;
  emp.m2 = 3000;
  emp.linear_prob_at_m1 = 0.9;
  emp.linear_prob_at_m2 = 0.1;
  EXPECT_DOUBLE_EQ(emp.linear_probability(500), 1.0);
  EXPECT_DOUBLE_EQ(emp.linear_probability(2000), 0.5);
  EXPECT_DOUBLE_EQ(emp.linear_probability(3000), 0.0);
}

TEST(Optimize, ScatterSelectionCrossesOver) {
  const auto p = paper_params();
  // Tiny messages: binomial (fewer serialized root sends) wins; large:
  // linear wins (binomial re-transmits blocks) — the Fig. 6 landscape. The
  // crossover is low because binomial scatter pushes 2(n-1) block-copies
  // through the tree vs. the flat tree's n-1.
  EXPECT_EQ(lmo_scatter_choice(p, 16), ScatterAlgorithm::kBinomial);
  EXPECT_EQ(lmo_scatter_choice(p, 150 * 1024), ScatterAlgorithm::kLinear);
}

TEST(Optimize, HockneyMispredictsLargeScatter) {
  // The paper's Fig. 6: Hockney switches in favour of binomial for
  // 100-200 KB, which is wrong on a switched cluster.
  const auto p = paper_params();
  const auto h = p.as_hockney();
  EXPECT_EQ(choose_scatter_algorithm_hockney(h, 0, 150 * 1024),
            ScatterAlgorithm::kBinomial);
  EXPECT_EQ(lmo_scatter_choice(p, 150 * 1024), ScatterAlgorithm::kLinear);
}

TEST(Optimize, SplitGatherPlannedOnlyInBand) {
  const auto p = paper_params();
  GatherEmpirical emp;
  emp.m1 = 4096;
  emp.m2 = 65536;
  emp.escalation_modes = {{0.15, 10, 1.0}};
  emp.linear_prob_at_m1 = 0.8;
  emp.linear_prob_at_m2 = 0.2;

  const auto in_band = plan_optimized_gather(p, emp, 0, 32768);
  EXPECT_TRUE(in_band.split);
  EXPECT_EQ(in_band.chunk, 4096);
  EXPECT_EQ(in_band.series, 8);
  EXPECT_LT(in_band.predicted_split, in_band.predicted_native);

  const auto below = plan_optimized_gather(p, emp, 0, 2048);
  EXPECT_FALSE(below.split);
  const auto above = plan_optimized_gather(p, emp, 0, 256 * 1024);
  EXPECT_FALSE(above.split);
}

TEST(Optimize, NoSplitWhenEscalationsNegligible) {
  const auto p = paper_params();
  GatherEmpirical emp;
  emp.m1 = 4096;
  emp.m2 = 65536;
  emp.escalation_modes = {{1e-6, 1, 0.01}};  // tiny, rare
  emp.linear_prob_at_m1 = 1.0;
  emp.linear_prob_at_m2 = 0.99;
  const auto plan = plan_optimized_gather(p, emp, 0, 32768);
  EXPECT_FALSE(plan.split);
}

}  // namespace
}  // namespace lmo::core
