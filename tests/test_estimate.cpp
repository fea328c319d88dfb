// Tests for experiment schedules, the experimenter, and the estimators —
// including the headline property: the LMO estimator recovers the
// simulator's ground-truth parameters from timing experiments alone.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "estimate/empirical_estimator.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/hockney_estimator.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/plan.hpp"
#include "estimate/loggp_estimator.hpp"
#include "estimate/plogp_estimator.hpp"
#include "estimate/schedule.hpp"
#include "simnet/cluster.hpp"
#include "util/error.hpp"

#include "fixtures.hpp"

namespace lmo::estimate {
namespace {

// ------------------------------------------------------------ schedules ---

TEST(Schedule, AllPairsCount) {
  EXPECT_EQ(all_pairs(16).size(), 120u);  // C(16,2)
  EXPECT_EQ(all_pairs(2).size(), 1u);
}

/// Build a flat parallel plan from `keys`.
ExperimentPlan flat_plan(const std::vector<ExperimentKey>& keys) {
  PlanBuilder plan;
  for (const ExperimentKey& k : keys) plan.require(k);
  return plan.build(true);
}

TEST(Schedule, PairRoundsAreDisjointAndComplete) {
  for (int n : {2, 5, 8, 16, 17}) {
    std::vector<ExperimentKey> keys;
    for (const auto& [i, j] : all_pairs(n))
      keys.push_back(ExperimentKey::roundtrip(i, j, 0, 0));
    const auto rounds = flat_plan(keys).rounds;
    std::set<Pair> seen;
    for (const auto& round : rounds) {
      std::set<int> nodes;
      for (const ExperimentKey& k : round.keys) {
        const int a = k.a, b = k.b;
        EXPECT_TRUE(nodes.insert(a).second) << "n=" << n;
        EXPECT_TRUE(nodes.insert(b).second) << "n=" << n;
        EXPECT_TRUE(seen.insert({a, b}).second) << "n=" << n;
      }
    }
    EXPECT_EQ(seen.size(), std::size_t(n * (n - 1) / 2)) << "n=" << n;
    // The even n here are powers of two: exactly n-1 rounds (an optimal
    // 1-factorization; first-fit needs more for other even n).
    if (n % 2 == 0) {
      EXPECT_EQ(rounds.size(), std::size_t(n - 1));
    }
  }
}

TEST(Schedule, TripletRoundsAreDisjointAndComplete) {
  const int n = 10;
  const auto all = test_support::all_oriented_triplets(n);
  std::vector<ExperimentKey> keys;
  for (const Triplet& t : all)
    keys.push_back(ExperimentKey::one_to_two(t, 1024, 0));
  const auto rounds = flat_plan(keys).rounds;
  std::size_t total = 0;
  for (const auto& round : rounds) {
    std::set<int> nodes;
    for (const ExperimentKey& k : round.keys) {
      for (int x : k.participants()) EXPECT_TRUE(nodes.insert(x).second);
      ++total;
    }
    EXPECT_LE(round.keys.size(), std::size_t(n / 3));
  }
  EXPECT_EQ(total, all.size());
  // Packing should be much tighter than one-per-round.
  EXPECT_LT(rounds.size(), all.size() / 2);
}

// ------------------------------------------------------- experimenter -----

sim::ClusterConfig quiet16() {
  auto cfg = sim::make_paper_cluster();
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  return cfg;
}

TEST(Experimenter, RoundtripMatchesModel) {
  auto cfg = quiet16();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const Bytes m = 32768;
  const double t = ex.roundtrip(0, 5, m, m);
  const auto gt = sim::ground_truth(cfg);
  // 2(C_i + L + C_j + M(t_i + 1/b + t_j)) up to the empty-frame wire time
  // absorbed into the latency.
  const double model =
      2.0 * (gt.C[0] + gt.L(0, 5) + gt.C[5] +
             double(m) * (gt.t[0] + gt.inv_beta(0, 5) + gt.t[5]));
  EXPECT_NEAR(t, model, 0.02 * model);
}

TEST(Experimenter, ParallelRoundMatchesSerial) {
  // Single-switch property: disjoint experiments do not disturb each other.
  auto cfg = quiet16();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const std::vector<Pair> round{{0, 1}, {2, 3}, {4, 5}, {6, 7}};
  const auto batched = ex.roundtrip_round(round, 4096, 4096);
  for (std::size_t e = 0; e < round.size(); ++e) {
    const auto [i, j] = round[e];
    EXPECT_NEAR(batched[e], ex.roundtrip(i, j, 4096, 4096),
                1e-3 * batched[e]);
  }
}

TEST(Experimenter, SaturationGapReflectsBottleneck) {
  auto cfg = quiet16();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const Bytes m = 32768;
  const double gap = ex.saturation_gap(0, 1, m);
  // CPU-bound: the gap approximates C_0 + m t_0 (t > 1/beta on this
  // cluster).
  const auto gt = sim::ground_truth(cfg);
  const double cpu = gt.C[0] + double(m) * gt.t[0];
  EXPECT_NEAR(gap, cpu, 0.10 * cpu);
}

TEST(Experimenter, OverheadsApproximateProcessorCosts) {
  auto cfg = quiet16();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto gt = sim::ground_truth(cfg);
  const Bytes m = 8192;
  const double os = ex.send_overhead(0, 1, m);
  EXPECT_NEAR(os, gt.C[0] + double(m) * gt.t[0], 0.05 * os);
  const double orr = ex.recv_overhead(0, 1, m);
  EXPECT_NEAR(orr, gt.C[0] + double(m) * gt.t[0], 0.10 * orr);
}

TEST(Experimenter, CostAccumulates) {
  auto cfg = quiet16();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const SimTime c0 = ex.cost();
  (void)ex.roundtrip(0, 1, 1024, 1024);
  EXPECT_GT(ex.cost(), c0);
  EXPECT_GT(ex.runs(), 0u);
}

// ---------------------------------------------------------- estimators ----

TEST(HockneyEstimation, RecoversCombinedParameters) {
  auto cfg = sim::make_paper_cluster();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate_hockney(ex);
  const auto gt = sim::ground_truth(cfg);
  for (const auto& [i, j] : all_pairs(cfg.size())) {
    const double alpha_true = gt.C[std::size_t(i)] + gt.L(i, j) +
                              gt.C[std::size_t(j)];
    const double beta_true = gt.t[std::size_t(i)] +
                             gt.inv_beta(i, j) +
                             gt.t[std::size_t(j)];
    EXPECT_NEAR(rep.hetero.alpha(i, j), alpha_true, 0.15 * alpha_true)
        << i << "," << j;
    EXPECT_NEAR(rep.hetero.beta(i, j), beta_true, 0.08 * beta_true)
        << i << "," << j;
  }
  EXPECT_GT(rep.estimation_cost, SimTime::zero());
}

TEST(HockneyEstimation, ParallelAndSerialAgree) {
  // Section IV: parallel estimation gives the same parameter values.
  auto cfg = sim::make_paper_cluster(7);
  vmpi::World w1(cfg), w2(cfg);
  SimExperimenter ex1(w1), ex2(w2);
  HockneyOptions par, ser;
  par.parallel = true;
  ser.parallel = false;
  const auto a = estimate_hockney(ex1, par);
  const auto b = estimate_hockney(ex2, ser);
  for (const auto& [i, j] : all_pairs(cfg.size())) {
    EXPECT_NEAR(a.hetero.alpha(i, j), b.hetero.alpha(i, j),
                0.05 * b.hetero.alpha(i, j));
    EXPECT_NEAR(a.hetero.beta(i, j), b.hetero.beta(i, j),
                0.05 * b.hetero.beta(i, j));
  }
  // ... and costs less simulated time.
  EXPECT_LT(a.estimation_cost, b.estimation_cost);
}

TEST(HockneyEstimation, RegressionMethodAgreesWithTwoPoint) {
  // The paper's two estimation variants must coincide on a quiet cluster
  // (point-to-point time is exactly affine in the message size).
  auto cfg = quiet16();
  vmpi::World w1(cfg), w2(cfg);
  SimExperimenter e1(w1), e2(w2);
  HockneyOptions two, reg;
  reg.method = HockneyMethod::kRegression;
  const auto a = estimate_hockney(e1, two);
  const auto b = estimate_hockney(e2, reg);
  for (const auto& [i, j] : all_pairs(cfg.size())) {
    // The two-point alpha absorbs the full minimal-frame wire time while
    // the regression distributes it — a systematic few-microsecond offset.
    EXPECT_NEAR(a.hetero.alpha(i, j), b.hetero.alpha(i, j),
                0.02 * a.hetero.alpha(i, j) + 4e-6);
    EXPECT_NEAR(a.hetero.beta(i, j), b.hetero.beta(i, j),
                0.02 * a.hetero.beta(i, j));
  }
}

TEST(HockneyEstimation, RegressionRejectsDegenerateSizes) {
  auto cfg = sim::make_random_cluster(4, 3);
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  HockneyOptions opts;
  opts.method = HockneyMethod::kRegression;
  opts.regression_sizes = {1024};
  EXPECT_THROW((void)estimate_hockney(ex, opts), Error);
}

/// Nodes 0 and 1 of `cfg` as a cluster of their own: estimate_plogp on it
/// measures and fits exactly the pair (0, 1), first in its report.
sim::ClusterConfig first_two_nodes(sim::ClusterConfig cfg) {
  cfg.profiles.clear();
  cfg.profile_of.clear();
  cfg.nodes.resize(2);
  cfg.validate();
  return cfg;
}

TEST(PlogpEstimation, AdaptiveBisectionTriggersOnKink) {
  // With the rendezvous protocol switch active, g(M) has a kink at the
  // threshold: the estimator's extrapolation check must insert midpoints
  // beyond the plain doubling ladder (Kielmann's adaptive refinement).
  auto cfg = sim::make_paper_cluster();
  cfg.noise_rel = 0.0;
  cfg.quirks.escalation_peak_prob = 0.0;  // keep the kink, drop the noise
  vmpi::World w(first_two_nodes(cfg));
  SimExperimenter ex(w);
  PLogPOptions opts;
  opts.max_size = 256 * 1024;
  const auto p = estimate_plogp(ex, opts).per_pair.front();
  // Ladder: 0, 1K, 2K, ..., 128K, 256K = 10 points; bisection adds more.
  EXPECT_GT(p.g.size(), 10u);
}

TEST(LmoEstimation, RecoversGroundTruthOnPaperCluster) {
  auto cfg = sim::make_paper_cluster();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate_lmo(ex);
  const auto gt = sim::ground_truth(cfg);
  const int n = cfg.size();
  for (int i = 0; i < n; ++i) {
    EXPECT_NEAR(rep.params.C[std::size_t(i)], gt.C[std::size_t(i)],
                0.20 * gt.C[std::size_t(i)])
        << "C_" << i;
    EXPECT_NEAR(rep.params.t[std::size_t(i)], gt.t[std::size_t(i)],
                0.10 * gt.t[std::size_t(i)])
        << "t_" << i;
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      // Estimated latency absorbs the minimal-frame wire time; allow it.
      EXPECT_NEAR(rep.params.L(i, j), gt.L(i, j),
                  0.35 * gt.L(i, j) + 8e-6)
          << "L_" << i << "," << j;
      EXPECT_NEAR(rep.params.inv_beta(i, j),
                  gt.inv_beta(i, j),
                  0.12 * gt.inv_beta(i, j))
          << "b_" << i << "," << j;
    }
  EXPECT_EQ(rep.roundtrip_experiments, 120);
  EXPECT_EQ(rep.one_to_two_experiments, 3 * 560);
}

class LmoRandomClusters : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LmoRandomClusters, RecoversPointToPointTimes) {
  // Property: whatever the heterogeneous cluster, predicted point-to-point
  // times from estimated parameters match the simulator's ground truth.
  auto cfg = sim::make_random_cluster(8, GetParam());
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate_lmo(ex);
  const auto gt = sim::ground_truth(cfg);
  for (const auto& [i, j] : all_pairs(cfg.size())) {
    for (const Bytes m : {0, 8192, 65536}) {
      const double pred = rep.params.pt2pt(i, j, m);
      const double truth =
          gt.C[std::size_t(i)] + gt.L(i, j) +
          gt.C[std::size_t(j)] +
          double(m) * (gt.t[std::size_t(i)] +
                       gt.inv_beta(i, j) +
                       gt.t[std::size_t(j)]);
      EXPECT_NEAR(pred, truth, 0.10 * truth + 10e-6)
          << "pair " << i << "," << j << " m=" << m;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LmoRandomClusters,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

TEST(LmoEstimation, MinimumClusterSize) {
  auto cfg = sim::make_random_cluster(3, 9);
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate_lmo(ex);
  EXPECT_EQ(rep.params.size(), 3);
  EXPECT_EQ(rep.one_to_two_experiments, 3);
  auto two = sim::make_random_cluster(2, 9);
  vmpi::World w2(two);
  SimExperimenter ex2(w2);
  EXPECT_THROW((void)estimate_lmo(ex2), Error);
}

TEST(LmoEstimation, RedundancyAveragingHelpsUnderNoise) {
  // eq. (12): averaging the redundant per-triplet estimates reduces
  // variance. Compare mean parameter error over several independent noisy
  // clusters (a single seed can go either way).
  auto error_of = [](bool averaging) {
    double total = 0;
    for (std::uint64_t seed : {101u, 202u, 303u}) {
      auto cfg = sim::make_random_cluster(8, seed);
      cfg.noise_rel = 0.04;
      const auto gt = sim::ground_truth(cfg);
      vmpi::World w(cfg);
      SimExperimenter ex(w);
      LmoOptions opts;
      opts.redundancy_averaging = averaging;
      const auto rep = estimate_lmo(ex, opts);
      for (int i = 0; i < cfg.size(); ++i) {
        total += std::fabs(rep.params.C[std::size_t(i)] -
                           gt.C[std::size_t(i)]) /
                 gt.C[std::size_t(i)];
        total += std::fabs(rep.params.t[std::size_t(i)] -
                           gt.t[std::size_t(i)]) /
                 gt.t[std::size_t(i)];
      }
      for (const auto& [i, j] : all_pairs(cfg.size()))
        total += std::fabs(rep.params.inv_beta(i, j) -
                           gt.inv_beta(i, j)) /
                 gt.inv_beta(i, j);
    }
    return total;
  };
  EXPECT_LT(error_of(true), error_of(false));
}

TEST(LoggpEstimation, ParametersPlausible) {
  auto cfg = sim::make_paper_cluster();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate_loggp(ex);
  EXPECT_GT(rep.averaged.o, 0.0);
  EXPECT_GT(rep.averaged.g, 0.0);
  EXPECT_GT(rep.averaged.G, 0.0);
  EXPECT_GE(rep.averaged.L, 0.0);
  // G is per byte: within the per-byte cost ballpark (80..160 ns/B).
  EXPECT_GT(rep.averaged.G, 30e-9);
  EXPECT_LT(rep.averaged.G, 400e-9);
  // o approximates per-message processing (tens of microseconds).
  EXPECT_GT(rep.averaged.o, 5e-6);
  EXPECT_LT(rep.averaged.o, 300e-6);
}

TEST(PlogpEstimation, PairGapMatchesCpuCost) {
  auto cfg = quiet16();
  vmpi::World w(first_two_nodes(cfg));
  SimExperimenter ex(w);
  const auto p = estimate_plogp(ex).per_pair.front();
  const auto gt = sim::ground_truth(cfg);
  for (const Bytes m : {4096, 32768, 131072}) {
    const double expect = gt.C[0] + double(m) * gt.t[0];  // CPU-bound gap
    EXPECT_NEAR(p.g(double(m)), expect, 0.15 * expect) << "m=" << m;
  }
  EXPECT_GE(p.L, 0.0);
  EXPECT_GE(p.g.size(), 8u);
}

TEST(PlogpEstimation, AveragedCoversAllPairsOfSmallCluster) {
  auto cfg = sim::make_paper_cluster(5);
  // Shrink to 6 nodes to keep the adaptive sweep quick.
  cfg.nodes.resize(6);
  cfg.profile_of.resize(6);
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  PLogPOptions opts;
  opts.max_size = 64 * 1024;
  const auto rep = estimate_plogp(ex, opts);
  EXPECT_EQ(rep.pairs.size(), 30u);  // directed: both ways per link
  EXPECT_EQ(rep.per_pair.size(), 30u);
  EXPECT_FALSE(rep.averaged.g.empty());
  EXPECT_GT(rep.averaged.pt2pt(1024), 0.0);
}

TEST(EmpiricalEstimation, FindsGatherBandOnPaperCluster) {
  auto cfg = sim::make_paper_cluster();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto lmo = estimate_lmo(ex);
  const auto rep = estimate_gather_empirical(ex, lmo.params);
  // The simulator's band is (4 KB, 64 KB]: detected thresholds should
  // bracket it loosely.
  EXPECT_GE(rep.empirical.m1, 2 * 1024);
  EXPECT_LE(rep.empirical.m1, 16 * 1024);
  EXPECT_GE(rep.empirical.m2, 48 * 1024);
  EXPECT_LE(rep.empirical.m2, 192 * 1024);
  EXPECT_FALSE(rep.empirical.escalation_modes.empty());
  EXPECT_LE(rep.empirical.max_escalation(), 0.3);
}

TEST(EmpiricalEstimation, NoBandWithoutQuirks) {
  auto cfg = quiet16();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto lmo = estimate_lmo(ex);
  EmpiricalOptions opts;
  opts.observations_per_size = 4;
  const auto rep = estimate_gather_empirical(ex, lmo.params, opts);
  EXPECT_TRUE(rep.empirical.escalation_modes.empty());
}

TEST(EmpiricalEstimation, DetectsScatterLeap) {
  auto cfg = sim::make_paper_cluster();
  vmpi::World w(cfg);
  SimExperimenter ex(w);
  const auto lmo = estimate_lmo(ex);
  EmpiricalOptions opts;
  opts.observations_per_size = 4;
  const auto rep = estimate_scatter_empirical(ex, lmo.params, opts);
  EXPECT_TRUE(rep.empirical.detected);
  // The simulator's leap threshold is 64 KB (pipelined sends).
  EXPECT_GE(rep.empirical.leap_threshold, 48 * 1024);
  EXPECT_LE(rep.empirical.leap_threshold, 160 * 1024);
  EXPECT_GT(rep.empirical.leap_s, 0.0);
}

}  // namespace
}  // namespace lmo::estimate
