// Metamorphic properties of the simulator and the models: transformations
// of the input with predictable effects on the output. These catch whole
// classes of bookkeeping bugs that example-based tests miss.
#include <gtest/gtest.h>

#include <algorithm>

#include "coll/collectives.hpp"
#include "core/predictions.hpp"
#include "core/tuner.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/lmo_estimator.hpp"
#include "simnet/cluster.hpp"
#include "util/rng.hpp"
#include "vmpi/world.hpp"

#include "fixtures.hpp"

namespace lmo {
namespace {

using vmpi::Comm;
using vmpi::Task;
using vmpi::World;

sim::ClusterConfig quiet_cluster(int n) {
  sim::NodeParams node;
  node.fixed_delay_s = 50e-6;
  node.per_byte_s = 100e-9;
  node.link_rate_bps = 12.5e6;
  node.latency_s = 20e-6;
  auto cfg = test_support::make_homogeneous_cluster(n, node);
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  return cfg;
}

double scatter_time(const sim::ClusterConfig& cfg, Bytes m) {
  World w(cfg);
  return w.run(coll::spmd(cfg.size(), [m](Comm& c) {
    return coll::linear_scatter(c, 0, m);
  })).seconds();
}

TEST(Metamorphic, ScatterTimeAffineInMessageSize) {
  // On a quiet cluster every cost is fixed + per-byte, so doubling the
  // increment beyond a base size doubles the increment of the total.
  const auto cfg = quiet_cluster(8);
  const double t1 = scatter_time(cfg, 10000);
  const double t2 = scatter_time(cfg, 20000);
  const double t3 = scatter_time(cfg, 30000);
  EXPECT_NEAR(t3 - t2, t2 - t1, 1e-9);
  EXPECT_GT(t2, t1);
}

TEST(Metamorphic, AddingANodeNeverSpeedsUpLinearScatter) {
  double prev = 0;
  for (int n : {4, 6, 8, 12, 16}) {
    const double t = scatter_time(quiet_cluster(n), 4096);
    EXPECT_GT(t, prev) << "n=" << n;
    prev = t;
  }
}

TEST(Metamorphic, SlowingOneReceiverOnlyAffectsTheTail) {
  // Slowing a *receiver* (non-root) leaves the root's serialized part
  // unchanged; the global completion grows.
  auto cfg = quiet_cluster(6);
  const double base = scatter_time(cfg, 20000);
  cfg.nodes[5].fixed_delay_s *= 4;
  cfg.nodes[5].per_byte_s *= 4;
  const double slowed = scatter_time(cfg, 20000);
  EXPECT_GT(slowed, base);
  // Root-side time unchanged: measure at the root.
  World w_base(quiet_cluster(6)), w_slow(cfg);
  const SimTime root_base = test_support::run_timed(w_base, 0, [](Comm& c) {
    return coll::linear_scatter(c, 0, 20000);
  });
  const SimTime root_slow = test_support::run_timed(w_slow, 0, [](Comm& c) {
    return coll::linear_scatter(c, 0, 20000);
  });
  EXPECT_EQ(root_base, root_slow);
}

TEST(Metamorphic, SlowingTheRootScalesTheSerialPart) {
  auto cfg = quiet_cluster(6);
  const double base = scatter_time(cfg, 20000);
  cfg.nodes[0].fixed_delay_s *= 2;
  cfg.nodes[0].per_byte_s *= 2;
  const double slowed = scatter_time(cfg, 20000);
  // The serialized (n-1)(C_r + M t_r) part doubles; total grows by nearly
  // that amount.
  const double serial = 5 * (50e-6 + 20000 * 100e-9);
  EXPECT_NEAR(slowed - base, serial, 0.15 * serial);
}

TEST(Metamorphic, SymmetricRolesGiveSymmetricTimes) {
  // On a homogeneous cluster, scatter from root 0 and root 3 take exactly
  // the same time (relabeling symmetry).
  const auto cfg = quiet_cluster(8);
  World w(cfg);
  const SimTime a = w.run(coll::spmd(8, [](Comm& c) {
    return coll::linear_scatter(c, 0, 7000);
  }));
  const SimTime b = w.run(coll::spmd(8, [](Comm& c) {
    return coll::linear_scatter(c, 3, 7000);
  }));
  EXPECT_EQ(a, b);
}

TEST(Metamorphic, FasterLinkNeverHurts) {
  auto cfg = quiet_cluster(6);
  const double base = scatter_time(cfg, 30000);
  for (auto& n : cfg.nodes) n.link_rate_bps *= 10;
  const double faster = scatter_time(cfg, 30000);
  EXPECT_LE(faster, base);
}

TEST(Metamorphic, PredictionMonotoneInEveryParameter) {
  // LMO predictions are monotone nondecreasing in each parameter class.
  const auto cfg = sim::make_paper_cluster();
  const auto gt = sim::ground_truth(cfg);
  core::LmoParams p;
  p.C = gt.C;
  p.t = gt.t;
  p.L = models::PairTable(16);
  p.inv_beta = models::PairTable(16);
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j) {
      if (i == j) continue;
      p.L(i, j) = gt.L(i, j);
      p.inv_beta(i, j) = gt.inv_beta(i, j);
    }
  const Bytes m = 32768;
  const double base = core::linear_scatter_time(p, 0, m);
  auto bumped = p;
  bumped.C[0] *= 1.5;
  EXPECT_GT(core::linear_scatter_time(bumped, 0, m), base);
  bumped = p;
  bumped.t[0] *= 1.5;
  EXPECT_GT(core::linear_scatter_time(bumped, 0, m), base);
  bumped = p;
  for (int j = 1; j < 16; ++j) bumped.L(0, j) *= 1.5;
  EXPECT_GT(core::linear_scatter_time(bumped, 0, m), base);
  bumped = p;
  for (int j = 1; j < 16; ++j) bumped.inv_beta(0, j) *= 1.5;
  EXPECT_GT(core::linear_scatter_time(bumped, 0, m), base);
}

TEST(Metamorphic, BinomialPredictionPermutationInvariantWhenHomogeneous) {
  // With identical processors, any mapping predicts the same time.
  const auto cfg = quiet_cluster(8);
  const auto gt = sim::ground_truth(cfg);
  core::LmoParams p;
  p.C = gt.C;
  p.t = gt.t;
  p.L = models::PairTable(8);
  p.inv_beta = models::PairTable(8);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) {
      if (i == j) continue;
      p.L(i, j) = gt.L(i, j);
      p.inv_beta(i, j) = gt.inv_beta(i, j);
    }
  const core::Tuner tuner(p, core::GatherEmpirical{});
  core::TunedDecision d;
  d.kind = core::CollectiveKind::kScatter;
  d.algorithm = core::AlgorithmId::kBinomial;
  d.message = 4096;
  const double base = tuner.price(d);
  Rng rng(3);
  std::vector<int> mapping{0, 1, 2, 3, 4, 5, 6, 7};
  for (int trial = 0; trial < 5; ++trial) {
    // Random permutation of the non-root positions.
    for (std::size_t i = mapping.size() - 1; i > 1; --i)
      std::swap(mapping[i],
                mapping[std::size_t(rng.uniform_int(1, std::int64_t(i)))]);
    d.mapping = mapping;
    EXPECT_NEAR(tuner.price(d), base, 1e-12);
  }
}

TEST(Metamorphic, EstimationInvariantUnderExperimentOrder) {
  // Serial estimation visits pairs/triplets in a different order than the
  // parallel rounds; on a quiet cluster both recover identical parameters.
  auto cfg = sim::make_random_cluster(5, 1234);
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  World w1(cfg), w2(cfg);
  estimate::SimExperimenter e1(w1), e2(w2);
  estimate::LmoOptions par, ser;
  par.parallel = true;
  ser.parallel = false;
  const auto a = estimate::estimate_lmo(e1, par);
  const auto b = estimate::estimate_lmo(e2, ser);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(a.params.C[std::size_t(i)], b.params.C[std::size_t(i)], 1e-9);
    EXPECT_NEAR(a.params.t[std::size_t(i)], b.params.t[std::size_t(i)],
                1e-12);
  }
}

}  // namespace
}  // namespace lmo
