// Tests for the extension predictions (bcast/reduce/allgather, and the
// tuner's mapping optimization) — each validated against the simulator,
// plus World tracing.
#include <gtest/gtest.h>

#include <cmath>

#include "coll/collectives.hpp"
#include "coll/zoo.hpp"
#include "core/predictions.hpp"
#include "core/tuner.hpp"
#include "simnet/cluster.hpp"
#include "vmpi/world.hpp"

namespace lmo::core {
namespace {

using vmpi::Comm;
using vmpi::Task;
using vmpi::World;

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

sim::ClusterConfig quiet_paper() {
  auto cfg = sim::make_paper_cluster();
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  return cfg;
}

double observed(World& w, const std::function<Task(Comm&)>& body) {
  return w.run(coll::spmd(w.size(), body)).seconds();
}

/// The tuner's price of the unmapped binomial `kind` from root 0.
double binomial_price(const LmoParams& p, CollectiveKind kind, Bytes m) {
  TunedDecision d;
  d.kind = kind;
  d.algorithm = AlgorithmId::kBinomial;
  d.message = m;
  return Tuner(p, GatherEmpirical{}).price(d);
}

/// The binomial scatter from root 0 among the tuner's candidates: its
/// default-mapping price, and the climbed mapping with its price.
struct ClimbedMapping {
  double predicted_default = 0.0;
  std::vector<int> mapping;
  double predicted_optimized = 0.0;
};
ClimbedMapping climbed_binomial_scatter(const LmoParams& p, Bytes m) {
  ClimbedMapping plan;
  for (const TunedDecision& d : Tuner(p, GatherEmpirical{})
                                    .candidates(CollectiveKind::kScatter, 0, m)) {
    if (d.algorithm != AlgorithmId::kBinomial || d.segment != 0) continue;
    if (d.mapping.empty()) {
      plan.predicted_default = d.predicted_seconds;
    } else {
      plan.mapping = d.mapping;
      plan.predicted_optimized = d.predicted_seconds;
    }
  }
  return plan;
}

class CollectivePrediction
    : public ::testing::TestWithParam<Bytes> {};

TEST_P(CollectivePrediction, LinearBcastWithinTolerance) {
  const auto cfg = quiet_paper();
  const auto p = from_ground_truth(cfg);
  World w(cfg);
  const Bytes m = GetParam();
  const double obs = observed(w, [m](Comm& c) {
    return coll::tree_bcast(c, trees::TreeKind::kFlat, 0, m);
  });
  EXPECT_NEAR(linear_bcast_time(p, 0, m), obs, 0.10 * obs) << "m=" << m;
}

TEST_P(CollectivePrediction, BinomialBcastWithinTolerance) {
  const auto cfg = quiet_paper();
  const auto p = from_ground_truth(cfg);
  World w(cfg);
  const Bytes m = GetParam();
  const double obs = observed(w, [m](Comm& c) {
    return coll::tree_bcast(c, trees::TreeKind::kBinomial, 0, m);
  });
  EXPECT_NEAR(binomial_price(p, CollectiveKind::kBcast, m), obs, 0.15 * obs)
      << "m=" << m;
}

TEST_P(CollectivePrediction, LinearReduceWithinTolerance) {
  const auto cfg = quiet_paper();
  const auto p = from_ground_truth(cfg);
  World w(cfg);
  const Bytes m = GetParam();
  const double obs = observed(w, [m](Comm& c) {
    return coll::tree_reduce(c, trees::TreeKind::kFlat, 0, m);
  });
  EXPECT_NEAR(linear_reduce_time(p, 0, m), obs, 0.15 * obs) << "m=" << m;
}

TEST_P(CollectivePrediction, BinomialReduceWithinTolerance) {
  const auto cfg = quiet_paper();
  const auto p = from_ground_truth(cfg);
  World w(cfg);
  const Bytes m = GetParam();
  const double obs = observed(w, [m](Comm& c) {
    return coll::tree_reduce(c, trees::TreeKind::kBinomial, 0, m);
  });
  EXPECT_NEAR(binomial_price(p, CollectiveKind::kReduce, m), obs, 0.20 * obs)
      << "m=" << m;
}

TEST_P(CollectivePrediction, RingAllgatherUpperBoundIsh) {
  // The no-pipelining approximation over-estimates slightly; it must stay
  // within a factor and never undercut by more than 20%.
  const auto cfg = quiet_paper();
  const auto p = from_ground_truth(cfg);
  World w(cfg);
  const Bytes m = GetParam();
  const double obs = observed(w, [m](Comm& c) {
    return coll::ring_allgather(c, m);
  });
  const double pred = ring_allgather_time(p, m);
  EXPECT_GT(pred, 0.8 * obs) << "m=" << m;
  EXPECT_LT(pred, 2.0 * obs) << "m=" << m;
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivePrediction,
                         ::testing::Values(Bytes(1024), Bytes(8) * 1024,
                                           Bytes(32) * 1024));

TEST(MappingOptimization, ImprovesPredictionAndSimulation) {
  const auto cfg = quiet_paper();
  const auto p = from_ground_truth(cfg);
  World w(cfg);
  const Bytes m = 8 * 1024;
  const auto plan = climbed_binomial_scatter(p, m);
  EXPECT_LE(plan.predicted_optimized, plan.predicted_default);
  // The optimized mapping must also help (or at least not hurt) in the
  // simulator, not just under the model.
  const double obs_default = observed(w, [m](Comm& c) {
    return coll::tree_scatter(c, trees::TreeKind::kBinomial, 0, m);
  });
  const auto mapping = plan.mapping;
  const double obs_optimized = observed(w, [m, mapping](Comm& c) {
    return coll::tree_scatter(c, trees::TreeKind::kBinomial, 0, m, mapping);
  });
  EXPECT_LT(obs_optimized, obs_default * 1.02);
  // Root stays put.
  EXPECT_EQ(plan.mapping[0], 0);
}

TEST(MappingOptimization, MovesSlowNodeOffTheHeavyPath) {
  // The Celeron (physical rank 12) sits at virtual rank 12 by default,
  // an inner node relaying 4 blocks; the optimizer should demote it to a
  // cheaper position.
  const auto cfg = quiet_paper();
  const auto p = from_ground_truth(cfg);
  const auto plan = climbed_binomial_scatter(p, 16 * 1024);
  int celeron_virtual = -1;
  for (int v = 0; v < 16; ++v)
    if (plan.mapping[std::size_t(v)] == 12) celeron_virtual = v;
  ASSERT_NE(celeron_virtual, -1);
  // Virtual ranks with odd index are leaves (1 block).
  EXPECT_LT(trees::binomial_subtree_blocks(celeron_virtual, 16), 4);
}

TEST(Tracing, RecordsEveryScatterMessage) {
  const auto cfg = quiet_paper();
  World w(cfg);
  w.set_tracing(true);
  const Bytes m = 4096;
  w.run(coll::spmd(w.size(), [m](Comm& c) {
    return coll::linear_scatter(c, 0, m);
  }));
  const auto& trace = w.trace();
  ASSERT_EQ(trace.size(), 15u);
  for (const auto& t : trace) {
    EXPECT_EQ(t.src, 0);
    EXPECT_EQ(t.bytes, m);
    EXPECT_FALSE(t.rendezvous);
    EXPECT_LT(t.send_post, t.arrival);
    EXPECT_LT(t.arrival, t.recv_complete);
  }
}

TEST(Tracing, MarksRendezvousMessages) {
  auto cfg = quiet_paper();
  cfg.quirks.enabled = true;
  cfg.quirks.escalation_peak_prob = 0;
  cfg.quirks.frag_leap_s = 0;
  World w(cfg);
  w.set_tracing(true);
  auto programs = vmpi::idle_programs(w.size());
  programs[0] = [](Comm& c) -> Task { co_await c.send(1, 256 * 1024); };
  programs[1] = [](Comm& c) -> Task { co_await c.recv(0); };
  w.run(programs);
  ASSERT_EQ(w.trace().size(), 1u);
  EXPECT_TRUE(w.trace()[0].rendezvous);
}

TEST(Tracing, ResetsPerRunAndHonoursToggle) {
  const auto cfg = quiet_paper();
  World w(cfg);
  w.set_tracing(true);
  auto programs = vmpi::idle_programs(w.size());
  programs[0] = [](Comm& c) -> Task { co_await c.send(1, 10); };
  programs[1] = [](Comm& c) -> Task { co_await c.recv(0); };
  w.run(programs);
  EXPECT_EQ(w.trace().size(), 1u);
  w.run(programs);
  EXPECT_EQ(w.trace().size(), 1u);  // not cumulative
  w.set_tracing(false);
  w.run(programs);
  EXPECT_TRUE(w.trace().empty());
}

}  // namespace
}  // namespace lmo::core
