// Unit tests for the simnet library: engine, timeline, cluster, fabric.
#include <gtest/gtest.h>

#include <vector>

#include "simnet/cluster.hpp"
#include "simnet/engine.hpp"
#include "simnet/fabric.hpp"
#include "simnet/timeline.hpp"
#include "util/error.hpp"

#include "fixtures.hpp"

namespace lmo::sim {
namespace {

using namespace lmo::literals;

// ------------------------------------------------------------- Timeline ---

TEST(TimelineTest, FifoReservations) {
  Timeline t;
  EXPECT_EQ(t.reserve(0_us, 10_us), 0_us);
  EXPECT_EQ(t.next_free(), 10_us);
  // Second reservation queues behind the first even if requested earlier.
  EXPECT_EQ(t.reserve(5_us, 10_us), 10_us);
  EXPECT_EQ(t.next_free(), 20_us);
  // A late request starts at its own earliest.
  EXPECT_EQ(t.reserve(100_us, 1_us), 100_us);
}

TEST(TimelineTest, BusyAtAndReset) {
  Timeline t;
  (void)t.reserve(0_us, 10_us);
  EXPECT_TRUE(t.busy_at(5_us));
  EXPECT_FALSE(t.busy_at(10_us));
  t.reset();
  EXPECT_FALSE(t.busy_at(0_us));
}

// --------------------------------------------------------------- Engine ---

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(3_us, [&] { order.push_back(3); });
  e.schedule_at(1_us, [&] { order.push_back(1); });
  e.schedule_at(2_us, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 3_us);
}

TEST(EngineTest, TiesBreakByInsertionOrder) {
  Engine e;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    e.schedule_at(5_us, [&order, i] { order.push_back(i); });
  e.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[std::size_t(i)], i);
}

TEST(EngineTest, EventsMayScheduleEvents) {
  Engine e;
  int fired = 0;
  e.schedule_at(1_us, [&] {
    ++fired;
    e.schedule_after(1_us, [&] { ++fired; });
  });
  e.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 2_us);
}

TEST(EngineTest, RejectsPast) {
  Engine e;
  e.schedule_at(10_us, [] {});
  e.step();
  EXPECT_THROW(e.schedule_at(5_us, [] {}), Error);
}

TEST(EngineTest, ResetRejectsPendingEvents) {
  // Dropping pending events could strand suspended coroutines whose only
  // resume path lives in those events — reset() refuses; an explicit
  // discard_pending() destroys the events safely first.
  Engine e;
  e.schedule_at(10_us, [] {});
  EXPECT_THROW(e.reset(), Error);
  e.discard_pending();
  EXPECT_TRUE(e.empty());
  e.reset();
  EXPECT_EQ(e.now(), SimTime::zero());
}

TEST(EngineTest, ResetAfterDrainedRunRestartsClock) {
  Engine e;
  e.schedule_at(10_us, [] {});
  e.run();
  EXPECT_EQ(e.now(), 10_us);
  e.reset();
  EXPECT_EQ(e.now(), SimTime::zero());
  EXPECT_EQ(e.executed(), 0u);
}

// -------------------------------------------------------------- Cluster ---

TEST(ClusterTest, PaperClusterMatchesTableOne) {
  const ClusterConfig cfg = make_paper_cluster();
  EXPECT_EQ(cfg.size(), 16);
  // Table I counts: 2 + 6 + 2 + 1 + 1 + 1 + 3 nodes over 7 types.
  std::vector<int> per_type(8, 0);
  for (const auto& n : cfg.nodes) ++per_type[std::size_t(n.type)];
  EXPECT_EQ(per_type[1], 2);
  EXPECT_EQ(per_type[2], 6);
  EXPECT_EQ(per_type[3], 2);
  EXPECT_EQ(per_type[4], 1);
  EXPECT_EQ(per_type[5], 1);
  EXPECT_EQ(per_type[6], 1);
  EXPECT_EQ(per_type[7], 3);
}

TEST(ClusterTest, LatencySymmetricAndComposed) {
  const ClusterConfig cfg = make_paper_cluster();
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      if (i == j) continue;
      EXPECT_DOUBLE_EQ(cfg.latency(i, j), cfg.latency(j, i));
      EXPECT_GT(cfg.latency(i, j), cfg.switch_latency_s);
    }
}

TEST(ClusterTest, RateIsMinOfEndpoints) {
  ClusterConfig cfg = make_paper_cluster();
  cfg.nodes[0].link_rate_bps = 1e6;
  cfg.nodes[1].link_rate_bps = 9e6;
  EXPECT_DOUBLE_EQ(cfg.rate(0, 1), 1e6);
  EXPECT_DOUBLE_EQ(cfg.rate(1, 0), 1e6);
}

TEST(ClusterTest, GroundTruthMirrorsConfig) {
  const ClusterConfig cfg = make_paper_cluster();
  const GroundTruth gt = ground_truth(cfg);
  ASSERT_EQ(gt.C.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_DOUBLE_EQ(gt.C[std::size_t(i)], cfg.nodes[std::size_t(i)].fixed_delay_s);
    EXPECT_DOUBLE_EQ(gt.t[std::size_t(i)], cfg.nodes[std::size_t(i)].per_byte_s);
  }
  EXPECT_DOUBLE_EQ(gt.L(0, 1), cfg.latency(0, 1));
  EXPECT_DOUBLE_EQ(gt.inv_beta(2, 3), 1.0 / cfg.rate(2, 3));
}

TEST(ClusterTest, ValidationCatchesBadConfigs) {
  ClusterConfig cfg = make_paper_cluster();
  cfg.nodes[3].link_rate_bps = 0;
  EXPECT_THROW(cfg.validate(), Error);
  ClusterConfig one;
  one.nodes.resize(1);
  EXPECT_THROW(one.validate(), Error);
}

TEST(ClusterTest, RandomClusterInRanges) {
  const ClusterConfig cfg = make_random_cluster(12, 77);
  EXPECT_EQ(cfg.size(), 12);
  for (const auto& n : cfg.nodes) {
    EXPECT_GE(n.fixed_delay_s, 30e-6);
    EXPECT_LE(n.fixed_delay_s, 120e-6);
    EXPECT_GE(n.per_byte_s, 85e-9);
    EXPECT_LE(n.per_byte_s, 160e-9);
  }
}

// --------------------------------------------------------------- Fabric ---

ClusterConfig quiet_cluster(int n = 4) {
  // No noise, no quirks: timings must be exact.
  NodeParams node;
  node.fixed_delay_s = 50e-6;
  node.per_byte_s = 100e-9;
  node.link_rate_bps = 12.5e6;  // 100 Mbit => 80 ns/B
  node.latency_s = 20e-6;
  ClusterConfig cfg = test_support::make_homogeneous_cluster(n, node);
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  return cfg;
}

TEST(FabricTest, ExactCpuCosts) {
  const ClusterConfig cfg = quiet_cluster();
  Fabric f(cfg, cfg.seed);
  EXPECT_EQ(f.send_cpu_cost(0, 1000, false),
            SimTime::from_seconds(50e-6 + 1000 * 100e-9));
  EXPECT_EQ(f.recv_cpu_cost(1, 0), SimTime::from_seconds(50e-6));
}

TEST(FabricTest, TransferTiming) {
  const ClusterConfig cfg = quiet_cluster();
  Fabric f(cfg, cfg.seed);
  const Bytes n = 10000;
  const WireTiming w = f.transfer(0, 1, n, 100_us);
  const double wire = double(n) / cfg.rate(0, 1);
  EXPECT_EQ(w.egress_start, 100_us);
  EXPECT_EQ(w.egress_end, 100_us + SimTime::from_seconds(wire));
  EXPECT_EQ(w.arrival, 100_us + SimTime::from_seconds(cfg.latency(0, 1) + wire));
  EXPECT_EQ(w.escalation, SimTime::zero());
}

TEST(FabricTest, ZeroByteUsesMinimalFrame) {
  const ClusterConfig cfg = quiet_cluster();
  Fabric f(cfg, cfg.seed);
  const WireTiming w = f.transfer(0, 1, 0, SimTime::zero());
  EXPECT_GT(w.egress_end, w.egress_start);  // one 64-byte frame
}

TEST(FabricTest, EgressSerializesIngressSerializes) {
  const ClusterConfig cfg = quiet_cluster();
  Fabric f(cfg, cfg.seed);
  const Bytes n = 125000;  // 10 ms on the wire
  const WireTiming a = f.transfer(0, 1, n, SimTime::zero());
  const WireTiming b = f.transfer(0, 2, n, SimTime::zero());
  // Same egress port: b starts when a's last byte left.
  EXPECT_EQ(b.egress_start, a.egress_end);
  Fabric g(cfg, cfg.seed);
  const WireTiming c = g.transfer(0, 3, n, SimTime::zero());
  const WireTiming d = g.transfer(1, 3, n, SimTime::zero());
  // Same ingress port: d's reception queues behind c's.
  EXPECT_EQ(d.arrival, c.arrival + (c.arrival - SimTime::from_seconds(
                                        cfg.latency(0, 3))));
}

TEST(FabricTest, DisjointPairsDoNotInteract) {
  const ClusterConfig cfg = quiet_cluster(4);
  Fabric f(cfg, cfg.seed);
  const Bytes n = 125000;
  const WireTiming a = f.transfer(0, 1, n, SimTime::zero());
  const WireTiming b = f.transfer(2, 3, n, SimTime::zero());
  EXPECT_EQ(a.egress_start, b.egress_start);
  EXPECT_EQ(a.arrival, b.arrival);  // single switch: no cross contention
}

TEST(FabricTest, FragLeapOnlyWhenPipelinedAndBulk) {
  ClusterConfig cfg = quiet_cluster();
  cfg.quirks.enabled = true;
  cfg.quirks.frag_threshold = 64 * 1024;
  cfg.quirks.frag_leap_s = 1e-3;
  Fabric f(cfg, cfg.seed);
  const SimTime base = f.send_cpu_cost(0, 128 * 1024, false);
  const SimTime leaped = f.send_cpu_cost(0, 128 * 1024, true);
  EXPECT_EQ(leaped - base, 2_ms);  // two threshold crossings
  EXPECT_EQ(f.send_cpu_cost(0, 1024, true), f.send_cpu_cost(0, 1024, false));
  EXPECT_EQ(f.counters().leaps, 2u);
}

TEST(FabricTest, RendezvousThreshold) {
  ClusterConfig cfg = quiet_cluster();
  cfg.quirks.enabled = true;
  cfg.quirks.rendezvous_threshold = 64 * 1024;
  Fabric f(cfg, cfg.seed);
  EXPECT_FALSE(f.use_rendezvous(64 * 1024));
  EXPECT_TRUE(f.use_rendezvous(64 * 1024 + 1));
  cfg.quirks.enabled = false;
  Fabric g(cfg, cfg.seed);
  EXPECT_FALSE(g.use_rendezvous(1 << 30));
}

TEST(FabricTest, EscalationsRequireBandAndConvergingTraffic) {
  ClusterConfig cfg = quiet_cluster();
  cfg.quirks.enabled = true;
  cfg.quirks.escalation_min = 4 * 1024;
  cfg.quirks.rendezvous_threshold = 64 * 1024;
  cfg.quirks.escalation_peak_prob = 1.0;  // force whenever eligible
  Fabric f(cfg, cfg.seed);

  // Single flow: never escalates.
  const WireTiming solo = f.transfer(0, 1, 32 * 1024, SimTime::zero());
  EXPECT_EQ(solo.escalation, SimTime::zero());

  // Converging flows in the band: escalates (prob 1 at eligibility).
  f.begin_inflow(3);
  // Exactly at the top of the band the escalation probability is 1.
  const WireTiming hot = f.transfer(0, 3, 64 * 1024, SimTime::zero());
  EXPECT_GT(hot.escalation, SimTime::zero());
  EXPECT_LE(hot.escalation.seconds(), 0.25);
  EXPECT_GE(f.counters().escalations, 1u);

  // Below the band: never.
  const WireTiming tiny = f.transfer(1, 3, 1024, SimTime::zero());
  EXPECT_EQ(tiny.escalation, SimTime::zero());
}

TEST(FabricTest, NoiseIsOneSidedAndBounded) {
  ClusterConfig cfg = quiet_cluster();
  cfg.noise_rel = 0.05;
  Fabric f(cfg, cfg.seed);
  const double exact = 50e-6 + 1000 * 100e-9;
  for (int i = 0; i < 200; ++i) {
    const SimTime c = f.send_cpu_cost(0, 1000, false);
    EXPECT_GE(c.seconds(), exact);
    EXPECT_LE(c.seconds(), exact * 1.4);
  }
}

TEST(FabricTest, ResetTimelinesKeepsRngState) {
  ClusterConfig cfg = quiet_cluster();
  cfg.noise_rel = 0.05;
  Fabric f(cfg, cfg.seed);
  const SimTime first = f.send_cpu_cost(0, 1000, false);
  f.reset_timelines();
  const SimTime second = f.send_cpu_cost(0, 1000, false);
  // Noise stream advances across resets (almost surely different draws).
  EXPECT_NE(first, second);
}

TEST(FabricTest, InflowAccounting) {
  const ClusterConfig cfg = quiet_cluster();
  Fabric f(cfg, cfg.seed);
  f.begin_inflow(2);
  f.begin_inflow(2);
  EXPECT_NO_THROW(f.end_inflow(2));
  EXPECT_NO_THROW(f.end_inflow(2));
  EXPECT_THROW(f.end_inflow(2), Error);  // more ends than begins
}

TEST(FabricTest, RejectsSelfTransfer) {
  const ClusterConfig cfg = quiet_cluster();
  Fabric f(cfg, cfg.seed);
  EXPECT_THROW(f.transfer(1, 1, 10, SimTime::zero()), Error);
}

}  // namespace
}  // namespace lmo::sim
