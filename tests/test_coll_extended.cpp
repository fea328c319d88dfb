// Tests for the extended collectives (reductions, ring allgather) and the
// nonblocking vmpi primitives they are built on.
#include <gtest/gtest.h>

#include <vector>

#include "coll/collectives.hpp"
#include "coll/zoo.hpp"
#include "simnet/cluster.hpp"
#include "util/error.hpp"
#include "vmpi/world.hpp"

#include "fixtures.hpp"

namespace lmo::coll {
namespace {

using test_support::run_timed;
using vmpi::Comm;
using vmpi::Task;
using vmpi::World;
using namespace lmo::literals;

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

// --------------------------------------------------- nonblocking basics ---

TEST(Nonblocking, IsendDoesNotBlockRank) {
  World w(quiet_cluster(4));
  SimTime after_isend, after_wait;
  auto programs = vmpi::idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    vmpi::Request r = c.isend(1, 50000);
    after_isend = c.now();
    co_await c.wait(r);
    after_wait = c.now();
  };
  programs[1] = [](Comm& c) -> Task { co_await c.recv(0); };
  w.run(programs);
  EXPECT_EQ(after_isend, SimTime::zero());  // posting costs no simulated time
  EXPECT_GT(after_wait, SimTime::zero());
}

TEST(Nonblocking, WaitReturnsBytes) {
  World w(quiet_cluster(4));
  Bytes got = 0;
  auto programs = vmpi::idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    vmpi::Request r = c.isend(1, 777);
    got = co_await c.wait(r);
  };
  programs[1] = [](Comm& c) -> Task { co_await c.recv(0); };
  w.run(programs);
  EXPECT_EQ(got, 777);
}

TEST(Nonblocking, RendezvousIsendCompletesAfterMatch) {
  auto cfg = quiet_cluster(4);
  cfg.quirks.enabled = true;
  cfg.quirks.escalation_peak_prob = 0;
  cfg.quirks.frag_leap_s = 0;
  World w(cfg);
  SimTime send_done;
  auto programs = vmpi::idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    vmpi::Request r = c.isend(1, 256 * 1024);  // rendezvous size
    co_await c.wait(r);
    send_done = c.now();
  };
  programs[1] = [](Comm& c) -> Task {
    co_await c.sleep(50_ms);
    co_await c.recv(0);
  };
  w.run(programs);
  EXPECT_GT(send_done, 50_ms);  // gated by the late receive
}

TEST(Nonblocking, ComputeChargesProcessingCost) {
  World w(quiet_cluster(4));
  SimTime t;
  auto programs = vmpi::idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    co_await c.compute(10000);
    t = c.now();
  };
  w.run(programs);
  EXPECT_EQ(t, SimTime::from_seconds(50e-6 + 10000 * 100e-9));
}

TEST(Nonblocking, WaitingTwiceOnACompletedRequestIsIdempotent) {
  World w(quiet_cluster(4));
  SimTime first, second;
  Bytes b1 = 0, b2 = 0;
  auto programs = vmpi::idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    vmpi::Request r = c.isend(1, 4321);
    b1 = co_await c.wait(r);
    first = c.now();
    b2 = co_await c.wait(r);  // already complete: no extra time
    second = c.now();
  };
  programs[1] = [](Comm& c) -> Task { co_await c.recv(0); };
  w.run(programs);
  EXPECT_EQ(b1, 4321);
  EXPECT_EQ(b2, 4321);
  EXPECT_EQ(first, second);
}

TEST(Nonblocking, WaitOnInvalidRequestThrows) {
  World w(quiet_cluster(4));
  auto programs = vmpi::idle_programs(4);
  programs[0] = [](Comm& c) -> Task {
    vmpi::Request r;
    EXPECT_THROW((void)c.wait(r), Error);
    co_return;
  };
  w.run(programs);
}

// ------------------------------------------------- extended collectives ---

TEST(Reduce, LinearIncludesCombineCost) {
  const int n = 5;
  World w(quiet_cluster(n));
  const Bytes m = 10000;
  const SimTime gather = run_timed(w, 0, [m](Comm& c) {
    return linear_gather(c, 0, m);
  });
  const SimTime reduce = run_timed(w, 0, [m](Comm& c) {
    return tree_reduce(c, trees::TreeKind::kFlat, 0, m);
  });
  // Reduce = gather + (n-1) combines of C + m t each.
  const double combine = 4 * (50e-6 + double(m) * 100e-9);
  EXPECT_NEAR(reduce.seconds(), gather.seconds() + combine, 1e-9);
}

TEST(Reduce, BinomialFewerRootCombines) {
  const int n = 16;
  World w(quiet_cluster(n));
  const Bytes m = 500;
  const SimTime lin = w.run(spmd(n, [m](Comm& c) {
    return tree_reduce(c, trees::TreeKind::kFlat, 0, m);
  }));
  const SimTime bin = w.run(spmd(n, [m](Comm& c) {
    return tree_reduce(c, trees::TreeKind::kBinomial, 0, m);
  }));
  // For small blocks the tree wins (log vs linear serialized combines).
  EXPECT_LT(bin, lin);
}

TEST(RingAllgather, CompletesAllRanks) {
  for (int n : {2, 3, 5, 8}) {
    World w(quiet_cluster(n));
    const SimTime t = w.run(spmd(n, [](Comm& c) {
      return ring_allgather(c, 1000);
    }));
    // n-1 steps, each at least one pt2pt: lower-bound sanity.
    const double step_min = 50e-6;  // one send cpu
    EXPECT_GT(t.seconds(), double(n - 1) * step_min) << "n=" << n;
  }
}

TEST(RingAllgather, SingleRankIsNoop) {
  // A 2-node world where only rank 0 participates... ring needs all ranks;
  // instead check the n == 1 early-return path via a 2-node cluster with a
  // one-rank communicator-equivalent: run the ring on all ranks of n = 2.
  World w(quiet_cluster(2));
  const SimTime t = w.run(spmd(2, [](Comm& c) {
    return ring_allgather(c, 0);  // zero-byte blocks still circulate
  }));
  EXPECT_GT(t, SimTime::zero());
}

TEST(RingAllgather, RendezvousSizesDoNotDeadlock) {
  const int n = 4;
  auto cfg = quiet_cluster(n);
  cfg.quirks.enabled = true;
  cfg.quirks.escalation_peak_prob = 0;
  cfg.quirks.frag_leap_s = 0;
  World w(cfg);
  const SimTime t = w.run(spmd(n, [](Comm& c) {
    return ring_allgather(c, 200 * 1024);
  }));
  EXPECT_GT(t, SimTime::zero());
}

}  // namespace
}  // namespace lmo::coll
