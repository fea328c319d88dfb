// Tests for the collective algorithms over vmpi.
#include <gtest/gtest.h>

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

TEST(LinearScatter, RootSerialCpuDominates) {
  const int n = 8;
  World w(quiet_cluster(n));
  const Bytes m = 10000;
  const SimTime t = run_timed(w, 0, [m](Comm& c) {
    return linear_scatter(c, 0, m);
  });
  // Root-side time is exactly (n-1)(C + Mt): eager sends return at CPU
  // completion and the wire keeps up (t > 1/beta).
  EXPECT_NEAR(t.seconds(), 7 * (50e-6 + 1e4 * 100e-9), 1e-12);
}

TEST(LinearScatter, GlobalTimeIncludesTail) {
  const int n = 8;
  World w(quiet_cluster(n));
  const Bytes m = 10000;
  const SimTime root = run_timed(w, 0, [m](Comm& c) {
    return linear_scatter(c, 0, m);
  });
  const SimTime last = run_timed(w, n - 1, [m](Comm& c) {
    return linear_scatter(c, 0, m);
  });
  // The last receiver finishes after the root: + wire + latency + recv cpu.
  EXPECT_GT(last, root);
  const double tail = 50e-6 + 20e-6 + 10e-6 + 20e-6  /* L */
                      + 1e4 * 80e-9                  /* wire */
                      + 1e4 * 100e-9;                /* recv per-byte */
  EXPECT_NEAR(last.seconds(), root.seconds() + tail, 1e-9);
}

TEST(LinearGather, RootReceivesAll) {
  const int n = 6;
  World w(quiet_cluster(n));
  const Bytes m = 5000;
  const SimTime t = run_timed(w, 0, [m](Comm& c) {
    return linear_gather(c, 0, m);
  });
  // All senders overlap; root's receive processing serializes:
  // ~ first arrival + (n-1)(C + Mt). Check the dominant structure loosely.
  const double serial = 5 * (50e-6 + 5000 * 100e-9);
  EXPECT_GT(t.seconds(), serial);
  EXPECT_LT(t.seconds(), serial + 3e-3);
}

TEST(BinomialScatter, CompletesAndBeatsLinearForSmall) {
  const int n = 16;
  World w(quiet_cluster(n));
  const Bytes m = 256;  // small: latency/fixed-cost dominated
  const SimTime lin = run_timed(w, 0, [m](Comm& c) {
    return linear_scatter(c, 0, m);
  });
  const SimTime bin = run_timed(w, 0, [m](Comm& c) {
    return tree_scatter(c, trees::TreeKind::kBinomial, 0, m);
  });
  // 15 serialized root sends vs. 4 rounds: binomial wins for small blocks.
  EXPECT_LT(bin, lin);
}

TEST(BinomialScatter, LosesToLinearForLargeOnSwitchedCluster) {
  const int n = 16;
  World w(quiet_cluster(n));
  const Bytes m = 50000;
  const SimTime lin = run_timed(w, 0, [m](Comm& c) {
    return linear_scatter(c, 0, m);
  });
  // Global completion (all ranks), not just root-side.
  SimTime lin_all = w.run(spmd(n, [m](Comm& c) {
    return linear_scatter(c, 0, m);
  }));
  SimTime bin_all = w.run(spmd(n, [m](Comm& c) {
    return tree_scatter(c, trees::TreeKind::kBinomial, 0, m);
  }));
  // The binomial tree retransmits blocks (n-1 + extra hops): on a switched
  // cluster with per-byte processor costs it loses for large messages —
  // the Fig. 6 effect.
  EXPECT_GT(bin_all, lin_all);
  EXPECT_GT(lin_all, lin);  // sanity: global >= root-side
}

TEST(BinomialScatter, NonPowerOfTwo) {
  for (int n : {3, 5, 6, 7, 12, 13}) {
    World w(quiet_cluster(n));
    const SimTime t = run_timed(w, 0, [](Comm& c) {
      return tree_scatter(c, trees::TreeKind::kBinomial, 0, 1000);
    });
    EXPECT_GT(t, SimTime::zero()) << "n=" << n;
  }
}

TEST(BinomialScatter, NonZeroRootWorks) {
  const int n = 8;
  World w(quiet_cluster(n));
  for (int root : {1, 3, 7}) {
    const SimTime t = run_timed(w, root, [root](Comm& c) {
      return tree_scatter(c, trees::TreeKind::kBinomial, root, 2000);
    });
    EXPECT_GT(t, SimTime::zero());
  }
}

TEST(BinomialGather, MirrorsScatterOnQuietCluster) {
  const int n = 16;
  World w(quiet_cluster(n));
  const Bytes m = 4000;
  const SimTime sc = w.run(spmd(n, [m](Comm& c) {
    return tree_scatter(c, trees::TreeKind::kBinomial, 0, m);
  }));
  const SimTime ga = w.run(spmd(n, [m](Comm& c) {
    return tree_gather(c, trees::TreeKind::kBinomial, 0, m);
  }));
  // Same tree, same message sizes, reversed direction: comparable times.
  EXPECT_NEAR(ga.seconds(), sc.seconds(), 0.5 * sc.seconds());
}

TEST(BinomialGather, NonPowerOfTwoAndRoots) {
  for (int n : {3, 6, 11}) {
    World w(quiet_cluster(n));
    for (int root : {0, n - 1}) {
      const SimTime t = run_timed(w, root, [root](Comm& c) {
        return tree_gather(c, trees::TreeKind::kBinomial, root, 512);
      });
      EXPECT_GT(t, SimTime::zero()) << "n=" << n << " root=" << root;
    }
  }
}

TEST(BinomialScatter, CustomMappingChangesTiming) {
  // Heterogeneous cluster: placing the slow node deep vs. shallow changes
  // the completion time.
  auto cfg = quiet_cluster(8);
  cfg.nodes[7].fixed_delay_s = 500e-6;  // very slow processor
  cfg.nodes[7].per_byte_s = 500e-9;
  World w(cfg);
  const Bytes m = 20000;
  // Default mapping: processor 7 is a leaf (virtual 7).
  SimTime leaf_time = w.run(spmd(8, [m](Comm& c) {
    return tree_scatter(c, trees::TreeKind::kBinomial, 0, m);
  }));
  // Mapping that puts processor 7 at virtual rank 4 (an inner node).
  std::vector<int> mapping{0, 1, 2, 3, 7, 5, 6, 4};
  SimTime inner_time = w.run(spmd(8, [m, mapping](Comm& c) {
    return tree_scatter(c, trees::TreeKind::kBinomial, 0, m, mapping);
  }));
  EXPECT_GT(inner_time, leaf_time);
}

TEST(SplitGather, ManyChunksPayFixedOverheads) {
  const int n = 6;
  World w(quiet_cluster(n));
  const Bytes m = 4000;
  const SimTime whole = run_timed(w, 0, [m](Comm& c) {
    return linear_gather(c, 0, m);
  });
  const SimTime split = run_timed(w, 0, [m](Comm& c) {
    return split_gather(c, 0, m, 500);  // 8 chunks: 7 extra C per sender
  });
  // Without escalations to dodge, the extra (series-1)(n-1) fixed
  // processing delays outweigh the shorter pipeline fill.
  EXPECT_GT(split, whole);
}

TEST(SplitGather, ChunkLargerThanBlockEqualsOneGather) {
  const int n = 4;
  World w(quiet_cluster(n));
  const SimTime a = run_timed(w, 0, [](Comm& c) {
    return linear_gather(c, 0, 1000);
  });
  const SimTime b = run_timed(w, 0, [](Comm& c) {
    return split_gather(c, 0, 1000, 1 << 20);
  });
  EXPECT_EQ(a, b);
}

TEST(Bcast, BinomialBeatsLinearForManyRanks) {
  const int n = 16;
  World w(quiet_cluster(n));
  const Bytes m = 1000;
  const SimTime lin = w.run(spmd(n, [m](Comm& c) {
    return tree_bcast(c, trees::TreeKind::kFlat, 0, m);
  }));
  const SimTime bin = w.run(spmd(n, [m](Comm& c) {
    return tree_bcast(c, trees::TreeKind::kBinomial, 0, m);
  }));
  EXPECT_LT(bin, lin);
}

TEST(Bcast, NonZeroRoot) {
  const int n = 7;
  World w(quiet_cluster(n));
  const SimTime t = w.run(spmd(n, [](Comm& c) {
    return tree_bcast(c, trees::TreeKind::kBinomial, 3, 800);
  }));
  EXPECT_GT(t, SimTime::zero());
}

TEST(RunTimed, TimedRankSelectsMeasurementPoint) {
  const int n = 4;
  World w(quiet_cluster(n));
  const SimTime at_root = run_timed(w, 0, [](Comm& c) {
    return linear_scatter(c, 0, 1000);
  });
  const SimTime at_leaf = run_timed(w, 3, [](Comm& c) {
    return linear_scatter(c, 0, 1000);
  });
  EXPECT_NE(at_root, at_leaf);
}

}  // namespace
}  // namespace lmo::coll
