// Resource-tree topology tests: LCA routing, degenerate bit-identity with
// the flat single-switch configuration, metamorphic level-locality, the
// per-level LMO fit, hierarchy-aware mapping, and the v2 config format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "coll/zoo.hpp"
#include "core/lmo_model.hpp"
#include "core/predictions.hpp"
#include "core/tuner.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/suite.hpp"
#include "mpib/measure_options.hpp"
#include "simnet/cluster.hpp"
#include "simnet/config_io.hpp"
#include "simnet/topology.hpp"
#include "trees/mapping.hpp"
#include "util/error.hpp"
#include "vmpi/session.hpp"
#include "vmpi/world.hpp"

#include "fixtures.hpp"
#include "plan_reference.hpp"
#include "random_tree.hpp"

namespace lmo {
namespace {

using sim::Topology;
using sim::TopologyLevel;

TopologyLevel level(const std::string& name, double fwd, double bw = 0.0,
                    bool contended = false) {
  TopologyLevel l;
  l.name = name;
  l.forward_latency_s = fwd;
  l.bandwidth_bps = bw;
  l.contended = contended;
  return l;
}

/// 2 nodes x 3 cores: ranks {0,1,2} on node 0, {3,4,5} on node 1.
Topology two_level_tree() {
  return Topology::balanced({3, 2}, {level("node", 1e-6, 0.0, true),
                                     level("switch", 10e-6, 12.5e6, false)});
}

/// 2 switches x 2 nodes x 2 cores (8 ranks, block placement).
Topology three_level_tree() {
  return Topology::balanced({2, 2, 2},
                            {level("node", 1e-6, 0.0, true),
                             level("switch", 10e-6, 12.5e6, false),
                             level("uplink", 15e-6, 6.25e6, true)});
}

// --- LCA routing -----------------------------------------------------------

TEST(TopologyTest, LcaAndPathOnTwoLevelTree) {
  const auto topo = two_level_tree();
  EXPECT_EQ(topo.depth(), 2);
  EXPECT_EQ(topo.ranks(), 6);
  EXPECT_EQ(topo.lca_level(0, 2), 1);  // same node
  EXPECT_EQ(topo.lca_level(0, 3), 2);  // across the switch
  EXPECT_EQ(topo.lca_level(4, 5), 1);
  // Same node: one traversal of the node switch.
  EXPECT_DOUBLE_EQ(topo.path_forward_latency(0, 2), 1e-6);
  // Cross node: up through the node switch, across the switch, down
  // through the peer's node switch.
  EXPECT_DOUBLE_EQ(topo.path_forward_latency(0, 3), 2 * 1e-6 + 10e-6);
}

TEST(TopologyTest, LcaAndPathOnThreeLevelTree) {
  const auto topo = three_level_tree();
  EXPECT_EQ(topo.depth(), 3);
  EXPECT_EQ(topo.ranks(), 8);
  EXPECT_EQ(topo.lca_level(0, 1), 1);  // same node
  EXPECT_EQ(topo.lca_level(0, 2), 2);  // same switch, different node
  EXPECT_EQ(topo.lca_level(0, 4), 3);  // across the uplink
  EXPECT_EQ(topo.lca_level(6, 7), 1);
  EXPECT_DOUBLE_EQ(topo.path_forward_latency(0, 4),
                   2 * 1e-6 + 2 * 10e-6 + 15e-6);
}

TEST(TopologyTest, PathRateCapTakesTheTightestCrossedLevel) {
  const auto topo = three_level_tree();
  // Intra-node: no capped level crossed, the endpoint rate stands.
  EXPECT_DOUBLE_EQ(topo.path_rate_cap(200e6, 0, 1), 200e6);
  // Same switch: capped at the switch level.
  EXPECT_DOUBLE_EQ(topo.path_rate_cap(200e6, 0, 2), 12.5e6);
  // Across the uplink: the uplink is tighter than the switch.
  EXPECT_DOUBLE_EQ(topo.path_rate_cap(200e6, 0, 4), 6.25e6);
  // A slower endpoint is never sped up by a generous level cap.
  EXPECT_DOUBLE_EQ(topo.path_rate_cap(1e6, 0, 4), 1e6);
}

TEST(TopologyTest, ContendedSegmentsFollowThePath) {
  const auto topo = three_level_tree();
  std::vector<std::pair<int, int>> segs;
  topo.for_each_contended_segment(0, 4, [&](int l, int g) {
    segs.push_back({l, g});
  });
  // src node up (level 1, group 0), the contended uplink LCA (level 3),
  // dst node down (level 1, group 2). The uncontended switch level is
  // skipped on both sides.
  const std::vector<std::pair<int, int>> want = {{1, 0}, {3, 0}, {1, 2}};
  EXPECT_EQ(segs, want);

  segs.clear();
  topo.for_each_contended_segment(0, 1, [&](int l, int g) {
    segs.push_back({l, g});
  });
  const std::vector<std::pair<int, int>> intra = {{1, 0}};
  EXPECT_EQ(segs, intra);
}

TEST(TopologyTest, PathsConflictOnSharedContendedSwitches) {
  // The planner's conflict rule, stated over for_each_contended_segment.
  const auto topo = three_level_tree();
  const auto conflict = [&](int i1, int j1, int i2, int j2) {
    return reference::paths_conflict(topo, i1, j1, i2, j2);
  };
  // Same node bus.
  EXPECT_TRUE(conflict(0, 1, 0, 1));
  // 0->2 and 1->3 both climb node 0's bus and descend node 1's.
  EXPECT_TRUE(conflict(0, 2, 1, 3));
  // Disjoint switches, no uplink crossing: no shared contended segment.
  EXPECT_FALSE(conflict(0, 1, 4, 5));
  EXPECT_FALSE(conflict(0, 2, 4, 6));
  // Two uplink crossings share the single contended uplink switch.
  EXPECT_TRUE(conflict(0, 4, 2, 6));
}

TEST(TopologyTest, SingleSwitchIsDegenerate) {
  const auto topo = test_support::single_switch(4, 10e-6);
  EXPECT_EQ(topo.depth(), 1);
  EXPECT_EQ(topo.ranks(), 4);
  EXPECT_EQ(topo.lca_level(0, 3), 1);
  EXPECT_DOUBLE_EQ(topo.path_forward_latency(0, 3), 10e-6);
  EXPECT_DOUBLE_EQ(topo.path_rate_cap(12.5e6, 0, 3), 12.5e6);
  EXPECT_FALSE(topo.any_contended());
  EXPECT_FALSE(topo.constrains_concurrency());
}

TEST(TopologyTest, ValidateNamesTheOffendingLevel) {
  auto bad = level("node", -1e-6);
  try {
    (void)Topology::balanced({2, 2}, {bad, level("switch", 1e-6)});
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("topology.levels[0]"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("node"), std::string::npos);
  }
}

TEST(TopologyTest, ValidateRejectsMalformedPlacement) {
  // Top level must be a single group.
  EXPECT_THROW((void)Topology::custom({level("switch", 1e-6)}, {{0, 0, 1}}),
               Error);
  // Groups must coarsen monotonically: ranks 0,1 share a node but land on
  // different "switches".
  EXPECT_THROW((void)Topology::custom(
                   {level("node", 1e-6), level("switch", 1e-6)},
                   {{0, 0, 1}, {0, 1, 1}}),
               Error);
  // Placement width must match the rank count.
  auto topo = two_level_tree();
  EXPECT_THROW(topo.validate(7), Error);
}

// --- Degenerate and deep trees through validate() --------------------------

TEST(TopologyValidateTest, OneLevelTreeIsValidAndRoutesTrivially) {
  auto topo = test_support::single_switch(2, 5e-6);
  topo.validate(2);  // must not throw
  EXPECT_EQ(topo.depth(), 1);
  EXPECT_EQ(topo.lca_level(0, 1), 1);
  EXPECT_DOUBLE_EQ(topo.path_forward_latency(0, 1), 5e-6);
}

TEST(TopologyValidateTest, SingleChildChainValidates) {
  // Every level has exactly one child: 1 rank wrapped in 3 nested groups.
  auto topo = Topology::balanced(
      {1, 1, 1}, {level("core", 1e-6), level("node", 2e-6),
                  level("switch", 3e-6)});
  topo.validate(1);
  EXPECT_EQ(topo.depth(), 3);
  EXPECT_EQ(topo.ranks(), 1);
  for (int l = 1; l <= 3; ++l) EXPECT_EQ(topo.group_count(l), 1);
}

TEST(TopologyValidateTest, DeepSixtyFourLevelChainRoutesThroughTheTop) {
  // 63 single-child levels under a fanout-2 root: 2 ranks whose LCA is
  // the 64th level. Exercises the level-major placement array and the
  // precomputed path-latency prefix at a depth no real cluster reaches.
  std::vector<int> fanout(64, 1);
  fanout.back() = 2;
  std::vector<TopologyLevel> levels;
  double below_root = 0.0;
  for (int l = 1; l <= 64; ++l) {
    levels.push_back(level("l" + std::to_string(l), 1e-7 * l));
    if (l < 64) below_root += 1e-7 * l;
  }
  auto topo = Topology::balanced(fanout, std::move(levels));
  topo.validate(2);
  EXPECT_EQ(topo.depth(), 64);
  EXPECT_EQ(topo.ranks(), 2);
  EXPECT_EQ(topo.lca_level(0, 1), 64);
  // One switch per level below the root on each side plus the root.
  EXPECT_NEAR(topo.path_forward_latency(0, 1), 2 * below_root + 1e-7 * 64,
              1e-12);
  EXPECT_DOUBLE_EQ(topo.level_path_latency(64),
                   topo.path_forward_latency(0, 1));
}

TEST(TopologyValidateTest, DeepChainRejectsInteriorFanoutMismatch) {
  // A multi-level chain whose interior placement holds an out-of-range
  // group id must be rejected with the level named, same as shallow trees.
  std::vector<std::vector<int>> place(3, std::vector<int>(2, 0));
  place[0] = {0, 1};
  place[1] = {0, 2};  // group id 2 with only 2 ranks: out of range
  place[2] = {0, 0};
  try {
    (void)Topology::custom({level("a", 1e-6), level("b", 1e-6),
                            level("c", 1e-6)},
                           std::move(place));
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("topology"), std::string::npos)
        << e.what();
  }
}

// --- Degenerate-tree bit-identity ------------------------------------------

TEST(TopologyDegenerateTest, ClusterFormulasBitIdentical) {
  const auto flat = sim::make_random_cluster(4, /*seed=*/77);
  auto deg = flat;
  deg.topology =
      test_support::single_switch(flat.size(), flat.switch_latency_s);
  deg.validate();
  for (int i = 0; i < flat.size(); ++i)
    for (int j = 0; j < flat.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(flat.latency(i, j), deg.latency(i, j)) << i << "," << j;
      EXPECT_EQ(flat.rate(i, j), deg.rate(i, j)) << i << "," << j;
      EXPECT_EQ(flat.lca_level(i, j), 1);
      EXPECT_EQ(deg.lca_level(i, j), 1);
    }
}

estimate::SuiteOptions quick_suite_options() {
  estimate::SuiteOptions opts;
  opts.plogp.max_size = 2048;
  opts.plogp.tolerance = 1e9;
  opts.plogp.saturation_count = 8;
  opts.loggp.small_size = 1024;
  opts.loggp.large_size = 2048;
  opts.loggp.saturation_count = 8;
  opts.empirical.observations_per_size = 3;
  opts.empirical.sizes = {16 * 1024};
  return opts;
}

/// Suite estimation through a store; `degenerate` swaps the flat cluster
/// for its explicit single-switch tree — every byte downstream must match.
std::string run_store_dump(bool degenerate, int jobs, bool faults) {
  auto cfg = sim::make_random_cluster(4, /*seed=*/77);
  if (degenerate)
    cfg.topology =
        test_support::single_switch(cfg.size(), cfg.switch_latency_s);
  vmpi::World world(cfg);
  mpib::MeasureOptions measure;
  measure.min_reps = 3;
  measure.max_reps = 8;
  measure.jobs = jobs;
  if (faults) {
    measure.fault.spike_rate = 0.05;
    measure.fault.drop_rate = 0.02;
    measure.fault.seed = 99;
  }
  estimate::SimExperimenter ex(world, measure);
  // The degenerate tree must not even register as a topology: planning,
  // packing and key levels all stay on the flat code path.
  EXPECT_EQ(ex.topology(), nullptr);
  estimate::MeasurementStore store;
  const auto report =
      estimate::estimate_model_suite(ex, store, quick_suite_options());
  EXPECT_TRUE(report.lmo.params.per_level.empty());
  return store.to_json().dump();
}

TEST(TopologyDegenerateTest, SuiteStoreBitIdenticalSerial) {
  EXPECT_EQ(run_store_dump(false, 1, false), run_store_dump(true, 1, false));
}

TEST(TopologyDegenerateTest, SuiteStoreBitIdenticalJobs4) {
  EXPECT_EQ(run_store_dump(false, 4, false), run_store_dump(true, 4, false));
}

TEST(TopologyDegenerateTest, SuiteStoreBitIdenticalUnderFaults) {
  EXPECT_EQ(run_store_dump(false, 1, true), run_store_dump(true, 1, true));
  EXPECT_EQ(run_store_dump(false, 4, true), run_store_dump(true, 4, true));
}

// --- Metamorphic level locality --------------------------------------------

/// One-shot ping time src -> dst of `m` bytes on a fresh session.
double ping_time(const sim::ClusterConfig& cfg, int src, int dst, Bytes m) {
  auto shared = std::make_shared<const sim::ClusterConfig>(cfg);
  vmpi::SimSession sess(shared, /*seed=*/42);
  auto programs = vmpi::idle_programs(cfg.size());
  programs[std::size_t(src)] = [dst, m](vmpi::Comm& c) -> vmpi::Task {
    co_await c.send(dst, m);
  };
  programs[std::size_t(dst)] = [src](vmpi::Comm& c) -> vmpi::Task {
    co_await c.recv(src);
  };
  sess.run(programs);
  return sess.rank_time(dst).seconds();
}

TEST(TopologyMetamorphicTest, ScalingOneLevelIsLocalToPathsCrossingIt) {
  // 2 switches x 2 nodes x 2 cores; noise off so "unchanged" means
  // bit-identical, not merely statistically indistinguishable.
  auto base = sim::make_multicore_cluster(2, 2, 2);
  base.noise_rel = 0.0;
  auto squeezed = base;  // halve the uplink (level 3) bandwidth
  {
    auto levels = std::vector<TopologyLevel>();
    for (int l = 1; l <= base.topology.depth(); ++l)
      levels.push_back(base.topology.level(l));
    levels[2].bandwidth_bps /= 2;
    std::vector<std::vector<int>> groups;
    for (int l = 1; l <= base.topology.depth(); ++l) {
      std::vector<int> g;
      for (int r = 0; r < base.topology.ranks(); ++r)
        g.push_back(base.topology.group(l, r));
      groups.push_back(std::move(g));
    }
    squeezed.topology = Topology::custom(std::move(levels), std::move(groups));
  }
  squeezed.validate();

  const Bytes m = 256 * 1024;
  const int n = base.size();
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const bool crosses = base.topology.lca_level(i, j) == 3;
      // Model level: the analytic pair parameters obey the same locality.
      EXPECT_EQ(base.latency(i, j), squeezed.latency(i, j));
      if (crosses)
        EXPECT_GT(base.rate(i, j), squeezed.rate(i, j));
      else
        EXPECT_EQ(base.rate(i, j), squeezed.rate(i, j));
      // Simulation level: squeezing the uplink never speeds anything up,
      // leaves non-crossing transfers bit-identical, and strictly slows
      // crossing ones.
      const double before = ping_time(base, i, j, m);
      const double after = ping_time(squeezed, i, j, m);
      if (crosses)
        EXPECT_GT(after, before) << i << "->" << j;
      else
        EXPECT_EQ(after, before) << i << "->" << j;
    }
}

// --- Per-level LMO fit ------------------------------------------------------

TEST(TopologyFitTest, TwoLevelMulticoreFitsDistinctPerLevelParameters) {
  const auto cfg = sim::make_multicore_cluster(1, 3, 2);  // 6 ranks, 2 levels
  vmpi::World world(cfg);
  estimate::SimExperimenter ex(world);
  ASSERT_NE(ex.topology(), nullptr);
  const auto rep = estimate::estimate_lmo(ex);
  const auto gt = sim::ground_truth_per_level(cfg);
  ASSERT_EQ(gt.size(), 2u);
  ASSERT_EQ(rep.params.per_level.size(), 2u);

  for (std::size_t lv = 0; lv < gt.size(); ++lv) {
    const auto& fit = rep.params.per_level[lv];
    EXPECT_EQ(fit.pairs, gt[lv].pairs);
    // A zero-byte probe still moves one minimal Ethernet frame, so the
    // fitted latency absorbs the frame's wire time at the level's rate
    // (same absorption the flat estimator shows).
    const double expect_L = gt[lv].L + 64.0 * gt[lv].inv_beta;
    EXPECT_NEAR(fit.L, expect_L, 0.10 * expect_L) << "level " << lv + 1;
    EXPECT_NEAR(fit.inv_beta, gt[lv].inv_beta, 0.10 * gt[lv].inv_beta)
        << "level " << lv + 1;
  }
  // The levels are genuinely distinct: the switch level is far slower than
  // the intra-node memory bus in latency, and twice as slow per byte.
  EXPECT_GT(rep.params.per_level[1].L, 3.0 * rep.params.per_level[0].L);
  EXPECT_GT(rep.params.per_level[1].inv_beta,
            1.5 * rep.params.per_level[0].inv_beta);
}

TEST(TopologyFitTest, PricedByPathCollapsesPairsOntoLevels) {
  const auto cfg = sim::make_multicore_cluster(1, 2, 2);  // 4 ranks
  core::LmoParams p;
  const auto gt = sim::ground_truth(cfg);
  p.C = gt.C;
  p.t = gt.t;
  p.L = models::PairTable(cfg.size());
  p.inv_beta = models::PairTable(cfg.size());
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      if (i == j) continue;
      p.L(i, j) = gt.L(i, j);
      p.inv_beta(i, j) = gt.inv_beta(i, j);
    }
  core::LevelLink node_link, switch_link;
  node_link.L = 1e-6;
  node_link.inv_beta = 1e-8;
  switch_link.L = 2e-5;
  switch_link.inv_beta = 8e-8;
  p.per_level = {node_link, switch_link};

  const auto priced = core::priced_by_path(p, cfg.topology);
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      if (i == j) continue;
      const auto& link =
          p.per_level[std::size_t(cfg.topology.lca_level(i, j) - 1)];
      EXPECT_EQ(priced.L(i, j), link.L);
      EXPECT_EQ(priced.inv_beta(i, j), link.inv_beta);
    }
  // Processor terms pass through untouched.
  EXPECT_EQ(priced.C, p.C);
  EXPECT_EQ(priced.t, p.t);
}

// --- Hierarchy-aware mapping ------------------------------------------------

TEST(TopologyMappingTest, HierarchyMappingBeatsFlatPlacementOnBcast) {
  // Cyclic placement: consecutive ranks land on different nodes and
  // switches — the worst case for the default (v + root) mod n mapping.
  // Three nodes per switch keep the node count off the binomial tree's
  // power-of-two strides; with an aligned shape the flat mapping's deepest
  // chain happens to cross each level exactly once too and the costs tie.
  // Here the flat mapping takes 5 contended uplink crossings against the
  // hierarchy mapping's 2.
  auto cfg = sim::make_multicore_cluster(2, 3, 2, /*seed=*/1,
                                         sim::Placement::kCyclic);
  cfg.noise_rel = 0.0;
  const int root = 0;
  const Bytes m = 64 * 1024;

  const auto mapping = trees::hierarchy_mapping(cfg.topology, root);
  ASSERT_EQ(int(mapping.size()), cfg.size());
  EXPECT_EQ(mapping[0], root);

  // Predicted (model) cost, with pair parameters from ground truth.
  const auto gt = sim::ground_truth(cfg);
  core::LmoParams p;
  p.C = gt.C;
  p.t = gt.t;
  p.L = models::PairTable(cfg.size());
  p.inv_beta = models::PairTable(cfg.size());
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      if (i == j) continue;
      p.L(i, j) = gt.L(i, j);
      p.inv_beta(i, j) = gt.inv_beta(i, j);
    }
  const core::Tuner tuner(p, core::GatherEmpirical{});
  core::TunedDecision d;
  d.kind = core::CollectiveKind::kBcast;
  d.algorithm = core::AlgorithmId::kBinomial;
  d.root = root;
  d.message = m;
  const double pred_flat = tuner.price(d);
  d.mapping = mapping;
  const double pred_topo = tuner.price(d);
  EXPECT_LT(pred_topo, pred_flat);

  // Simulated cost on the contended fabric. Time the whole round, not the
  // root: the root hands its sends to the buffered fabric and returns
  // early, so only global completion reflects the mapping.
  auto shared = std::make_shared<const sim::ClusterConfig>(cfg);
  auto simulate = [&](const std::vector<int>& map) {
    vmpi::SimSession sess(shared, /*seed=*/7);
    return sess.run(coll::spmd(cfg.size(), [&](vmpi::Comm& c) {
      return coll::tree_bcast(c, trees::TreeKind::kBinomial, root, m, map);
    })).seconds();
  };
  const double sim_flat = simulate({});
  const double sim_topo = simulate(mapping);
  EXPECT_LT(sim_topo, sim_flat);
}

// --- v2 config serialization ------------------------------------------------

TEST(TopologyIoTest, JsonRoundTripIsBitExact) {
  const auto cfg = sim::make_multicore_cluster(2, 2, 2);
  const auto dumped = sim::to_json(cfg).dump(2);
  const auto back = sim::cluster_from_json(obs::Json::parse(dumped));
  EXPECT_EQ(sim::to_json(back).dump(2), dumped);
  EXPECT_TRUE(back.topology == cfg.topology);
  EXPECT_EQ(back.size(), cfg.size());
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      if (i == j) continue;
      EXPECT_EQ(back.latency(i, j), cfg.latency(i, j));
      EXPECT_EQ(back.rate(i, j), cfg.rate(i, j));
    }
}

TEST(TopologyIoTest, FlatConfigsRoundTripThroughJsonByteForByte) {
  const auto cfg = sim::make_random_cluster(3, /*seed=*/5);
  const std::string text = sim::to_json(cfg).dump(2);
  EXPECT_EQ(text.find("\"topology\""), std::string::npos);
  const auto back = sim::cluster_from_json(obs::Json::parse(text));
  EXPECT_TRUE(back.topology.empty());
  EXPECT_EQ(sim::to_json(back).dump(2), text);
}

TEST(TopologyIoTest, FileRoundTripPicksFormatBySniffing) {
  const auto cfg = sim::make_multicore_cluster(1, 2, 2);
  const std::string path = ::testing::TempDir() + "topo_cluster.json";
  sim::save_cluster(cfg, path);
  const auto back = sim::load_cluster(path);
  EXPECT_TRUE(back.topology == cfg.topology);
  EXPECT_EQ(sim::to_json(back).dump(), sim::to_json(cfg).dump());
  // Anything that does not start like a JSON document is refused by name.
  std::ofstream(path) << "[cluster]\nseed = 1\n";
  EXPECT_THROW((void)sim::load_cluster(path), Error);
  std::remove(path.c_str());
}

TEST(TopologyIoTest, ParseErrorsNameTheFieldPath) {
  const auto cfg = sim::make_multicore_cluster(1, 2, 2);
  const auto valid = sim::to_json(cfg);

  // Rebuild the document with the switch level's bandwidth negated; the
  // parser must name the exact field path.
  obs::Json doc = obs::Json::object();
  doc["schema"] = valid.at("schema");
  doc["cluster"] = valid.at("cluster");
  doc["quirks"] = valid.at("quirks");
  doc["profiles"] = valid.at("profiles");
  doc["profile_of"] = valid.at("profile_of");
  obs::Json levels = obs::Json::array();
  for (int l = 1; l <= cfg.topology.depth(); ++l) {
    const auto& lv = cfg.topology.level(l);
    obs::Json jl = obs::Json::object();
    jl["name"] = lv.name;
    jl["forward_latency_s"] = lv.forward_latency_s;
    jl["bandwidth_bps"] = l == 2 ? -1.0 : lv.bandwidth_bps;
    jl["contended"] = lv.contended;
    levels.push_back(std::move(jl));
  }
  obs::Json topo = obs::Json::object();
  topo["levels"] = std::move(levels);
  topo["fanout"] = valid.at("topology").at("fanout");
  doc["topology"] = std::move(topo);
  try {
    (void)sim::cluster_from_json(doc);
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("topology.levels[1]"), std::string::npos) << what;
    EXPECT_NE(what.find("bandwidth_bps"), std::string::npos) << what;
  }

  // A document with neither a profile table nor a nodes section fails
  // loudly, naming the missing field.
  obs::Json missing = obs::Json::object();
  missing["schema"] = valid.at("schema");
  missing["cluster"] = valid.at("cluster");
  missing["quirks"] = valid.at("quirks");
  missing["topology"] = valid.at("topology");
  try {
    (void)sim::cluster_from_json(missing);
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nodes"), std::string::npos)
        << e.what();
  }

  // A malformed run in the compact rank -> profile index names its entry.
  obs::Json bad_runs = obs::Json::object();
  bad_runs["schema"] = valid.at("schema");
  bad_runs["cluster"] = valid.at("cluster");
  bad_runs["quirks"] = valid.at("quirks");
  bad_runs["profiles"] = valid.at("profiles");
  obs::Json runs = obs::Json::array();
  runs.push_back(obs::Json::array());  // not an [index, count] pair
  bad_runs["profile_of"] = std::move(runs);
  try {
    (void)sim::cluster_from_json(bad_runs);
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("profile_of[0]"), std::string::npos)
        << e.what();
  }

  // A run count past the rank ceiling (or past int64) fails by name before
  // anything is allocated.
  for (const char* count : {"4000000000000", "1e300"}) {
    bad_runs["profile_of"] =
        obs::Json::parse(std::string("[[0, ") + count + "]]");
    try {
      (void)sim::cluster_from_json(bad_runs);
      FAIL() << "expected lmo::Error for count " << count;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("profile_of[0]"),
                std::string::npos)
          << e.what();
    }
  }

  // A fanout whose product passes the rank ceiling names the fanout field,
  // not Topology::balanced's internal check.
  ASSERT_GE(cfg.topology.depth(), 2);
  obs::Json huge = valid;
  obs::Json fanout = obs::Json::array();
  for (int l = 0; l < cfg.topology.depth(); ++l)
    fanout.push_back(l == 0 ? 4096 : l == 1 ? 8192 : 1);
  huge["topology"]["fanout"] = std::move(fanout);
  try {
    (void)sim::cluster_from_json(huge);
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("topology.fanout"), std::string::npos) << what;
    EXPECT_EQ(what.find("check failed"), std::string::npos) << what;
  }
}

TEST(TopologyIoTest, PairAccessorsNameTheOffendingPair) {
  const auto cfg = sim::make_random_cluster(3, /*seed=*/1);
  try {
    (void)cfg.latency(0, 7);
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("i=0"), std::string::npos) << what;
    EXPECT_NE(what.find("j=7"), std::string::npos) << what;
    EXPECT_NE(what.find('3'), std::string::npos) << what;
  }
  EXPECT_THROW((void)cfg.rate(-1, 0), Error);
  EXPECT_THROW((void)cfg.latency(1, 1), Error);
}

}  // namespace
}  // namespace lmo
