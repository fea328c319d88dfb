// Sharded measurement campaigns and the sampled scale estimator.
//
// The headline pins: a k-shard campaign merged back into one store is
// byte-identical to the single-process store, and the fit from it is
// bit-identical to the single-process fit — the property that makes
// process-level sharding safe to use for real runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "estimate/lmo_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/plan.hpp"
#include "estimate/scale_estimator.hpp"
#include "simnet/cluster.hpp"
#include "util/error.hpp"
#include "vmpi/world.hpp"

namespace lmo::estimate {
namespace {

// ---------------------------------------------------- ShardSpec parsing ----

TEST(ShardSpec, ParsesAndValidates) {
  const auto s = ShardSpec::parse("1/4");
  EXPECT_EQ(s.index, 1);
  EXPECT_EQ(s.count, 4);
  EXPECT_TRUE(s.active());
  // 0/1 is the whole campaign: not a real shard.
  EXPECT_FALSE(ShardSpec::parse("0/1").active());
  EXPECT_FALSE(ShardSpec{}.active());
}

TEST(ShardSpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "1", "/2", "1/", "a/2", "1/b", "1/2x", "x1/2",
                          "2/2", "3/2", "-1/2", "0/0", "1/0", "1//2"}) {
    EXPECT_THROW((void)ShardSpec::parse(bad), Error) << "\"" << bad << "\"";
  }
  try {
    (void)ShardSpec::parse("5/4");
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    // The message names the offending spec and states the contract.
    EXPECT_NE(std::string(e.what()).find("5/4"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("i/k"), std::string::npos);
  }
}

// --------------------------------------------------------- merge_from ----

TEST(MeasurementStoreMerge, UnionsShards) {
  MeasurementStore a, b;
  a.set_cluster(8, 3);
  b.set_cluster(8, 3);
  const auto k1 = ExperimentKey::roundtrip(0, 1, 0, 0);
  const auto k2 = ExperimentKey::roundtrip(2, 3, 0, 0);
  const auto shared = ExperimentKey::roundtrip(4, 5, 64, 0);
  a.insert(k1, 1.0);
  a.insert(shared, 2.5);
  b.insert(k2, 2.0);
  b.insert(shared, 2.5);  // bit-identical on both sides: fine
  a.merge_from(b);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a.at(k2), 2.0);
}

TEST(MeasurementStoreMerge, RejectsMismatchedProvenance) {
  MeasurementStore a, b;
  a.set_cluster(8, 3);
  b.set_cluster(16, 3);
  try {
    a.merge_from(b);
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("provenance"), std::string::npos)
        << e.what();
  }
  // Unknown (0) provenance matches anything and adopts the known one.
  MeasurementStore c, d;
  d.set_cluster(8, 3);
  c.merge_from(d);
  EXPECT_EQ(c.cluster_size(), 8);
  EXPECT_EQ(c.cluster_seed(), 3u);
}

TEST(MeasurementStoreMerge, RejectsDisagreeingValues) {
  MeasurementStore a, b;
  const auto k = ExperimentKey::roundtrip(0, 1, 0, 0);
  a.insert(k, 1.0);
  b.insert(k, 1.0 + 1e-12);  // shards of one run can never disagree
  try {
    a.merge_from(b);
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("disagree"), std::string::npos)
        << e.what();
  }
}

TEST(MeasurementStoreMerge, CleanValueLiftsQuarantine) {
  MeasurementStore a, b;
  const auto k = ExperimentKey::roundtrip(0, 1, 0, 0);
  a.quarantine(k, 9.0);
  b.insert(k, 1.5);
  a.merge_from(b);
  EXPECT_EQ(a.quarantined_count(), 0u);
  EXPECT_TRUE(a.contains(k));
  EXPECT_DOUBLE_EQ(a.at(k), 1.5);
  // And the other way: a suspect never overwrites a clean value.
  MeasurementStore c, d;
  c.insert(k, 1.5);
  d.quarantine(k, 9.0);
  c.merge_from(d);
  EXPECT_EQ(c.quarantined_count(), 0u);
  EXPECT_TRUE(c.contains(k));
  EXPECT_DOUBLE_EQ(c.at(k), 1.5);
}

// ----------------------------------------- sharded campaign bit-identity ----

/// Deep copy (MeasurementStore is move-only; the JSON round trip is
/// bit-exact by contract).
MeasurementStore copy_store(const MeasurementStore& s) {
  return MeasurementStore::from_json(s.to_json());
}

/// The lmo_tool --shard workflow in-process: pass 1 cold (each shard
/// measures its slice of stage 1), merge; pass 2 from the merged store
/// (stage 1 cached, each shard measures its slice of stage 2), merge.
MeasurementStore sharded_lmo_campaign(const sim::ClusterConfig& cfg,
                                      int shards) {
  const LmoOptions opts;
  MeasurementStore merged1;
  merged1.set_cluster(cfg.size(), cfg.seed);
  for (int s = 0; s < shards; ++s) {
    vmpi::World world(cfg);
    SimExperimenter ex(world);
    MeasurementStore mine;
    mine.set_cluster(cfg.size(), cfg.seed);
    PlanBuilder stage1(ex.topology());
    plan_lmo_roundtrips(stage1, cfg.size(), opts);
    execute_plan(stage1.build(opts.parallel), ex, mine, {s, shards});
    merged1.merge_from(mine);
  }
  MeasurementStore merged2;
  merged2.set_cluster(cfg.size(), cfg.seed);
  for (int s = 0; s < shards; ++s) {
    vmpi::World world(cfg);
    SimExperimenter ex(world);
    MeasurementStore mine = copy_store(merged1);
    // Stage 1 is fully cached here, but the shard-aware executor still
    // advances the round cursor past it, so stage-2 seeds line up with
    // the single-process run.
    PlanBuilder stage1(ex.topology());
    plan_lmo_roundtrips(stage1, cfg.size(), opts);
    execute_plan(stage1.build(opts.parallel), ex, mine, {s, shards});
    PlanBuilder stage2(ex.topology());
    plan_lmo_one_to_two(stage2, mine, cfg.size(), opts);
    execute_plan(stage2.build(opts.parallel), ex, mine, {s, shards});
    merged2.merge_from(mine);
  }
  return merged2;
}

TEST(ShardedCampaign, MergedStoreAndFitBitIdenticalToSingleProcess) {
  const auto cfg = sim::make_random_cluster(8, 42);
  MeasurementStore single;
  single.set_cluster(cfg.size(), cfg.seed);
  vmpi::World world(cfg);
  SimExperimenter ex(world);
  const LmoReport ref = estimate_lmo(ex, single);
  const std::string single_bytes = single.to_json().dump(2);

  for (const int k : {2, 3}) {
    const MeasurementStore merged = sharded_lmo_campaign(cfg, k);
    EXPECT_EQ(merged.to_json().dump(2), single_bytes) << k << " shards";
    // Offline refit from the merged store: bit-identical parameters
    // (EXPECT_EQ on doubles is exact).
    const LmoReport refit = fit_lmo(merged, cfg.size());
    ASSERT_EQ(refit.params.size(), ref.params.size());
    for (int i = 0; i < cfg.size(); ++i) {
      EXPECT_EQ(refit.params.C[std::size_t(i)], ref.params.C[std::size_t(i)]);
      EXPECT_EQ(refit.params.t[std::size_t(i)], ref.params.t[std::size_t(i)]);
      for (int j = i + 1; j < cfg.size(); ++j) {
        EXPECT_EQ(refit.params.L(i, j), ref.params.L(i, j));
        EXPECT_EQ(refit.params.inv_beta(i, j), ref.params.inv_beta(i, j));
      }
    }
  }
}

TEST(ShardedCampaign, InactiveShardTouchesNoCursor) {
  // The unsharded path must not pin the round cursor at all — that is the
  // flat 16-node pipeline's byte-identity guarantee. A cold unsharded run
  // leaves the cursor exactly where the round count puts it.
  const auto cfg = sim::make_random_cluster(4, 7);
  vmpi::World world(cfg);
  SimExperimenter ex(world);
  MeasurementStore store;
  store.set_cluster(cfg.size(), cfg.seed);
  PlanBuilder stage1(ex.topology());
  plan_lmo_roundtrips(stage1, cfg.size(), {});
  const auto plan = stage1.build(true);
  (void)execute_plan(plan, ex, store);
  EXPECT_EQ(ex.round_cursor(), std::uint64_t(plan.rounds.size()));
}

// ----------------------------------------------- sampled scale estimator ----

TEST(ScaleEstimator, SamplesDeterministicTripletsPerLevel) {
  const auto cfg = sim::make_multicore_cluster(2, 2, 2, 1);
  const auto t1 = sample_scale_triplets(&cfg.topology, cfg.size());
  const auto t2 = sample_scale_triplets(&cfg.topology, cfg.size());
  ASSERT_FALSE(t1.empty());
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) EXPECT_EQ(t1[i], t2[i]);
  // Flat platform: disjoint consecutive triplets.
  const auto flat = sample_scale_triplets(nullptr, 9);
  EXPECT_EQ(flat.size(), 3u);
}

TEST(ScaleEstimator, RecoversPerLevelParametersOnMulticoreCluster) {
  const auto cfg = sim::make_multicore_cluster(2, 2, 2, 1);
  vmpi::World world(cfg);
  SimExperimenter ex(world);
  MeasurementStore store;
  store.set_cluster(cfg.size(), cfg.seed);
  ScaleOptions sopts;
  sopts.cluster = &cfg;
  sopts.topology = &cfg.topology;  // offline refits below sample with it
  const auto scale = estimate_scale_lmo(ex, store, sopts);
  EXPECT_EQ(scale.ranks, cfg.size());
  ASSERT_EQ(int(scale.per_level.size()), cfg.topology.depth());
  ASSERT_FALSE(scale.sampled_ranks.empty());
  EXPECT_TRUE(std::is_sorted(scale.sampled_ranks.begin(),
                             scale.sampled_ranks.end()));
  EXPECT_EQ(int(scale.profile_of.size()), cfg.size());

  // Against the exact fit (all pairs, all triplets): the multicore
  // cluster's ranks are identical within a level class, so the sampled
  // per-level parameters must land near the exhaustive averages.
  vmpi::World world2(cfg);
  SimExperimenter ex2(world2);
  const auto exact = estimate_lmo(ex2);
  ASSERT_EQ(exact.params.per_level.size(), scale.per_level.size());
  for (std::size_t lv = 0; lv < scale.per_level.size(); ++lv) {
    const auto& s = scale.per_level[lv];
    const auto& e = exact.params.per_level[lv];
    EXPECT_GT(s.pairs, 0) << "level " << lv + 1;
    EXPECT_NEAR(s.L, e.L, 0.25 * e.L + 1e-7) << "level " << lv + 1;
    EXPECT_NEAR(s.inv_beta, e.inv_beta, 0.25 * e.inv_beta + 1e-10)
        << "level " << lv + 1;
  }
  // Broadcast C/t: every rank resolves to a finite, non-negative value
  // and the point-to-point composition is usable at every level.
  for (int r = 0; r < cfg.size(); ++r) {
    EXPECT_GE(scale.C_of(r), 0.0);
    EXPECT_GE(scale.t_of(r), 0.0);
  }
  const double p = scale.pt2pt(0, cfg.size() - 1, cfg.topology.depth(),
                               32 * 1024);
  EXPECT_GT(p, 0.0);

  // Offline refit from the same store is bit-identical.
  const auto refit = fit_scale_lmo(store, cfg.size(), sopts);
  EXPECT_EQ(refit.C_mean, scale.C_mean);
  EXPECT_EQ(refit.t_mean, scale.t_mean);
  for (std::size_t lv = 0; lv < scale.per_level.size(); ++lv) {
    EXPECT_EQ(refit.per_level[lv].L, scale.per_level[lv].L);
    EXPECT_EQ(refit.per_level[lv].inv_beta, scale.per_level[lv].inv_beta);
  }
}

TEST(ScaleEstimator, FitMatchesRecordedDigest) {
  // Every fitted value of the sampled fit, FNV-1a over the raw bytes: the
  // triplet solve and its per-level/per-profile aggregation must not move
  // a bit.
  const auto cfg = sim::make_multicore_cluster(2, 2, 2, 1);
  ScaleOptions sopts;
  sopts.cluster = &cfg;
  sopts.topology = &cfg.topology;
  MeasurementStore store;
  store.set_cluster(cfg.size(), cfg.seed);
  vmpi::World world(cfg);
  SimExperimenter ex(world);
  (void)estimate_scale_lmo(ex, store, sopts);
  const ScaleLmoReport r = fit_scale_lmo(store, cfg.size(), sopts);

  std::uint64_t h = 1469598103934665603ull;
  const auto add = [&h](const auto& value) {
    const auto* p = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t k = 0; k < sizeof(value); ++k) {
      h ^= p[k];
      h *= 1099511628211ull;
    }
  };
  for (const int rank : r.sampled_ranks) add(rank);
  for (const double x : r.C) add(x);
  for (const double x : r.t) add(x);
  add(r.C_mean);
  add(r.t_mean);
  for (const core::LevelLink& link : r.per_level) {
    add(link.L);
    add(link.inv_beta);
    add(link.pairs);
  }
  for (const ProfileParams& p : r.per_profile) {
    add(p.C);
    add(p.t);
    add(p.sampled);
  }
  EXPECT_FALSE(r.per_profile.empty());
  EXPECT_EQ(h, 0xfe10db748edb6b2aull) << std::hex << "0x" << h;
}

TEST(ScaleEstimator, ShardedScaleCampaignBitIdentical) {
  const auto cfg = sim::make_multicore_cluster(2, 2, 2, 1);
  ScaleOptions sopts;
  sopts.cluster = &cfg;
  sopts.topology = &cfg.topology;

  MeasurementStore single;
  single.set_cluster(cfg.size(), cfg.seed);
  {
    vmpi::World world(cfg);
    SimExperimenter ex(world);
    (void)estimate_scale_lmo(ex, single, sopts);
  }
  const std::string single_bytes = single.to_json().dump(2);

  // Two passes of two shards, exactly the lmo_tool workflow.
  MeasurementStore merged1;
  merged1.set_cluster(cfg.size(), cfg.seed);
  for (int s = 0; s < 2; ++s) {
    vmpi::World world(cfg);
    SimExperimenter ex(world);
    MeasurementStore mine;
    mine.set_cluster(cfg.size(), cfg.seed);
    (void)estimate_scale_lmo(ex, mine, sopts, {s, 2});
    merged1.merge_from(mine);
  }
  MeasurementStore merged2;
  merged2.set_cluster(cfg.size(), cfg.seed);
  for (int s = 0; s < 2; ++s) {
    vmpi::World world(cfg);
    SimExperimenter ex(world);
    MeasurementStore mine = copy_store(merged1);
    (void)estimate_scale_lmo(ex, mine, sopts, {s, 2});
    merged2.merge_from(mine);
  }
  EXPECT_EQ(merged2.to_json().dump(2), single_bytes);

  const auto ref = fit_scale_lmo(single, cfg.size(), sopts);
  const auto sharded = fit_scale_lmo(merged2, cfg.size(), sopts);
  EXPECT_EQ(sharded.C_mean, ref.C_mean);
  EXPECT_EQ(sharded.t_mean, ref.t_mean);
  ASSERT_EQ(sharded.per_level.size(), ref.per_level.size());
  for (std::size_t lv = 0; lv < ref.per_level.size(); ++lv) {
    EXPECT_EQ(sharded.per_level[lv].L, ref.per_level[lv].L);
    EXPECT_EQ(sharded.per_level[lv].inv_beta, ref.per_level[lv].inv_beta);
  }
}

}  // namespace
}  // namespace lmo::estimate
