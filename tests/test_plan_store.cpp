// The declarative plan / shared MeasurementStore layer:
//  * ExperimentKey canonicalization and JSON round-trips,
//  * PlanBuilder deduplication, ordering-independence and disjoint rounds,
//  * MeasurementStore semantics (first-write-wins, hit/miss accounting)
//    and bit-exact persistence,
//  * the cross-estimator reuse guarantee: all five models through one
//    shared store cost >= 30% fewer experiment runs than five independent
//    estimations on the 16-node Table-I cluster, and a saved store re-fits
//    offline to bit-identical parameters,
//  * PLogP's staged bisection midpoints: counted, quarantined when
//    poisoned, served warm, and pinned by a golden digest,
//  * golden digests of cold campaigns on a contended multicore tree and
//    on the flat Table-I cluster, pinning the store and every packed round.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>

#include "coll/collectives.hpp"
#include "estimate/suite.hpp"
#include "obs/metrics.hpp"
#include "simnet/cluster.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "vmpi/world.hpp"

#include "fixtures.hpp"
#include "plan_reference.hpp"
#include "random_tree.hpp"

namespace lmo::estimate {
namespace {

// ---------------------------------------------------------------- keys --

TEST(ExperimentKeyTest, SymmetricRoundtripCanonicalizes) {
  // T_ij(m, m) and T_ji(m, m) are the same experiment — Hockney asking for
  // (3, 1) and LMO for (1, 3) must collapse onto one key.
  EXPECT_EQ(ExperimentKey::roundtrip(3, 1, 4096, 4096),
            ExperimentKey::roundtrip(1, 3, 4096, 4096));
  EXPECT_EQ(ExperimentKey::roundtrip(3, 1, 0, 0).a, 1);
}

TEST(ExperimentKeyTest, AsymmetricRoundtripKeepsOrientation) {
  // Different forward/reply sizes make the direction observable.
  EXPECT_NE(ExperimentKey::roundtrip(3, 1, 4096, 0),
            ExperimentKey::roundtrip(1, 3, 4096, 0));
}

TEST(ExperimentKeyTest, DirectionalKindsKeepOrientation) {
  EXPECT_NE(ExperimentKey::send_overhead(0, 1, 256),
            ExperimentKey::send_overhead(1, 0, 256));
  EXPECT_NE(ExperimentKey::saturation_gap(0, 1, 256, 32),
            ExperimentKey::saturation_gap(0, 1, 256, 48));
}

TEST(ExperimentKeyTest, DescribeNamesTheExperiment) {
  const std::string d =
      ExperimentKey::roundtrip(2, 5, 32768, 32768).describe();
  EXPECT_NE(d.find("roundtrip"), std::string::npos);
  EXPECT_NE(d.find("2"), std::string::npos);
  EXPECT_NE(d.find("5"), std::string::npos);
}

TEST(ExperimentKeyTest, JsonRoundTripsEveryKind) {
  const std::vector<ExperimentKey> keys{
      ExperimentKey::roundtrip(0, 3, 1024, 2048),
      ExperimentKey::one_to_two({2, 0, 1}, 32768, 0),
      ExperimentKey::send_overhead(1, 2, 256),
      ExperimentKey::recv_overhead(2, 1, 256),
      ExperimentKey::saturation_gap(0, 1, 65536, 48),
      ExperimentKey::scatter_observation(0, 8192, 7),
      ExperimentKey::gather_observation(3, 8192, 11),
  };
  for (const ExperimentKey& k : keys) {
    const ExperimentKey back = ExperimentKey::from_json(
        obs::Json::parse(k.to_json().dump()));
    EXPECT_EQ(back, k) << k.describe();
  }
}

// --------------------------------------------------------------- plans --

TEST(PlanBuilderTest, DeduplicatesAcrossEstimators) {
  PlanBuilder plan;
  plan.require(ExperimentKey::roundtrip(0, 1, 0, 0));     // Hockney's
  plan.require(ExperimentKey::roundtrip(1, 0, 0, 0));     // LMO's — same
  plan.require(ExperimentKey::roundtrip(0, 1, 1024, 1024));
  EXPECT_EQ(plan.requests(), 3u);
  const ExperimentPlan built = plan.build(true);
  EXPECT_EQ(built.requested, 3u);
  EXPECT_EQ(built.deduplicated, 1u);
  EXPECT_EQ(built.experiments(), 2u);
}

TEST(PlanBuilderTest, PlanIsIndependentOfRequestOrder) {
  // require() only appends; build() sorts and deduplicates. On a flat
  // cluster and on a contended multicore tree alike, the rounds and their
  // level stamps depend only on the set of keys.
  const int n = 6;
  const sim::ClusterConfig multicore = sim::make_multicore_cluster(1, 2, 3);
  ASSERT_EQ(multicore.size(), n);
  const auto one_to_twos = [&](PlanBuilder& plan, bool reversed) {
    for (int e = 0; e < n * n * n; ++e) {
      const int v = reversed ? n * n * n - 1 - e : e;
      const Triplet t{v / (n * n), v / n % n, v % n};
      if (t[0] != t[1] && t[0] != t[2] && t[1] != t[2])
        plan.require(ExperimentKey::one_to_two(t, 1024, 0));
    }
  };
  for (const sim::Topology* topo : {static_cast<const sim::Topology*>(nullptr),
                                    &multicore.topology}) {
    HockneyOptions hockney;
    LmoOptions lmo;
    PlanBuilder forward(topo), reverse(topo);
    plan_hockney(forward, n, hockney);
    plan_lmo_roundtrips(forward, n, lmo);
    one_to_twos(forward, false);
    one_to_twos(reverse, true);
    plan_lmo_roundtrips(reverse, n, lmo);
    plan_hockney(reverse, n, hockney);
    const ExperimentPlan a = forward.build(true);
    const ExperimentPlan b = reverse.build(true);
    EXPECT_EQ(a.experiments(), b.experiments());
    EXPECT_EQ(a.deduplicated, b.deduplicated);
    ASSERT_EQ(a.rounds.size(), b.rounds.size());
    for (std::size_t r = 0; r < a.rounds.size(); ++r) {
      EXPECT_EQ(a.rounds[r].keys, b.rounds[r].keys) << "round " << r;
      for (std::size_t e = 0; e < a.rounds[r].keys.size(); ++e)
        EXPECT_EQ(a.rounds[r].keys[e].level, b.rounds[r].keys[e].level);
    }
  }
}

TEST(PlanBuilderTest, RoundsAreNodeDisjointAndHomogeneous) {
  PlanBuilder plan;
  plan_hockney(plan, 7, {});
  plan_loggp(plan, 7, {});
  const ExperimentPlan built = plan.build(true);
  std::size_t experiments = 0;
  for (const PlannedRound& round : built.rounds) {
    std::set<int> nodes;
    for (const ExperimentKey& k : round.keys) {
      EXPECT_EQ(k.kind, round.kind);
      EXPECT_EQ(k.m_fwd, round.m_fwd);
      EXPECT_EQ(k.m_back, round.m_back);
      EXPECT_EQ(k.count, round.count);
      for (const int p : k.participants())
        EXPECT_TRUE(nodes.insert(p).second)
            << "node " << p << " twice in one round: " << k.describe();
      ++experiments;
    }
  }
  EXPECT_EQ(experiments, plan.requests() - built.deduplicated);
}

TEST(PlanBuilderTest, SerialBuildYieldsSingletonRounds) {
  PlanBuilder plan;
  plan_hockney(plan, 5, {});
  const ExperimentPlan built = plan.build(false);
  EXPECT_EQ(built.rounds.size(), plan.requests() - built.deduplicated);
  for (const PlannedRound& round : built.rounds)
    EXPECT_EQ(round.keys.size(), 1u);
}

// --------------------------------------------------- contended packing --

/// Random experiments over n >= 3 ranks: every pair kind plus two-path
/// one-to-two keys, in few enough (kind, size) groups that rounds fill
/// up, with duplicates and two observations. A dense draw uses only two
/// groups, so rounds pile up past one bitmap word.
std::vector<ExperimentKey> random_keys(Rng& rng, int n) {
  std::vector<ExperimentKey> keys;
  const bool dense = rng.chance(0.3);
  const int count = int(rng.uniform_int(20, 400));
  for (int e = 0; e < count; ++e) {
    const int i = int(rng.uniform_int(0, n - 1));
    const int j = (i + int(rng.uniform_int(1, n - 1))) % n;
    int k = int(rng.uniform_int(0, n - 1));
    while (k == i || k == j) k = (k + 1) % n;
    const Bytes m = dense || rng.chance(0.5) ? 0 : 1024;
    switch (dense ? 5 * rng.uniform_int(0, 1) : rng.uniform_int(0, 5)) {
      case 0: keys.push_back(ExperimentKey::roundtrip(i, j, m, m)); break;
      case 1: keys.push_back(ExperimentKey::roundtrip(i, j, m, 0)); break;
      case 2: keys.push_back(ExperimentKey::send_overhead(i, j, m)); break;
      case 3: keys.push_back(ExperimentKey::recv_overhead(i, j, m)); break;
      case 4: keys.push_back(ExperimentKey::saturation_gap(i, j, m, 8)); break;
      default: keys.push_back(ExperimentKey::one_to_two({i, j, k}, m, 0));
    }
  }
  keys.push_back(ExperimentKey::scatter_observation(0, 1024, 0));
  keys.push_back(ExperimentKey::gather_observation(1, 1024, 0));
  return keys;
}

TEST(ContendedPackingTest, MatchesPairwiseFirstFitOnRandomTrees) {
  // The bitmap packer must make exactly the rounds of the pairwise
  // first-fit, and every round must be resource-disjoint. Each key set is
  // packed on its contended tree and on flat builders over the same ranks:
  // no topology, and the contention-free single-switch tree.
  std::size_t wide_groups = 0;  // groups that needed > 64 rounds
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const sim::Topology topo =
        test_support::random_contended_tree(rng, seed % 2 == 0);
    ASSERT_TRUE(topo.constrains_concurrency());
    const sim::Topology single = test_support::single_switch(topo.ranks(), 0);
    ASSERT_FALSE(single.constrains_concurrency());
    const std::vector<ExperimentKey> keys = random_keys(rng, topo.ranks());
    for (const sim::Topology* t :
         {&topo, static_cast<const sim::Topology*>(nullptr), &single}) {
      const std::string where = "seed " + std::to_string(seed) +
                                (t == &topo     ? " contended"
                                 : t == nullptr ? " flat"
                                                : " single-switch");
      PlanBuilder builder(t);
      for (const ExperimentKey& k : keys) builder.require(k);
      const ExperimentPlan plan = builder.build(true);
      const auto want = reference::rounds(t, keys);
      ASSERT_EQ(plan.rounds.size(), want.size()) << where;
      std::size_t in_group = 0;
      for (std::size_t r = 0; r < want.size(); ++r) {
        const std::vector<ExperimentKey>& got = plan.rounds[r].keys;
        EXPECT_EQ(got, want[r]) << where << " round " << r;
        for (std::size_t x = 0; x < got.size(); ++x)
          for (std::size_t y = x + 1; y < got.size(); ++y)
            EXPECT_FALSE(reference::keys_conflict(t, got[x], got[y]))
                << where << ": " << got[x].describe() << " and "
                << got[y].describe();
        const bool same_group =
            r > 0 && plan.rounds[r - 1].kind == plan.rounds[r].kind &&
            plan.rounds[r - 1].m_fwd == plan.rounds[r].m_fwd &&
            plan.rounds[r - 1].m_back == plan.rounds[r].m_back &&
            plan.rounds[r - 1].count == plan.rounds[r].count;
        in_group = same_group ? in_group + 1 : 1;
        if (in_group == 65 && t == &topo) ++wide_groups;
      }
    }
  }
  // The round bitmaps span several words somewhere in the sweep.
  EXPECT_GT(wide_groups, 0u);
}

// --------------------------------------------------------------- store --

TEST(MeasurementStoreTest, FirstWriteWins) {
  MeasurementStore store;
  const auto key = ExperimentKey::roundtrip(0, 1, 0, 0);
  store.insert(key, 1.5);
  store.insert(key, 9.9);  // a re-measurement must not perturb prior fits
  EXPECT_EQ(store.at(key), 1.5);
  EXPECT_EQ(store.size(), 1u);
}

TEST(MeasurementStoreTest, HostileNestingInFileFailsCleanly) {
  // A measurements file holding a 100k-deep array must come back as a
  // clean lmo::Error naming the file — not a stack overflow. This is the
  // end-to-end check of the JSON parser's depth guard: load() is the one
  // path that feeds attacker-controllable bytes into the parser.
  const std::string path = testing::TempDir() + "lmo_depth_bomb.json";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    for (int i = 0; i < 100000; ++i) std::fputc('[', f);
    std::fclose(f);
  }
  try {
    (void)MeasurementStore::load(path);
    FAIL() << "depth bomb loaded";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find("nesting"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(MeasurementStoreTest, FailedSaveKeepsThePreviousFile) {
  // save() writes a temp file and renames it into place, so a checkpoint
  // that fails part way (here: the temp file is /dev/full, every write
  // fails) leaves the previous store loadable and no temp file behind.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string path = testing::TempDir() + "lmo_store_checkpoint.json";
  const std::string tmp = path + ".tmp";
  std::filesystem::remove(tmp);
  MeasurementStore first;
  first.insert(ExperimentKey::roundtrip(0, 1, 0, 0), 1.5);
  first.save(path);
  const std::string saved = obs::read_file(path);

  MeasurementStore second = MeasurementStore::load(path);
  second.insert(ExperimentKey::roundtrip(0, 1, 1024, 1024), 2.5);
  std::filesystem::create_symlink("/dev/full", tmp);
  try {
    second.save(path);
    ADD_FAILURE() << "save onto a full device succeeded";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(tmp), std::string::npos) << e.what();
  }
  EXPECT_EQ(obs::read_file(path), saved);
  EXPECT_EQ(MeasurementStore::load(path).size(), 1u);
  EXPECT_EQ(std::filesystem::symlink_status(tmp).type(),
            std::filesystem::file_type::not_found);

  second.save(path);  // the next checkpoint goes through
  EXPECT_EQ(MeasurementStore::load(path).size(), 2u);
  EXPECT_FALSE(std::filesystem::exists(tmp));
  std::filesystem::remove(path);
}

TEST(MeasurementStoreTest, CountsHitsAndMisses) {
  MeasurementStore store;
  const auto key = ExperimentKey::send_overhead(0, 1, 256);
  EXPECT_FALSE(store.lookup(key).has_value());
  store.insert(key, 2.0);
  EXPECT_TRUE(store.lookup(key).has_value());
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 1u);
}

TEST(MeasurementStoreTest, AtThrowsNamingTheExperiment) {
  const MeasurementStore store;
  try {
    (void)store.at(ExperimentKey::saturation_gap(2, 3, 1024, 48));
    FAIL() << "expected lmo::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("gap"), std::string::npos)
        << e.what();
  }
}

TEST(MeasurementStoreTest, JsonRoundTripIsBitExact) {
  MeasurementStore store;
  store.set_cluster(16, 42);
  // Values chosen to break any formatting that rounds: non-representable
  // decimals, tiny magnitudes, and long mantissas.
  const std::vector<std::pair<ExperimentKey, double>> entries{
      {ExperimentKey::roundtrip(0, 1, 0, 0), 0.1 + 0.2},
      {ExperimentKey::roundtrip(0, 1, 1024, 1024), 1.0 / 3.0},
      {ExperimentKey::send_overhead(0, 1, 256), 2.5e-17},
      {ExperimentKey::one_to_two({0, 1, 2}, 4096, 0), 0.00012207031249999998},
      {ExperimentKey::gather_observation(0, 8192, 3), 3.141592653589793},
  };
  for (const auto& [k, v] : entries) store.insert(k, v);

  const MeasurementStore back =
      MeasurementStore::from_json(obs::Json::parse(store.to_json().dump()));
  EXPECT_EQ(back.size(), store.size());
  EXPECT_EQ(back.cluster_size(), 16);
  EXPECT_EQ(back.cluster_seed(), 42u);
  for (const auto& [k, v] : entries) {
    const double r = back.at(k);
    EXPECT_EQ(std::memcmp(&r, &v, sizeof(double)), 0)
        << k.describe() << ": " << r << " != " << v;
  }
}

// ------------------------------------------------------ store mutation --

/// A small store holding every shape of entry: both ends, a reply, a
/// count, a long kind name, and a quarantined value.
std::string small_store_text() {
  MeasurementStore store;
  store.set_cluster(4, 7);
  store.insert(ExperimentKey::roundtrip(0, 1, 0, 0), 1.25e-5);
  store.insert(ExperimentKey::one_to_two({0, 1, 2}, 4096, 0), 3.5e-4);
  store.insert(ExperimentKey::saturation_gap(1, 2, 1024, 8), 2e-3);
  store.insert(ExperimentKey::scatter_observation(0, 8192, 1), 0.1);
  store.quarantine(ExperimentKey::send_overhead(2, 3, 256), 7e-6);
  return store.to_json().dump();
}

/// `text` through Json::parse and MeasurementStore::from_json. A load must
/// dump to bytes that load and dump to themselves; a refusal must be an
/// lmo::Error naming a parse offset or a store field. Returns the dump,
/// or "" on a refusal.
std::string load_or_named_error(const std::string& text) {
  std::string dumped;
  try {
    dumped =
        MeasurementStore::from_json(obs::Json::parse(text)).to_json().dump();
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_TRUE(what.rfind("JSON parse error at offset ", 0) == 0 ||
                what.rfind("measurement store", 0) == 0)
        << what;
    return "";
  }
  EXPECT_EQ(MeasurementStore::from_json(obs::Json::parse(dumped))
                .to_json()
                .dump(),
            dumped);
  return dumped;
}

TEST(StoreMutationTest, TruncationsAndByteFlipsFailNamedOrRoundTrip) {
  const std::string text = small_store_text();
  EXPECT_EQ(load_or_named_error(text), text);
  for (std::size_t n = 0; n < text.size(); ++n)
    EXPECT_EQ(load_or_named_error(text.substr(0, n)), "") << n << " bytes";
  Rng rng(20261020);
  int loaded = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string flipped = text;
    flipped[rng.next_u64() % text.size()] ^= char(1 << (rng.next_u64() % 8));
    loaded += !load_or_named_error(flipped).empty();
  }
  EXPECT_GT(loaded, 0) << "no flip left a loadable store";
}

TEST(StoreMutationTest, RepeatedKeysKeepTheirFirstPlaceAndTheirLastValue) {
  const std::string text = small_store_text();
  // A repeated top-level key, and a repeated value inside the first entry.
  std::string repeated = text;
  repeated.insert(repeated.size() - 1, R"(,"schema":"lmo.measurements/1")");
  const std::size_t value = repeated.find(R"("value":)");
  repeated.insert(value, R"("value":"overwritten",)");
  EXPECT_EQ(load_or_named_error(repeated), text);
  // Both ways round: the later value is the one read.
  std::string wrong = text;
  wrong.insert(wrong.size() - 1, R"(,"schema":"lmo.measurements/0")");
  EXPECT_EQ(load_or_named_error(wrong), "");
}

TEST(StoreMutationTest, NestingPastTheParserLimitFailsAtItsOffset) {
  // An entry value nested in arrays: the document's object, the entries
  // array and the entry object are three levels, so `depth` levels in all.
  for (const int depth : {255, 256, 257}) {
    const int arrays = depth - 3;
    const std::string doc =
        R"({"schema":"lmo.measurements/1","entries":[{"kind":"roundtrip",)"
        R"("a":0,"b":1,"m":0,"reply":0,"value":)" +
        std::string(std::size_t(arrays), '[') + "1" +
        std::string(std::size_t(arrays), ']') + "}]}";
    try {
      (void)MeasurementStore::from_json(obs::Json::parse(doc));
      ADD_FAILURE() << depth << " levels loaded";
    } catch (const Error& e) {
      const std::string want =
          depth <= 256 ? "measurement store entries[0]: field 'value' must "
                         "be a number"
                       : "JSON parse error at offset " +
                             std::to_string(doc.find('[', doc.find("value")) +
                                            std::size_t(arrays) - 1) +
                             ": nesting deeper than 256 levels";
      EXPECT_EQ(std::string(e.what()), want) << depth << " levels";
    }
  }
}

TEST(StoreMutationTest, NumericExtremesLoadExactlyOrFailNamed) {
  const std::string text = small_store_text();
  const auto with = [&](const std::string& field, const std::string& value) {
    std::string out = text;
    const std::size_t at = out.find("\"" + field + "\":") + field.size() + 3;
    return out.replace(at, out.find_first_of(",}", at) - at, value);
  };
  for (const char* v :
       {"1e308", "-1e308", "1.7976931348623157e308", "2.2250738585072014e-308",
        "5e-324", "4.9406564584124654e-324", "-0", "0", "1e-400",
        "9223372036854775807", "-9223372036854775808", "9223372036854775808",
        "123456789012345678901234567890"}) {
    const std::string dumped = load_or_named_error(with("value", v));
    ASSERT_FALSE(dumped.empty()) << v;
    const double want = std::strtod(v, nullptr);
    const double got = obs::Json::parse(dumped)
                           .at("entries")[0]
                           .at("value")
                           .as_double();
    EXPECT_TRUE(got == want) << v << " read back as " << got;
  }
  const std::vector<std::pair<std::string, std::string>> refused = {
      {"value", "1e400"}, {"value", "-1e999"}, {"a", "-1"},
      {"a", "1e400"},     {"m", "9.5"},        {"m", "-9223372036854775809"},
      {"count", "2147483648"}};
  for (const auto& [field, v] : refused)
    EXPECT_EQ(load_or_named_error(with(field, v)), "") << field << " = " << v;
}

TEST(MeasurementStoreTest, BadValueDeepInThePaperStoreNamesItsEntry) {
  // The paper-16 seed-1 store: entry 12345 is read as a document of its
  // own, "measurement store entries[12345]", and the error names it.
  const auto cfg = sim::make_paper_cluster(/*seed=*/1);
  vmpi::World world(cfg);
  mpib::MeasureOptions m;
  m.jobs = 1;
  SimExperimenter ex(world, m);
  MeasurementStore store;
  store.set_cluster(cfg.size(), cfg.seed);
  (void)estimate_model_suite(ex, store);
  const obs::Json saved = store.to_json();
  ASSERT_GT(saved.at("entries").size(), 12345u);
  obs::Json doc = obs::Json::object();
  doc["schema"] = saved.at("schema");
  doc["cluster"] = saved.at("cluster");
  obs::Json entries = obs::Json::array();
  const obs::Json::Array saved_entries = saved.at("entries").items();
  for (std::size_t i = 0; i < saved_entries.size(); ++i) {
    obs::Json e = saved_entries[i];
    if (i == 12345) e["value"] = "x";
    entries.push_back(std::move(e));
  }
  doc["entries"] = std::move(entries);
  try {
    (void)MeasurementStore::from_json(doc);
    FAIL() << "a string value loaded";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()),
              "measurement store entries[12345]: field 'value' must be a "
              "number");
  }
}

TEST(MeasurementStoreTest, BindClusterAdoptsUnknownAndRefusesForeign) {
  MeasurementStore store;  // provenance unknown: adopts the first cluster
  store.bind_cluster(8, 3);
  EXPECT_EQ(store.cluster_size(), 8);
  EXPECT_EQ(store.cluster_seed(), 3u);
  store.bind_cluster(8, 3);  // the same world again is fine
  try {
    store.bind_cluster(9, 3);
    FAIL() << "foreign size accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("8-node cluster, not 9"),
              std::string::npos)
        << e.what();
  }
  try {
    store.bind_cluster(8, 4);
    FAIL() << "foreign seed accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("cluster seed 3, not 4"),
              std::string::npos)
        << e.what();
  }
}

// --------------------------------------------------------------- suite --

/// Trimmed-but-complete measurement settings: every experiment converges
/// in exactly two repetitions, PLogP's ladder stops at 2KB with bisection
/// disabled, and the empirical sweeps take 3 samples at 2 sizes. Small
/// enough to run the full five-model campaign on 16 nodes in a test.
mpib::MeasureOptions quick_measure() {
  mpib::MeasureOptions m;
  m.min_reps = 2;
  m.max_reps = 2;
  m.rel_err = 10.0;
  return m;
}

SuiteOptions quick_suite() {
  SuiteOptions opts;
  opts.plogp.max_size = 2048;
  opts.plogp.tolerance = 1e9;  // no data-dependent bisection
  opts.plogp.saturation_count = 8;
  opts.loggp.small_size = 1024;
  opts.loggp.large_size = 2048;
  opts.loggp.saturation_count = 8;
  opts.empirical.observations_per_size = 3;
  opts.empirical.sizes = {16 * 1024, 64 * 1024};
  return opts;
}

void expect_same_doubles(const std::vector<double>& a,
                         const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i], b[i]) << what << "[" << i << "]";
}

void expect_same_table(const models::PairTable& a, const models::PairTable& b,
                       const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (int i = 0; i < a.size(); ++i)
    for (int j = 0; j < a.size(); ++j)
      EXPECT_EQ(a(i, j), b(i, j)) << what << "(" << i << "," << j << ")";
}

void expect_same_piecewise(const stats::PiecewiseLinear& a,
                           const stats::PiecewiseLinear& b, const char* what) {
  expect_same_doubles(a.xs(), b.xs(), what);
  expect_same_doubles(a.ys(), b.ys(), what);
}

void expect_same_suite_fits(const SuiteReport& a, const SuiteReport& b) {
  // Hockney.
  expect_same_table(a.hockney.hetero.alpha, b.hockney.hetero.alpha,
                    "hockney.alpha");
  expect_same_table(a.hockney.hetero.beta, b.hockney.hetero.beta,
                    "hockney.beta");
  EXPECT_EQ(a.hockney.homogeneous.alpha, b.hockney.homogeneous.alpha);
  EXPECT_EQ(a.hockney.homogeneous.beta, b.hockney.homogeneous.beta);
  // LogP/LogGP.
  expect_same_table(a.loggp.hetero.L, b.loggp.hetero.L, "loggp.L");
  expect_same_table(a.loggp.hetero.o, b.loggp.hetero.o, "loggp.o");
  expect_same_table(a.loggp.hetero.g, b.loggp.hetero.g, "loggp.g");
  expect_same_table(a.loggp.hetero.G, b.loggp.hetero.G, "loggp.G");
  EXPECT_EQ(a.loggp.logp.L, b.loggp.logp.L);
  // PLogP.
  EXPECT_EQ(a.plogp.averaged.L, b.plogp.averaged.L);
  expect_same_piecewise(a.plogp.averaged.g, b.plogp.averaged.g, "plogp.g");
  expect_same_piecewise(a.plogp.averaged.os, b.plogp.averaged.os, "plogp.os");
  expect_same_piecewise(a.plogp.averaged.orr, b.plogp.averaged.orr,
                        "plogp.or");
  // LMO.
  expect_same_doubles(a.lmo.params.C, b.lmo.params.C, "lmo.C");
  expect_same_doubles(a.lmo.params.t, b.lmo.params.t, "lmo.t");
  expect_same_table(a.lmo.params.L, b.lmo.params.L, "lmo.L");
  expect_same_table(a.lmo.params.inv_beta, b.lmo.params.inv_beta,
                    "lmo.inv_beta");
  // Empirical.
  EXPECT_EQ(a.gather.empirical.m1, b.gather.empirical.m1);
  EXPECT_EQ(a.gather.empirical.m2, b.gather.empirical.m2);
  EXPECT_EQ(a.scatter.empirical.detected, b.scatter.empirical.detected);
  EXPECT_EQ(a.scatter.empirical.leap_threshold,
            b.scatter.empirical.leap_threshold);
  EXPECT_EQ(a.scatter.empirical.leap_s, b.scatter.empirical.leap_s);
}

TEST(SuiteTest, SharedStoreSavesAtLeastThirtyPercentOfRuns) {
  const auto cfg = sim::make_paper_cluster(/*seed=*/1);  // 16-node Table I
  const SuiteOptions opts = quick_suite();

  // Five independent estimations, each from scratch. The empirical
  // extraction has no LMO parameters of its own, so standalone it must
  // estimate LMO first — that is precisely the duplication the shared
  // store exists to remove.
  std::uint64_t independent_runs = 0;
  {
    vmpi::World world(cfg);
    SimExperimenter ex(world, quick_measure());
    (void)estimate_hockney(ex, opts.hockney);
    (void)estimate_loggp(ex, opts.loggp);
    (void)estimate_plogp(ex, opts.plogp);
    (void)estimate_lmo(ex, opts.lmo);
    const auto lmo_for_empirical = estimate_lmo(ex, opts.lmo);
    (void)estimate_gather_empirical(ex, lmo_for_empirical.params,
                                    opts.empirical);
    (void)estimate_scatter_empirical(ex, lmo_for_empirical.params,
                                     opts.empirical);
    independent_runs = ex.runs();
  }

  vmpi::World world(cfg);
  SimExperimenter ex(world, quick_measure());
  MeasurementStore store;
  const SuiteReport suite = estimate_model_suite(ex, store, opts);

  ASSERT_GT(independent_runs, 0u);
  EXPECT_EQ(suite.world_runs, ex.runs());
  EXPECT_GT(suite.deduplicated, 0u) << "cross-estimator requests must overlap";
  const double savings =
      1.0 - double(suite.world_runs) / double(independent_runs);
  EXPECT_GE(savings, 0.30) << "shared store saved only " << savings * 100
                           << "% (" << suite.world_runs << " vs "
                           << independent_runs << " runs)";
}

TEST(SuiteTest, SavedStoreRefitsOfflineBitIdentical) {
  const auto cfg = sim::make_random_cluster(6, /*seed=*/77);
  const SuiteOptions opts = quick_suite();

  vmpi::World world(cfg);
  SimExperimenter ex(world, quick_measure());
  MeasurementStore store;
  store.set_cluster(cfg.size(), 77);
  const SuiteReport cold = estimate_model_suite(ex, store, opts);
  EXPECT_EQ(store.size(), std::size_t(cold.measured));

  const std::string path = testing::TempDir() + "lmo_measurements_test.json";
  store.save(path);
  const MeasurementStore loaded = MeasurementStore::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.size(), store.size());
  EXPECT_EQ(loaded.cluster_size(), cfg.size());

  const SuiteReport refit = fit_model_suite(loaded, cfg.size(), opts);
  expect_same_suite_fits(cold, refit);
}

TEST(SuiteTest, WarmStoreMeasuresNothingAndFitsBitIdentical) {
  const auto cfg = sim::make_random_cluster(5, /*seed=*/5);
  const SuiteOptions opts = quick_suite();

  MeasurementStore store;
  SuiteReport cold;
  {
    vmpi::World world(cfg);
    SimExperimenter ex(world, quick_measure());
    cold = estimate_model_suite(ex, store, opts);
    EXPECT_GT(cold.world_runs, 0u);
  }
  // Same campaign against the warm store, on a fresh world: every key is
  // served from the cache, so nothing runs and the fits cannot drift.
  vmpi::World world(cfg);
  SimExperimenter ex(world, quick_measure());
  const SuiteReport warm = estimate_model_suite(ex, store, opts);
  EXPECT_EQ(warm.measured, 0u);
  EXPECT_EQ(warm.world_runs, 0u);
  EXPECT_EQ(warm.cached, std::size_t(cold.measured));
  expect_same_suite_fits(cold, warm);
}

// ------------------------------------------------- PLogP bisection --

/// FNV-1a over the raw bytes of the values added.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add_bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t k = 0; k < n; ++k) {
      h ^= p[k];
      h *= 1099511628211ull;
    }
  }
  template <class T>
  void add(T value) {
    add_bytes(&value, sizeof(T));
  }
  void add(const std::string& s) { add_bytes(s.data(), s.size()); }
  void add(const stats::PiecewiseLinear& f) {
    for (const double x : f.xs()) add(x);
    for (const double y : f.ys()) add(y);
  }
};

/// quick_suite() with PLogP's ladder up to 128 KB and the default
/// bisection tolerance: the rendezvous kink makes the sweep add midpoints.
SuiteOptions bisecting_suite() {
  SuiteOptions opts = quick_suite();
  opts.plogp = PLogPOptions{};
  opts.plogp.max_size = 128 * 1024;
  opts.plogp.saturation_count = 8;
  opts.loggp.large_size = opts.plogp.max_size;
  return opts;
}

/// A cold five-model campaign with bisection active, run once per suite.
class SuiteBisectionTest : public testing::Test {
 protected:
  static constexpr std::uint64_t kSeed = 3;

  static sim::ClusterConfig cluster() {
    return sim::make_random_cluster(6, kSeed);
  }

  static mpib::MeasureOptions measure(int jobs) {
    mpib::MeasureOptions m = quick_measure();
    m.jobs = jobs;
    return m;
  }

  struct Cold {
    MeasurementStore store;
    SuiteReport report;
  };

  static Cold run_cold(int jobs) {
    const auto cfg = cluster();
    vmpi::World world(cfg);
    SimExperimenter ex(world, measure(jobs));
    Cold c;
    c.store.set_cluster(cfg.size(), kSeed);
    c.report = estimate_model_suite(ex, c.store, bisecting_suite());
    return c;
  }

  static const Cold& cold() {
    static const Cold c = run_cold(1);
    return c;
  }
};

TEST_F(SuiteBisectionTest, SweepAddsMidpointsOffTheLadder) {
  // The fixture only guards the midpoint path if bisection really fires.
  std::set<Bytes> ladder{0};
  for (Bytes m = 1024; m <= bisecting_suite().plogp.max_size; m *= 2)
    ladder.insert(m);
  std::size_t off_ladder = 0;
  for (const ExperimentKey& k : cold().store.snapshot()->keys)
    if (k.kind == ExperimentKind::kSaturationGap && ladder.count(k.m_fwd) == 0)
      ++off_ladder;
  EXPECT_GT(off_ladder, 0u);
  EXPECT_GT(cold().report.plogp.averaged.g.size(), ladder.size());
}

TEST_F(SuiteBisectionTest, ReportCountsEveryStoredMeasurement) {
  EXPECT_EQ(cold().store.size(), cold().report.measured);
  EXPECT_EQ(cold().store.quarantined_count(), 0u);
}

TEST_F(SuiteBisectionTest, MatchesRecordedDigest) {
  // Store bytes, run count, cost bits and the averaged PLogP. The value
  // was recorded before the midpoints moved onto planned rounds: how they
  // are measured must not change a bit.
  const Cold& c = cold();
  Fnv fnv;
  fnv.add(c.store.to_json().dump());
  fnv.add(c.report.world_runs);
  fnv.add(c.report.estimation_cost.seconds());
  fnv.add(c.report.plogp.averaged.L);
  fnv.add(c.report.plogp.averaged.g);
  fnv.add(c.report.plogp.averaged.os);
  fnv.add(c.report.plogp.averaged.orr);
  EXPECT_EQ(fnv.h, 0x192cd6faecf3149aull) << std::hex << "0x" << fnv.h;
}

TEST_F(SuiteBisectionTest, WarmRerunMeasuresNothing) {
  MeasurementStore store =
      MeasurementStore::from_json(cold().store.to_json());
  const auto cfg = cluster();
  vmpi::World world(cfg);
  SimExperimenter ex(world, measure(1));
  const SuiteReport warm = estimate_model_suite(ex, store, bisecting_suite());
  EXPECT_EQ(warm.measured, 0u);
  EXPECT_EQ(warm.world_runs, 0u);
  EXPECT_EQ(warm.cached, cold().report.measured);
  expect_same_suite_fits(cold().report, warm);
}

TEST_F(SuiteBisectionTest, OfflineRefitIsBitIdentical) {
  const SuiteReport refit =
      fit_model_suite(cold().store, cluster().size(), bisecting_suite());
  expect_same_suite_fits(cold().report, refit);
}

TEST_F(SuiteBisectionTest, JobsDoNotChangeTheStore) {
  const Cold parallel = run_cold(4);
  EXPECT_EQ(parallel.store.to_json().dump(), cold().store.to_json().dump());
  EXPECT_EQ(parallel.report.world_runs, cold().report.world_runs);
  expect_same_suite_fits(cold().report, parallel.report);
}

// ------------------------------------------------- faulty campaign --

/// quick_measure() with all four fault classes on. Drops are frequent
/// enough that measured rounds run retry waves and three single
/// observations and three global samples retry, yet with this fault seed
/// no observation exhausts its retries.
mpib::MeasureOptions faulty_measure() {
  mpib::MeasureOptions m = quick_measure();
  m.jobs = 1;
  m.fault.spike_rate = 0.05;
  m.fault.drop_rate = 0.2;
  m.fault.hang_rate = 0.02;
  m.fault.slow_rate = 0.03;
  m.fault.seed = 11;
  return m;
}

TEST(SuiteFaultGoldenTest, FaultyCampaignMatchesRecordedDigest) {
  // A five-model campaign plus one batch of global samples, all under
  // faults: store bytes, run count, cost bits, the fitted parameters and
  // the fault/recovery counter deltas. Pins the recovery path against
  // refactors, not only against the --jobs level.
  const auto cfg = sim::make_random_cluster(5, /*seed=*/4);
  vmpi::World world(cfg);
  SimExperimenter ex(world, faulty_measure());
  MeasurementStore store;
  store.set_cluster(cfg.size(), cfg.seed);
  const obs::Snapshot before = obs::Registry::global().snapshot();
  const SuiteReport r = estimate_model_suite(ex, store, quick_suite());
  const std::vector<double> samples = ex.observe_global_samples(
      [](vmpi::Comm& c) { return coll::linear_scatter(c, 0, 16 * 1024); }, 8);
  const obs::Snapshot after = obs::Registry::global().snapshot();

  Fnv fnv;
  fnv.add(store.to_json().dump());
  fnv.add(r.world_runs);
  fnv.add(ex.runs());
  fnv.add(r.estimation_cost.ns());
  fnv.add(ex.cost().ns());
  for (const double x : samples) fnv.add(x);
  fnv.add(r.hockney.homogeneous.alpha);
  fnv.add(r.hockney.homogeneous.beta);
  fnv.add(r.loggp.logp.L);
  fnv.add(r.plogp.averaged.L);
  fnv.add(r.plogp.averaged.g);
  fnv.add(r.plogp.averaged.os);
  fnv.add(r.plogp.averaged.orr);
  for (const double x : r.lmo.params.C) fnv.add(x);
  for (const double x : r.lmo.params.t) fnv.add(x);
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      fnv.add(r.lmo.params.L(i, j));
      fnv.add(r.lmo.params.inv_beta(i, j));
    }
  fnv.add(r.gather.empirical.m1);
  fnv.add(r.gather.empirical.m2);
  fnv.add(r.scatter.empirical.leap_threshold);
  std::uint64_t faults = 0;
  for (const auto& [name, value] : after.counters) {
    if (name.rfind("fault.", 0) != 0 && name.rfind("recovery.", 0) != 0)
      continue;
    const auto it = before.counters.find(name);
    const std::uint64_t delta =
        value - (it == before.counters.end() ? 0 : it->second);
    fnv.add(name);
    fnv.add(delta);
    if (name.rfind("fault.", 0) == 0) faults += delta;
  }
  // The digest only pins the recovery path if faults really fired.
  EXPECT_GT(faults, 0u);
  EXPECT_EQ(fnv.h, 0xda58c448b1e009f6ull) << std::hex << "0x" << fnv.h;
}

// ---------------------------------------------- contended campaign --

/// Cold five-model campaigns through the one round packer: on a 16-rank
/// multicore tree (one switch, four nodes, four cores each, contended
/// memory buses), where keys also hold the contended switches on their
/// paths, and on the flat 16-node Table-I cluster, where they hold only
/// their participants.
class SuiteContendedGoldenTest : public testing::Test {
 protected:
  enum class Cluster { kMulticore, kFlat };

  static sim::ClusterConfig cluster(Cluster which) {
    return which == Cluster::kFlat
               ? sim::make_paper_cluster(/*seed=*/1)
               : sim::make_multicore_cluster(1, 4, 4, /*seed=*/1);
  }

  struct Cold {
    MeasurementStore store;
    SuiteReport report;
    std::uint64_t conflict_probes = 0;  ///< plan.conflict_probes delta
  };

  static Cold run_cold(Cluster which) {
    const auto cfg = cluster(which);
    vmpi::World world(cfg);
    SimExperimenter ex(world, quick_measure());
    Cold out;
    out.store.set_cluster(cfg.size(), cfg.seed);
    const obs::Counter probes =
        obs::Registry::global().counter("plan.conflict_probes");
    const std::uint64_t probes0 = probes.value();
    out.report = estimate_model_suite(ex, out.store, bisecting_suite());
    out.conflict_probes = probes.value() - probes0;
    return out;
  }

  static const Cold& cold(Cluster which) {
    if (which == Cluster::kFlat) {
      static const Cold flat = run_cold(which);
      return flat;
    }
    static const Cold multicore = run_cold(which);
    return multicore;
  }

  /// The plans of the campaign's two packed stages, rebuilt from the same
  /// declarations (stage 2 derives its orientations from the store).
  static std::vector<ExperimentPlan> stage_plans(Cluster which) {
    const auto cfg = cluster(which);
    const int n = cfg.size();
    SuiteOptions opts = bisecting_suite();
    opts.lmo.topology = &cfg.topology;
    PlanBuilder stage1(&cfg.topology);
    plan_hockney(stage1, n, opts.hockney);
    plan_loggp(stage1, n, opts.loggp);
    plan_plogp(stage1, n, opts.plogp);
    plan_lmo_roundtrips(stage1, n, opts.lmo);
    plan_gather_sweep(stage1, opts.empirical);
    plan_scatter_sweep(stage1, opts.empirical);
    PlanBuilder stage2(&cfg.topology);
    plan_lmo_one_to_two(stage2, cold(which).store, n, opts.lmo);
    return {stage1.build(true), stage2.build(true)};
  }

  /// Store bytes, run count, cost bits, and every packed round's kind,
  /// sizes and keys. Stage 3 (PLogP midpoints) runs one-key plans; its
  /// keys are in the store bytes.
  static std::uint64_t digest(Cluster which) {
    const Cold& c = cold(which);
    Fnv fnv;
    fnv.add(c.store.to_json().dump());
    fnv.add(c.report.world_runs);
    fnv.add(c.report.estimation_cost.ns());
    std::size_t packed = 0;
    for (const ExperimentPlan& plan : stage_plans(which)) {
      fnv.add(plan.rounds.size());
      for (const PlannedRound& r : plan.rounds) {
        fnv.add(r.kind);
        fnv.add(r.m_fwd);
        fnv.add(r.m_back);
        fnv.add(r.count);
        fnv.add(r.keys.size());
        for (const ExperimentKey& k : r.keys) fnv.add(k.to_json().dump());
        if (r.keys.size() > 1) ++packed;
      }
    }
    // The digest only pins packing if rounds really hold several
    // experiments.
    EXPECT_GT(packed, 0u);
    return fnv.h;
  }
};

TEST_F(SuiteContendedGoldenTest, CampaignMatchesRecordedDigest) {
  // Recorded before the contended packer was rewritten: how rounds are
  // packed must not change a bit.
  const std::uint64_t h = digest(Cluster::kMulticore);
  EXPECT_EQ(h, 0x86f65ce5cf13e68cull) << std::hex << "0x" << h;
}

TEST_F(SuiteContendedGoldenTest, FlatCampaignMatchesRecordedDigest) {
  // Recorded while flat clusters still had their own pair and triplet
  // packers: first-fit over participant ids must pack the same rounds.
  const std::uint64_t h = digest(Cluster::kFlat);
  EXPECT_EQ(h, 0xefd120aa0bb486f6ull) << std::hex << "0x" << h;
}

/// Every fitted LMO parameter of a campaign: C, t, both pair tables and
/// the per-level links. The store digests above pin what was measured;
/// this pins what the triplet solve makes of it, to the last bit.
std::uint64_t lmo_fit_digest(const core::LmoParams& p) {
  Fnv fnv;
  for (const double x : p.C) fnv.add(x);
  for (const double x : p.t) fnv.add(x);
  for (int i = 0; i < p.size(); ++i)
    for (int j = 0; j < p.size(); ++j) {
      fnv.add(p.L(i, j));
      fnv.add(p.inv_beta(i, j));
    }
  for (const core::LevelLink& link : p.per_level) {
    fnv.add(link.L);
    fnv.add(link.inv_beta);
    fnv.add(link.pairs);
  }
  return fnv.h;
}

TEST_F(SuiteContendedGoldenTest, LmoFitMatchesRecordedDigest) {
  const std::uint64_t h =
      lmo_fit_digest(cold(Cluster::kMulticore).report.lmo.params);
  EXPECT_EQ(h, 0xcef402b2c248f729ull) << std::hex << "0x" << h;
}

TEST_F(SuiteContendedGoldenTest, FlatLmoFitMatchesRecordedDigest) {
  const std::uint64_t h = lmo_fit_digest(cold(Cluster::kFlat).report.lmo.params);
  EXPECT_EQ(h, 0xd603bc6d2a7b19b9ull) << std::hex << "0x" << h;
}

TEST_F(SuiteContendedGoldenTest, ConflictProbesStayUnderCeiling) {
  // Bitmap words OR'd while packing the campaign: 240,991 on the
  // multicore tree when recorded. A packer that rescans rounds or probes
  // empty words blows through the ceiling. The flat cluster packs through
  // the same bitmaps over participant ids only: exactly 46,032 probes.
  EXPECT_GT(cold(Cluster::kMulticore).conflict_probes, 0u);
  EXPECT_LE(cold(Cluster::kMulticore).conflict_probes, 250000u);
  EXPECT_EQ(cold(Cluster::kFlat).conflict_probes, 46032u);
}

/// Closed-form platform on three nodes whose gap steepens past 4 KB, so
/// the 8 KB rung disagrees with the extrapolation and the sweep bisects
/// at 6 KB. Saturation-gap rounds at sizes off the doubling ladder can be
/// reported poisoned.
class KinkExperimenter final : public Experimenter {
 public:
  explicit KinkExperimenter(bool poison_midpoints)
      : poison_midpoints_(poison_midpoints) {}

  static constexpr Bytes kMidpoint = 6 * 1024;

  static PLogPOptions options() {
    PLogPOptions opts;
    opts.max_size = 8 * 1024;
    opts.saturation_count = 4;
    return opts;
  }

  [[nodiscard]] int size() const override { return 3; }

  [[nodiscard]] std::vector<SlotHealth> last_round_health() const override {
    return health_;
  }

  std::vector<double> roundtrip_round(const std::vector<Pair>& pairs, Bytes,
                                      Bytes) override {
    return round(pairs.size(), 4e-5, false);
  }
  std::vector<double> one_to_two_round(const std::vector<Triplet>& t, Bytes,
                                       Bytes) override {
    return round(t.size(), 6e-5, false);
  }
  double send_overhead(int, int, Bytes m) override { return overhead(m); }
  double recv_overhead(int, int, Bytes m) override { return overhead(m); }
  double saturation_gap(int, int, Bytes m, int) override { return gap(m); }
  std::vector<double> send_overhead_round(const std::vector<Pair>& pairs,
                                          Bytes m) override {
    return round(pairs.size(), overhead(m), false);
  }
  std::vector<double> recv_overhead_round(const std::vector<Pair>& pairs,
                                          Bytes m) override {
    return round(pairs.size(), overhead(m), false);
  }
  std::vector<double> saturation_gap_round(const std::vector<Pair>& pairs,
                                           Bytes m, int) override {
    const bool on_ladder = m == 0 || (m & (m - 1)) == 0;
    return round(pairs.size(), gap(m), poison_midpoints_ && !on_ladder);
  }
  double observe_scatter(int, Bytes) override { return 0.0; }
  double observe_gather(int, Bytes) override { return 0.0; }
  [[nodiscard]] std::uint64_t runs() const override { return runs_; }
  [[nodiscard]] SimTime cost() const override { return SimTime::zero(); }

 private:
  static double overhead(Bytes m) { return 5e-6 + double(m) * 1e-10; }
  static double gap(Bytes m) {
    const double base = 1e-5 + double(std::min<Bytes>(m, 4096)) * 1e-9;
    return m <= 4096 ? base : base + double(m - 4096) * 8e-9;
  }
  std::vector<double> round(std::size_t slots, double value, bool poisoned) {
    runs_ += slots;
    health_.assign(slots, poisoned ? SlotHealth::kPoisoned : SlotHealth::kOk);
    return std::vector<double>(slots, value);
  }

  bool poison_midpoints_;
  std::vector<SlotHealth> health_;
  std::uint64_t runs_ = 0;
};

TEST(PlogpMidpointTest, PoisonedMidpointsStayQuarantined) {
  KinkExperimenter ex(/*poison_midpoints=*/true);
  MeasurementStore store;
  const PLogPOptions opts = KinkExperimenter::options();
  const PLogPReport rep = estimate_plogp(ex, store, opts);
  const Bytes mid = KinkExperimenter::kMidpoint;
  for (const auto& [i, j] : rep.pairs) {
    // Quarantined: no clean value, but at() serves the suspect one.
    const auto gap =
        ExperimentKey::saturation_gap(i, j, mid, opts.saturation_count);
    EXPECT_FALSE(store.contains(gap)) << i << "->" << j;
    EXPECT_NO_THROW((void)store.at(gap)) << i << "->" << j;
    EXPECT_TRUE(store.contains(ExperimentKey::send_overhead(i, j, mid)));
    EXPECT_TRUE(store.contains(ExperimentKey::recv_overhead(i, j, mid)));
  }
  // Ladder 0, 1K, 2K, 4K, 8K plus the one midpoint, read as suspect.
  for (const auto& p : rep.per_pair) EXPECT_EQ(p.g.size(), 6u);
}

TEST(PlogpMidpointTest, OfflineFitNamesAMissingMidpoint) {
  KinkExperimenter ex(/*poison_midpoints=*/false);
  MeasurementStore full;
  const PLogPOptions opts = KinkExperimenter::options();
  (void)estimate_plogp(ex, full, opts);
  const ExperimentKey gone =
      ExperimentKey::send_overhead(1, 2, KinkExperimenter::kMidpoint);
  ASSERT_TRUE(full.contains(gone));
  MeasurementStore partial;
  const auto snap = full.snapshot();
  for (std::size_t k = 0; k < snap->size(); ++k)
    if (snap->keys[k] != gone) partial.insert(snap->keys[k], snap->values[k]);
  try {
    (void)fit_plogp(partial, ex.size(), opts);
    ADD_FAILURE() << "fit_plogp accepted a store without " << gone.describe();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(gone.describe()), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------- snapshot + races --

TEST(StoreSnapshotTest, ViewMatchesStoreAndSurvivesMutation) {
  MeasurementStore store;
  store.set_cluster(8, 42);
  const auto k1 = ExperimentKey::roundtrip(0, 1, 1024, 1024);
  const auto k2 = ExperimentKey::roundtrip(2, 3, 4096, 4096);
  const auto bad = ExperimentKey::roundtrip(4, 5, 64, 64);
  store.insert(k1, 1.5e-4);
  store.insert(k2, 3.25e-4);
  store.quarantine(bad, 9.0e-4);

  const auto snap = store.snapshot();
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_EQ(snap->cluster_size, 8);
  EXPECT_EQ(snap->cluster_seed, 42u);
  EXPECT_EQ(snap->find(k1), std::optional<double>(1.5e-4));
  EXPECT_EQ(snap->find(k2), std::optional<double>(3.25e-4));
  EXPECT_FALSE(snap->find(bad).has_value());  // quarantined: clean miss
  // The quarantined band holds the suspect value, apart from the clean one.
  ASSERT_EQ(snap->suspect_keys.size(), 1u);
  EXPECT_EQ(snap->suspect_keys[0], bad);
  EXPECT_EQ(snap->suspect_values[0], 9.0e-4);
  EXPECT_TRUE(std::is_sorted(snap->keys.begin(), snap->keys.end()));

  // Mutating the store does not touch the published view...
  store.insert(bad, 2.0e-4);
  EXPECT_EQ(snap->size(), 2u);
  EXPECT_FALSE(snap->find(bad).has_value());
  // ...but the next snapshot() sees the new state (quarantine lifted).
  const auto fresh = store.snapshot();
  EXPECT_EQ(fresh->find(bad), std::optional<double>(2.0e-4));
  EXPECT_TRUE(fresh->suspect_keys.empty());
  EXPECT_GT(fresh->version, snap->version);
}

TEST(StoreSnapshotTest, UnchangedStoreReturnsTheCachedView) {
  MeasurementStore store;
  store.insert(ExperimentKey::roundtrip(0, 1, 256, 256), 1.0e-4);
  const auto a = store.snapshot();
  const auto b = store.snapshot();
  EXPECT_EQ(a.get(), b.get());  // same published object, not a copy
  store.insert(ExperimentKey::roundtrip(0, 2, 256, 256), 2.0e-4);
  EXPECT_NE(store.snapshot().get(), a.get());
}

TEST(StoreSnapshotTest, VersionTracksEveryMutation) {
  MeasurementStore store;
  const std::uint64_t v0 = store.version();
  const auto key = ExperimentKey::roundtrip(0, 1, 512, 512);
  store.insert(key, 1.0e-4);
  const std::uint64_t v1 = store.version();
  EXPECT_GT(v1, v0);
  store.insert(key, 9.0e-4);  // first-write-wins no-op still counts a call
  store.quarantine(key, 5.0e-4);  // rejected (clean value): no bump
  EXPECT_EQ(store.quarantined_count(), 0u);
  store.set_cluster(4, 7);
  EXPECT_GT(store.version(), v1);
}

// The headline fix: concurrent readers on a store under active mutation.
// Before the shared_mutex/snapshot rework every reader serialized on one
// coarse mutex; now N threads hammer lookup/contains/at/snapshot while a
// writer inserts and quarantines, and TSan (the CI ThreadSanitizer job
// runs every *Parallel* suite) must see no race — with sane results
// throughout: a clean value, once published, is immutable.
TEST(StoreParallelTest, ReadersNeverBlockOrRaceWithWriters) {
  MeasurementStore store;
  store.set_cluster(16, 1);
  constexpr int kKeys = 256;
  auto key_at = [](int k) {
    return ExperimentKey::roundtrip(k % 15, 15, Bytes(64 + k), Bytes(64));
  };
  auto value_at = [](int k) { return 1.0e-4 + 1.0e-6 * k; };
  for (int k = 0; k < kKeys / 4; ++k) store.insert(key_at(k), value_at(k));

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  auto reader = [&] {
    std::uint64_t last_version = 0;
    while (!stop.load(std::memory_order_acquire)) {
      for (int k = 0; k < kKeys; ++k) {
        const auto seen = store.lookup(key_at(k));
        if (seen && *seen != value_at(k)) bad.fetch_add(1);
        if (store.contains(key_at(k)) && !store.lookup(key_at(k))) {
          bad.fetch_add(1);
        }
      }
      const auto snap = store.snapshot();
      if (snap->version < last_version) bad.fetch_add(1);
      last_version = snap->version;
      for (std::size_t i = 0; i < snap->size(); ++i) {
        if (!snap->find(snap->keys[i])) bad.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);

  // The writer interleaves inserts, duplicate inserts (first-write-wins
  // no-ops), and quarantines of never-cleaned keys.
  for (int k = 0; k < kKeys; ++k) {
    store.insert(key_at(k), value_at(k));
    store.insert(key_at(k), 99.0);  // must lose
    store.quarantine(
        ExperimentKey::send_overhead(k % 15, 15, Bytes(64 + k)), 5.0e-4);
    if (k % 16 == 0) (void)store.snapshot();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(store.size(), std::size_t(kKeys));
  EXPECT_EQ(store.quarantined_count(), std::size_t(kKeys));
  const auto final_snap = store.snapshot();
  EXPECT_EQ(final_snap->size(), std::size_t(kKeys));
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_EQ(store.at(key_at(k)), value_at(k));
  }
}


// Repetitions run on pooled sessions reset per use, so a cold paper-16
// campaign (over 15,000 repetitions) builds the anchor World plus at most
// `jobs` pooled sessions. The jobs=4 leg hands sessions between pool
// workers, which the TSan run checks.
TEST(SessionPoolParallelTest, ColdPaperCampaignBuildsAnchorPlusJobsSessions) {
  const obs::Counter built =
      obs::Registry::global().counter("sim.sessions_built");
  std::string serial_store;
  for (const int jobs : {1, 4}) {
    const std::uint64_t before = built.value();
    vmpi::World world(sim::make_paper_cluster(/*seed=*/1));
    mpib::MeasureOptions measure;
    measure.jobs = jobs;
    SimExperimenter ex(world, measure);
    MeasurementStore store;
    const SuiteReport r = estimate_model_suite(ex, store, SuiteOptions{});
    EXPECT_GT(r.measured, 0u);
    EXPECT_LE(built.value() - before, std::uint64_t(1 + jobs))
        << "jobs=" << jobs;
    if (jobs == 1)
      serial_store = store.to_json().dump();
    else
      EXPECT_EQ(store.to_json().dump(), serial_store);
  }
}

}  // namespace
}  // namespace lmo::estimate
