// Tests for the model-driven collective tuner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "coll/zoo.hpp"
#include "core/tuner.hpp"
#include "obs/metrics.hpp"
#include "simnet/cluster.hpp"
#include "util/error.hpp"
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

GatherEmpirical paper_band() {
  GatherEmpirical emp;
  emp.m1 = 4 * 1024;
  emp.m2 = 80 * 1024;
  emp.escalation_modes = {{0.10, 10, 0.6}, {0.25, 4, 0.4}};
  emp.linear_prob_at_m1 = 0.9;
  emp.linear_prob_at_m2 = 0.3;
  return emp;
}

Tuner make_tuner() {
  return Tuner(from_ground_truth(sim::make_paper_cluster()), paper_band());
}

TEST(TunerTest, ScatterLargeIsLinear) {
  const auto t = make_tuner();
  const auto d = t.decide(CollectiveKind::kScatter, 0, 150 * 1024);
  EXPECT_EQ(d.algorithm, AlgorithmId::kLinear);
  EXPECT_GT(d.predicted_seconds, 0.0);
}

TEST(TunerTest, ScatterTinyAvoidsFlatTree) {
  // At tiny sizes per-message fixed costs dominate and the root's n-1
  // serialized sends lose to any log-depth tree.
  const auto t = make_tuner();
  const auto d = t.decide(CollectiveKind::kScatter, 0, 16);
  EXPECT_NE(d.algorithm, AlgorithmId::kLinear);
}

TEST(TunerTest, MediumGatherStaysOutOfTheBand) {
  // Fig. 7: inside the escalation band the native linear gather pays the
  // expected escalation, so the tuner picks a plan that avoids it — a
  // segmented series or a different tree.
  const auto t = make_tuner();
  const auto d = t.decide(CollectiveKind::kGather, 0, 32 * 1024);
  const bool segmented_or_tree =
      d.segment > 0 || d.algorithm != AlgorithmId::kLinear;
  EXPECT_TRUE(segmented_or_tree) << d.describe();
  // And it must beat the expected (escalation-weighted) native gather.
  const double native =
      linear_gather_time(t.params(), paper_band(), 0, 32 * 1024).expected();
  EXPECT_LT(d.predicted_seconds, native);
}

TEST(TunerTest, SplitPlanIsAmongGatherCandidates) {
  // The Fig. 7 split plan (linear gather segmented at the band edge m1)
  // is always offered for in-band sizes.
  const auto t = make_tuner();
  const auto all = t.candidates(CollectiveKind::kGather, 0, 32 * 1024);
  const bool has_split =
      std::any_of(all.begin(), all.end(), [](const TunedDecision& d) {
        return d.algorithm == AlgorithmId::kLinear && d.segment == 4 * 1024;
      });
  EXPECT_TRUE(has_split);
}

TEST(TunerTest, BcastAvoidsFlatTree) {
  // Broadcast re-sends the same m on every arc, so the root's (n-1)
  // serialized sends always lose to a tree of some shape.
  const auto t = make_tuner();
  for (const Bytes m : {Bytes(64), Bytes(4096), Bytes(65536)})
    EXPECT_NE(t.decide(CollectiveKind::kBcast, 0, m).algorithm,
              AlgorithmId::kLinear)
        << m;
}

TEST(TunerTest, CandidatesCoverTheZoo) {
  const auto t = make_tuner();
  const auto all = t.candidates(CollectiveKind::kBcast, 0, 64 * 1024);
  auto has = [&](AlgorithmId id) {
    return std::any_of(all.begin(), all.end(), [id](const TunedDecision& d) {
      return d.algorithm == id;
    });
  };
  for (const AlgorithmId id : all_algorithms()) EXPECT_TRUE(has(id));
  // Segmented variants are offered when segments fit under the message.
  EXPECT_TRUE(std::any_of(all.begin(), all.end(), [](const TunedDecision& d) {
    return d.segment > 0;
  }));
  // Every candidate carries its own predicted cost and the invocation.
  for (const auto& d : all) {
    EXPECT_GT(d.predicted_seconds, 0.0);
    EXPECT_EQ(d.message, 64 * 1024);
    EXPECT_EQ(d.kind, CollectiveKind::kBcast);
  }
  // decide() is the argmin of candidates().
  const auto best = t.decide(CollectiveKind::kBcast, 0, 64 * 1024);
  for (const auto& d : all)
    EXPECT_GE(d.predicted_seconds, best.predicted_seconds);
}

TEST(TunerTest, MappingOnlyWhenItHelps) {
  const auto t = make_tuner();
  const auto with = t.decide(CollectiveKind::kBcast, 0, 4096);
  // The best plan without the climbed mapping: every other candidate.
  double without = std::numeric_limits<double>::infinity();
  for (const auto& d : t.candidates(CollectiveKind::kBcast, 0, 4096))
    if (d.mapping.empty()) without = std::min(without, d.predicted_seconds);
  EXPECT_LE(with.predicted_seconds, without);
  if (!with.mapping.empty()) {
    EXPECT_EQ(int(with.mapping.size()), t.params().size());
    EXPECT_EQ(with.mapping[0], 0);  // root stays
  }
}

TEST(TunerTest, DescribeCoversEveryAlgorithm) {
  for (const AlgorithmId id : all_algorithms()) {
    TunedDecision d;
    d.kind = CollectiveKind::kBcast;
    d.algorithm = id;
    EXPECT_EQ(d.describe(), algorithm_name(id));
    EXPECT_FALSE(d.describe().empty());
  }
  // Mapping and segment annotations.
  TunedDecision seg;
  seg.kind = CollectiveKind::kBcast;
  seg.algorithm = AlgorithmId::kChain;
  seg.segment = 8 * 1024;
  EXPECT_NE(seg.describe().find("seg@"), std::string::npos);
  TunedDecision split;
  split.kind = CollectiveKind::kGather;
  split.algorithm = AlgorithmId::kLinear;
  split.segment = 4 * 1024;
  EXPECT_NE(split.describe().find("split@"), std::string::npos);
  TunedDecision mapped;
  mapped.algorithm = AlgorithmId::kBinomial;
  mapped.mapping = {0, 2, 1};
  EXPECT_NE(mapped.describe().find("+mapping"), std::string::npos);
}

TEST(TunerTest, DecisionsBeatWorstCaseInSimulator) {
  // End to end: for each size, executing the tuner's decision is never
  // slower than the worse of the two plain paper algorithms.
  auto cfg = sim::make_paper_cluster();
  World w(cfg);
  const auto t = make_tuner();
  for (const Bytes m : {Bytes(1024), Bytes(32) * 1024}) {
    const auto d = t.decide(CollectiveKind::kScatter, 0, m);
    auto run = [&](core::TunedDecision dec) {
      double total = 0;
      for (int r = 0; r < 4; ++r)
        total += w.run(coll::spmd(16, [dec](Comm& c) -> Task {
                   co_await coll::run_decision(c, dec);
                 })).seconds();
      return total / 4;
    };
    TunedDecision lin = d;
    lin.algorithm = AlgorithmId::kLinear;
    lin.segment = 0;
    lin.mapping.clear();
    TunedDecision bin = lin;
    bin.algorithm = AlgorithmId::kBinomial;
    const double worst = std::max(run(lin), run(bin));
    EXPECT_LE(run(d), worst * 1.05) << "m=" << m;
  }
}

TEST(TunerTest, RejectsBadInput) {
  const auto t = make_tuner();
  EXPECT_THROW((void)t.decide(CollectiveKind::kScatter, 99, 1024), Error);
  EXPECT_THROW((void)t.decide(CollectiveKind::kScatter, 0, -1), Error);
}

TEST(TunerTest, RejectsParametersThePruningCannotTrust) {
  // decide() prunes on a lower bound that holds only for finite,
  // non-negative parameters; anything else is refused up front, by name.
  const LmoParams good = from_ground_truth(sim::make_paper_cluster());
  auto expect_named = [&](LmoParams p, const char* name) {
    try {
      (void)Tuner(std::move(p), paper_band());
      ADD_FAILURE() << "accepted " << name;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  };
  LmoParams p = good;
  p.C[2] = -1e-6;
  expect_named(p, "C[2]");
  p = good;
  p.t[5] = std::numeric_limits<double>::quiet_NaN();
  expect_named(p, "t[5]");
  p = good;
  p.L(1, 3) = std::numeric_limits<double>::infinity();
  expect_named(p, "L[1][3]");
  p = good;
  p.inv_beta(0, 1) = -1e-9;
  expect_named(p, "inv_beta[0][1]");
}

constexpr CollectiveKind kAllKinds[] = {
    CollectiveKind::kScatter, CollectiveKind::kGather, CollectiveKind::kBcast,
    CollectiveKind::kReduce};

/// FNV-1a over the raw bytes of the values added.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  template <class T>
  void add(T value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) {
      h ^= b;
      h *= 1099511628211ull;
    }
  }
};

/// Hash of every decide() over 4 ops x 1 KB..1 MB (11 sizes) x all roots:
/// algorithm, segment, mapping and the bit pattern of predicted_seconds,
/// plus the candidates() count on root 0 for each (op, size).
std::uint64_t decide_grid_digest(const sim::ClusterConfig& cfg) {
  TunerOptions opts;
  opts.topology = &cfg.topology;
  const Tuner t(from_ground_truth(cfg), paper_band(), opts);
  Fnv fnv;
  for (const CollectiveKind kind : kAllKinds)
    for (Bytes m = 1024; m <= 1024 * 1024; m *= 2) {
      fnv.add(std::uint64_t(t.candidates(kind, 0, m).size()));
      for (int root = 0; root < cfg.size(); ++root) {
        const TunedDecision d = t.decide(kind, root, m);
        fnv.add(std::int32_t(d.algorithm));
        fnv.add(std::int64_t(d.segment));
        fnv.add(std::uint64_t(d.mapping.size()));
        for (const int r : d.mapping) fnv.add(std::int32_t(r));
        fnv.add(d.predicted_seconds);
      }
    }
  return fnv.h;
}

// Golden digests of the decide grid. They pin the evaluators' arithmetic
// order: reordering any sum or max moves a predicted_seconds bit (or a
// chosen plan), and with it the hash. A deliberate model change re-records
// them.
TEST(TunerGoldenTest, FlatPaperClusterDecisionsUnchanged) {
  EXPECT_EQ(decide_grid_digest(sim::make_paper_cluster(1)),
            17307397152786260813ull);
}

TEST(TunerGoldenTest, ContendedHierarchyDecisionsUnchanged) {
  EXPECT_EQ(decide_grid_digest(sim::make_multicore_cluster(1, 4, 4, 1)),
            12469999022793129647ull);
}

/// Work of the decide() calls of decide_grid_digest's grid: messages the
/// schedule replays sent, candidates pruned, replays stopped at their
/// cutoff and cost-oracle calls of the mapping climb, read off the
/// counters; and the messages price() replays for each decision, the
/// winners' own replays, which no exact pruning can go under.
struct GridWork {
  std::uint64_t replay_sends = 0;
  std::uint64_t pruned = 0;
  std::uint64_t replays_cut = 0;
  std::uint64_t climb_evals = 0;
  std::uint64_t winner_sends = 0;
};

GridWork decide_grid_work(const sim::ClusterConfig& cfg) {
  TunerOptions opts;
  opts.topology = &cfg.topology;
  const Tuner t(from_ground_truth(cfg), paper_band(), opts);
  obs::Registry& reg = obs::Registry::global();
  const obs::Counter sends = reg.counter("tuner.replay_sends");
  const obs::Counter pruned = reg.counter("tuner.pruned");
  const obs::Counter cut = reg.counter("tuner.replays_cut");
  const obs::Counter evals = reg.counter("tuner.climb_evals");
  const GridWork before{sends.value(), pruned.value(), cut.value(),
                        evals.value()};
  std::uint64_t winner_sends = 0;
  for (const CollectiveKind kind : kAllKinds)
    for (Bytes m = 1024; m <= 1024 * 1024; m *= 2)
      for (int root = 0; root < cfg.size(); ++root) {
        const TunedDecision d = t.decide(kind, root, m);
        const std::uint64_t priced = sends.value();
        (void)t.price(d);
        winner_sends += sends.value() - priced;
      }
  return {sends.value() - before.replay_sends - winner_sends,
          pruned.value() - before.pruned, cut.value() - before.replays_cut,
          evals.value() - before.climb_evals, winner_sends};
}

// Ceilings on the golden grids' decide() work. Pricing every candidate
// replayed 5,211,120 messages on the paper cluster and 7,851,150 on the
// contended tree; with lower-bound pruning they replay 1,018,800 and
// 1,932,030; stopping each replay once it has lost the best price so far
// (2,564 and 3,278 replays cut) leaves 749,895 and 1,045,564. Pricing
// best first by a bound with critical-path terms (the pipeline's fill and
// drain), the same tails in every replay's cutoff and the climb's best as
// its swaps' cutoff leave 540,319 and 731,135 (372 and 4,344 cut). The
// winners' own replays are 330,030 and 590,040 of those, a floor no exact
// pruning goes under; the sends beyond it fell from 419,865 and 455,524
// to 210,289 and 141,095. A climb on every decide calls its cost oracle
// 214,799 and 173,954 times; skipping the climbs whose floor cannot win
// leaves 38,954 and 6,962. A decide() that stops pruning or cutting blows
// through the ceilings.
TEST(TunerWorkTest, PaperGridPrunesItsReplays) {
  const GridWork w = decide_grid_work(sim::make_paper_cluster(1));
  EXPECT_GT(w.pruned, 0u);
  EXPECT_GT(w.replays_cut, 0u);
  EXPECT_LE(w.replay_sends, 570000u);
  EXPECT_LE(w.replay_sends - w.winner_sends, 215000u);
  EXPECT_LE(w.climb_evals, 42000u);
}

TEST(TunerWorkTest, ContendedGridPrunesItsReplays) {
  const GridWork w = decide_grid_work(sim::make_multicore_cluster(1, 4, 4, 1));
  EXPECT_GT(w.pruned, 0u);
  EXPECT_GT(w.replays_cut, 0u);
  EXPECT_LE(w.replay_sends, 770000u);
  EXPECT_LE(w.replay_sends - w.winner_sends, 228000u);
  EXPECT_LE(w.climb_evals, 7600u);
}

/// The bit pattern of a price.
std::uint64_t bits(double seconds) {
  std::uint64_t out = 0;
  std::memcpy(&out, &seconds, sizeof out);
  return out;
}

/// decide(kind, root, m) is exactly the candidate with the least
/// (predicted_seconds, position in candidates()), to the bit.
void expect_argmin(const Tuner& t, CollectiveKind kind, int root, Bytes m,
                   const TunedDecision& d, const std::string& where) {
  const std::vector<TunedDecision> all = t.candidates(kind, root, m);
  const TunedDecision* best = &all.front();
  for (const TunedDecision& c : all)
    if (c.predicted_seconds < best->predicted_seconds) best = &c;
  EXPECT_EQ(d.algorithm, best->algorithm) << where;
  EXPECT_EQ(d.segment, best->segment) << where;
  EXPECT_EQ(d.mapping, best->mapping) << where;
  EXPECT_EQ(bits(d.predicted_seconds), bits(best->predicted_seconds)) << where;
}

TEST(TunerDifferentialTest, DecideIsTheArgminOfCandidates) {
  // On seeded random clusters — flat and contended, default and widened
  // segment grids — decide() returns exactly the candidate with the least
  // (predicted_seconds, position in candidates()).
  int pruned_somewhere = 0;
  const obs::Counter pruned =
      obs::Registry::global().counter("tuner.pruned");
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const sim::ClusterConfig cfg =
        seed % 4 == 0
            ? sim::make_multicore_cluster(1 + int(seed % 3), 2, 2, seed)
            : sim::make_random_cluster(5 + int(seed % 9), seed);
    TunerOptions opts;
    opts.topology = &cfg.topology;
    if (seed % 2 == 1)
      opts.segment_candidates = {1024, 2 * 1024, 8 * 1024, 32 * 1024,
                                 128 * 1024};
    const Tuner t(from_ground_truth(cfg), paper_band(), opts);
    for (const CollectiveKind kind : kAllKinds)
      for (const Bytes m : {Bytes(13), Bytes(3000), Bytes(70001),
                            Bytes(600000)}) {
        const int root =
            int((seed + std::uint64_t(m)) % std::uint64_t(cfg.size()));
        const std::uint64_t pruned0 = pruned.value();
        const TunedDecision d = t.decide(kind, root, m);
        if (pruned.value() > pruned0) ++pruned_somewhere;
        expect_argmin(t, kind, root, m, d,
                      "seed " + std::to_string(seed) + " m=" +
                          std::to_string(m));
      }
  }
  // The comparison only tests pruning if decisions really pruned.
  EXPECT_GT(pruned_somewhere, 0);

  // Small messages on the contended multicore(1,4,4) tree take both sides
  // of the mapping-climb skip: most floors already exceed the best other
  // price, and some climbed mappings win.
  const sim::ClusterConfig cfg = sim::make_multicore_cluster(1, 4, 4, 1);
  TunerOptions opts;
  opts.topology = &cfg.topology;
  const Tuner t(from_ground_truth(cfg), paper_band(), opts);
  const obs::Counter evals =
      obs::Registry::global().counter("tuner.climb_evals");
  int skipped = 0, mapped = 0;
  for (const CollectiveKind kind : kAllKinds)
    for (const Bytes m : {Bytes(1), Bytes(64), Bytes(512), Bytes(2048)})
      for (int root = 0; root < cfg.size(); root += 3) {
        const std::uint64_t evals0 = evals.value();
        const TunedDecision d = t.decide(kind, root, m);
        if (evals.value() == evals0) ++skipped;
        if (!d.mapping.empty()) ++mapped;
        expect_argmin(t, kind, root, m, d,
                      std::string("multicore ") + collective_name(kind) +
                          " root " + std::to_string(root) + " m=" +
                          std::to_string(m));
      }
  EXPECT_GT(skipped, 0);
  EXPECT_GT(mapped, 0);
}

TEST(TunerCutoffTest, TiedReplayRunsInFullAndTheEarlierCandidateWins) {
  // On two ranks every tree shape sends the same single message, and on a
  // contended cluster every candidate replays, so without segments the
  // linear, binomial, chain and binary-tree prices tie to the bit. The
  // later replays run with the linear price as their cutoff: a tie is
  // never cut off, and the linear tree, first in candidates(), wins.
  const sim::ClusterConfig cfg = sim::make_multicore_cluster(1, 1, 2, 1);
  ASSERT_TRUE(cfg.topology.constrains_concurrency());
  TunerOptions opts;
  opts.topology = &cfg.topology;
  opts.segment_candidates = {};
  const Tuner t(from_ground_truth(cfg), paper_band(), opts);
  const obs::Counter cut = obs::Registry::global().counter("tuner.replays_cut");
  for (const CollectiveKind kind :
       {CollectiveKind::kScatter, CollectiveKind::kReduce})
    for (const Bytes m : {Bytes(1024), Bytes(65536)}) {
      const std::vector<TunedDecision> all = t.candidates(kind, 0, m);
      ASSERT_GE(all.size(), 4u);
      for (const TunedDecision& c : all)
        ASSERT_EQ(bits(c.predicted_seconds), bits(all[0].predicted_seconds))
            << c.describe();
      const std::uint64_t cut0 = cut.value();
      const TunedDecision d = t.decide(kind, 0, m);
      EXPECT_EQ(cut.value(), cut0) << collective_name(kind) << " m=" << m;
      EXPECT_EQ(d.algorithm, AlgorithmId::kLinear);
      EXPECT_TRUE(d.mapping.empty());
      EXPECT_EQ(bits(d.predicted_seconds), bits(all[0].predicted_seconds));
    }
}

TEST(TunerCutoffTest, CandidatePricesStayFullWhenDecideCuts) {
  // decide() cuts replays off on the contended golden cluster; the prices
  // candidates() and price() report stay the full replays, bit for bit,
  // before and after.
  const sim::ClusterConfig cfg = sim::make_multicore_cluster(1, 4, 4, 1);
  TunerOptions opts;
  opts.topology = &cfg.topology;
  const Tuner t(from_ground_truth(cfg), paper_band(), opts);
  const obs::Counter cut = obs::Registry::global().counter("tuner.replays_cut");
  const std::uint64_t cut0 = cut.value();
  for (const CollectiveKind kind : kAllKinds)
    for (const Bytes m : {Bytes(4096), Bytes(262144)}) {
      const std::vector<TunedDecision> before = t.candidates(kind, 3, m);
      (void)t.decide(kind, 3, m);
      const std::vector<TunedDecision> after = t.candidates(kind, 3, m);
      ASSERT_EQ(before.size(), after.size());
      for (std::size_t i = 0; i < before.size(); ++i) {
        const std::string where = std::string(collective_name(kind)) +
                                  " m=" + std::to_string(m) + " " +
                                  before[i].describe();
        EXPECT_TRUE(std::isfinite(after[i].predicted_seconds)) << where;
        EXPECT_EQ(bits(after[i].predicted_seconds),
                  bits(before[i].predicted_seconds))
            << where;
        EXPECT_EQ(bits(t.price(after[i])), bits(after[i].predicted_seconds))
            << where;
      }
    }
  EXPECT_GT(cut.value(), cut0);
}

TEST(TunerParallelTest, SharedTunerDecidesLikeSerial) {
  // A const Tuner is shared by reader threads (the serving daemon does
  // this); a decide() that finds the shared scratch held uses its own.
  const auto cfg = sim::make_multicore_cluster(1, 4, 4, 1);
  TunerOptions opts;
  opts.topology = &cfg.topology;
  const Tuner tuner(from_ground_truth(cfg), paper_band(), opts);
  struct Query {
    CollectiveKind kind;
    int root;
    Bytes m;
  };
  std::vector<Query> queries;
  for (const CollectiveKind kind : kAllKinds)
    for (const Bytes m : {Bytes(4096), Bytes(65536)})
      for (int root = 0; root < cfg.size(); root += 5)
        queries.push_back({kind, root, m});
  std::vector<TunedDecision> serial;
  for (const Query& q : queries)
    serial.push_back(tuner.decide(q.kind, q.root, q.m));

  constexpr int kThreads = 4;
  std::vector<std::vector<TunedDecision>> got(kThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k)
    threads.emplace_back([&, k] {
      // Each thread walks the queries from a different offset so the
      // threads overlap on different evaluations.
      got[std::size_t(k)].resize(queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::size_t q = (i + std::size_t(k) * 3) % queries.size();
        got[std::size_t(k)][q] =
            tuner.decide(queries[q].kind, queries[q].root, queries[q].m);
      }
    });
  for (std::thread& th : threads) th.join();
  for (int k = 0; k < kThreads; ++k)
    for (std::size_t q = 0; q < queries.size(); ++q) {
      const TunedDecision& a = serial[q];
      const TunedDecision& b = got[std::size_t(k)][q];
      EXPECT_EQ(a.algorithm, b.algorithm) << "thread " << k << " query " << q;
      EXPECT_EQ(a.segment, b.segment) << "thread " << k << " query " << q;
      EXPECT_EQ(a.mapping, b.mapping) << "thread " << k << " query " << q;
      EXPECT_EQ(a.predicted_seconds, b.predicted_seconds)
          << "thread " << k << " query " << q;
    }
}

TEST(TunerParallelTest, ConcurrentDecidesMatchSerial) {
  // Four threads sweep the flat golden grid on one const Tuner: one of them
  // at a time holds the Tuner's shared scratch, the others evaluate in
  // scratches of their own. Every decision matches a serial sweep, its
  // price to the bit.
  const auto cfg = sim::make_paper_cluster(1);
  TunerOptions opts;
  opts.topology = &cfg.topology;
  const Tuner tuner(from_ground_truth(cfg), paper_band(), opts);
  auto sweep = [&] {
    std::vector<TunedDecision> out;
    for (const CollectiveKind kind : kAllKinds)
      for (Bytes m = 1024; m <= 1024 * 1024; m *= 2)
        for (int root = 0; root < cfg.size(); ++root)
          out.push_back(tuner.decide(kind, root, m));
    return out;
  };
  const std::vector<TunedDecision> serial = sweep();

  constexpr int kThreads = 4;
  std::vector<std::vector<TunedDecision>> got(kThreads);
  std::vector<std::thread> threads;
  for (int k = 0; k < kThreads; ++k)
    threads.emplace_back([&, k] { got[std::size_t(k)] = sweep(); });
  for (std::thread& th : threads) th.join();
  for (int k = 0; k < kThreads; ++k) {
    ASSERT_EQ(got[std::size_t(k)].size(), serial.size());
    for (std::size_t q = 0; q < serial.size(); ++q) {
      const TunedDecision& a = serial[q];
      const TunedDecision& b = got[std::size_t(k)][q];
      EXPECT_EQ(a.algorithm, b.algorithm) << "thread " << k << " query " << q;
      EXPECT_EQ(a.segment, b.segment) << "thread " << k << " query " << q;
      EXPECT_EQ(a.mapping, b.mapping) << "thread " << k << " query " << q;
      EXPECT_EQ(bits(a.predicted_seconds), bits(b.predicted_seconds))
          << "thread " << k << " query " << q;
    }
  }
}

}  // namespace
}  // namespace lmo::core
