// Tests for the collective algorithm zoo: every zoo member has a
// prediction/simulation pair, and the pair agrees — the tuner never
// prices a schedule the simulator would run differently.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "coll/zoo.hpp"
#include "core/predictions.hpp"
#include "core/tuner.hpp"
#include "simnet/cluster.hpp"
#include "trees/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sweep.hpp"
#include "vmpi/world.hpp"

#include "random_tree.hpp"

namespace lmo {
namespace {

using coll::run_decision;
using coll::spmd;
using core::AlgorithmId;
using core::CollectiveKind;
using core::LmoParams;
using trees::TreeKind;
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

/// The paper's heterogeneous cluster with noise and TCP quirks off:
/// deterministic timings the LMO ground truth describes exactly.
sim::ClusterConfig quiet_paper_cluster() {
  auto cfg = sim::make_paper_cluster();
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  return cfg;
}

double simulate(World& w, const core::TunedDecision& d) {
  return w.run(spmd(w.size(), [d](Comm& c) -> Task {
            co_await run_decision(c, d);
          }))
      .seconds();
}

core::TunedDecision make_decision(CollectiveKind kind, AlgorithmId id,
                                  Bytes m, Bytes segment = 0,
                                  std::vector<int> mapping = {}) {
  core::TunedDecision d;
  d.kind = kind;
  d.algorithm = id;
  d.root = 0;
  d.message = m;
  d.segment = segment;
  d.mapping = std::move(mapping);
  return d;
}

TreeKind shape_of(AlgorithmId id) {
  if (id == AlgorithmId::kBinomial) return TreeKind::kBinomial;
  if (id == AlgorithmId::kChain) return TreeKind::kChain;
  if (id == AlgorithmId::kBinaryTree) return TreeKind::kBinary;
  return TreeKind::kFlat;
}

/// `d` replayed by a test-owned ScheduleSet over `topo` (nullptr: the
/// port-only model): the schedule evaluator itself, without the tuner's
/// routing.
double replay(const LmoParams& p, const core::TunedDecision& d,
              const sim::Topology* topo = nullptr) {
  const core::ScheduleSet set(p.size(), topo);
  core::ScheduleScratch scratch;
  if (d.algorithm == AlgorithmId::kScatterAllgather)
    return set.scatter_allgather_bcast_time(p, d.root, d.message, scratch);
  return set.tree_time(p, shape_of(d.algorithm), d.kind, d.root, d.message,
                       d.mapping, d.segment, scratch);
}

TEST(ZooParity, EveryTreeAlgorithmMatchesItsPredictor) {
  const auto cfg = quiet_paper_cluster();
  const auto p = from_ground_truth(cfg);
  World w(cfg);
  const std::vector<AlgorithmId> shapes = {
      AlgorithmId::kLinear, AlgorithmId::kChain, AlgorithmId::kBinaryTree,
      AlgorithmId::kBinomial};
  const std::vector<CollectiveKind> kinds = {
      CollectiveKind::kScatter, CollectiveKind::kGather,
      CollectiveKind::kBcast, CollectiveKind::kReduce};
  for (const auto kind : kinds)
    for (const auto id : shapes)
      for (const Bytes segment : {Bytes(0), Bytes(1024)}) {
        const auto d = make_decision(kind, id, 10 * 1024, segment);
        const double predicted = replay(p, d);
        const double simulated = simulate(w, d);
        EXPECT_NEAR(predicted, simulated, simulated * 0.02)
            << core::collective_name(kind) << "/" << d.describe();
      }
}

TEST(ZooParity, MappedTreesMatchTheirPredictor) {
  const auto cfg = quiet_paper_cluster();
  const auto p = from_ground_truth(cfg);
  const int n = cfg.size();
  World w(cfg);
  // A non-trivial permutation with the root fixed at virtual position 0.
  std::vector<int> mapping(static_cast<std::size_t>(n), 0);
  mapping[0] = 0;
  for (int v = 1; v < n; ++v) mapping[std::size_t(v)] = n - v;
  for (const auto id : {AlgorithmId::kBinomial, AlgorithmId::kChain}) {
    const auto d =
        make_decision(CollectiveKind::kBcast, id, 8 * 1024, 0, mapping);
    const double predicted = replay(p, d);
    const double simulated = simulate(w, d);
    EXPECT_NEAR(predicted, simulated, simulated * 0.02) << d.describe();
  }
}

TEST(ZooParity, ScatterAllgatherBcastMatchesItsPredictor) {
  const auto cfg = quiet_paper_cluster();
  const auto p = from_ground_truth(cfg);
  World w(cfg);
  const auto d = make_decision(CollectiveKind::kBcast,
                               AlgorithmId::kScatterAllgather, 64 * 1024);
  const double predicted = replay(p, d);
  const double simulated = simulate(w, d);
  // The composite's ring phase uses the closed non-pipelined step bound,
  // so allow a looser band than the schedule evaluator's.
  EXPECT_NEAR(predicted, simulated, simulated * 0.15) << d.describe();
}

TEST(ZooParity, BinomialReduceHonorsMappingLikeItsPredictor) {
  // coll::tree_reduce takes the same mapping the tuner prices a binomial
  // reduce under.
  const auto cfg = quiet_paper_cluster();
  const auto p = from_ground_truth(cfg);
  const int n = cfg.size();
  World w(cfg);
  std::vector<int> mapping(static_cast<std::size_t>(n), 0);
  mapping[0] = 0;
  for (int v = 1; v < n; ++v) mapping[std::size_t(v)] = n - v;
  const Bytes m = 16 * 1024;
  auto simulate_reduce = [&](std::vector<int> map) {
    return w.run(spmd(n, [m, map](Comm& c) -> Task {
              co_await coll::tree_reduce(c, trees::TreeKind::kBinomial, 0, m,
                                         map);
            }))
        .seconds();
  };
  const double sim_default = simulate_reduce({});
  const double sim_mapped = simulate_reduce(mapping);
  // The mapping must actually steer the schedule on this heterogeneous
  // cluster, and each variant must match its prediction.
  EXPECT_NE(sim_default, sim_mapped);
  const core::Tuner tuner(p, core::GatherEmpirical{});
  EXPECT_NEAR(tuner.price(make_decision(CollectiveKind::kReduce,
                                        AlgorithmId::kBinomial, m)),
              sim_default, sim_default * 0.02);
  EXPECT_NEAR(tuner.price(make_decision(CollectiveKind::kReduce,
                                        AlgorithmId::kBinomial, m, 0,
                                        mapping)),
              sim_mapped, sim_mapped * 0.02);
}

/// The price the tuner's routing names for `d`, from the kept closed
/// forms and a test-owned ScheduleSet: the linear closed forms and the
/// binomial recursion for unsegmented linear/binomial on uncontended
/// clusters, the schedule replay for the rest.
double free_price(const LmoParams& p, const core::TunedDecision& d,
                  const sim::Topology* topo, bool contended) {
  const bool closed = !contended && d.segment == 0;
  if (closed && d.algorithm == AlgorithmId::kLinear) {
    switch (d.kind) {
      case CollectiveKind::kScatter:
        return core::linear_scatter_time(p, d.root, d.message);
      case CollectiveKind::kGather:
        return core::linear_gather_time(p, {}, d.root, d.message).expected();
      case CollectiveKind::kBcast:
        return core::linear_bcast_time(p, d.root, d.message);
      case CollectiveKind::kReduce:
        return core::linear_reduce_time(p, d.root, d.message);
    }
  }
  if (closed && d.algorithm == AlgorithmId::kBinomial) {
    const core::ScheduleSet set(p.size(), topo);
    core::ScheduleScratch scratch;
    return set.binomial_closed_time(p, d.kind, d.root, d.message, d.mapping,
                                    scratch);
  }
  return replay(p, d, topo);
}

/// Tuner::price and free_price agree to the bit on every shape x kind x
/// segment grid entry x {default, optimized} mapping (the optimized one is
/// the tuner's own climb result): the tuner routes each decision to the
/// evaluator free_price names.
void expect_one_replay_path(const sim::ClusterConfig& cfg) {
  const auto p = from_ground_truth(cfg);
  core::TunerOptions opts;
  opts.topology = &cfg.topology;
  const core::Tuner tuner(p, core::GatherEmpirical{}, opts);
  const bool contended =
      !cfg.topology.empty() && cfg.topology.constrains_concurrency();
  // Unsegmented, then the tuner's fixed segment grid.
  const std::vector<Bytes> segments = {0, 2 * 1024, 8 * 1024, 32 * 1024};
  const Bytes m = 64 * 1024;
  const int root = 3;
  for (const auto kind :
       {CollectiveKind::kScatter, CollectiveKind::kGather,
        CollectiveKind::kBcast, CollectiveKind::kReduce}) {
    std::vector<int> optimized;
    for (const auto& d : tuner.candidates(kind, root, m))
      if (!d.mapping.empty()) optimized = d.mapping;
    ASSERT_EQ(int(optimized.size()), cfg.size());
    for (const auto id :
         {AlgorithmId::kLinear, AlgorithmId::kBinomial, AlgorithmId::kChain,
          AlgorithmId::kBinaryTree})
      for (const Bytes segment : segments)
        for (const auto& mapping : {std::vector<int>{}, optimized}) {
          auto d = make_decision(kind, id, m, segment, mapping);
          d.root = root;
          EXPECT_EQ(tuner.price(d),
                    free_price(p, d, &cfg.topology, contended))
              << core::collective_name(kind) << "/" << d.describe();
        }
  }
  auto composite = make_decision(CollectiveKind::kBcast,
                                 AlgorithmId::kScatterAllgather, m);
  composite.root = root;
  EXPECT_EQ(tuner.price(composite),
            free_price(p, composite, &cfg.topology, contended));
}

TEST(ReplayParity, TunerMatchesFreeEvaluatorsOnFlatCluster) {
  expect_one_replay_path(quiet_paper_cluster());
}

TEST(ReplayParity, TunerMatchesFreeEvaluatorsOnContendedHierarchy) {
  const auto cfg = sim::make_multicore_cluster(1, 4, 4);
  ASSERT_TRUE(cfg.topology.constrains_concurrency());
  expect_one_replay_path(cfg);
}

TEST(InverseMapping, ValidatesPermutations) {
  EXPECT_TRUE(trees::inverse_mapping({}, 4).empty());
  const auto inv = trees::inverse_mapping({0, 3, 1, 2}, 4);
  ASSERT_EQ(inv.size(), 4u);
  EXPECT_EQ(inv[0], 0);
  EXPECT_EQ(inv[3], 1);
  EXPECT_EQ(inv[1], 2);
  EXPECT_EQ(inv[2], 3);
  EXPECT_THROW((void)trees::inverse_mapping({0, 1, 1, 2}, 4), Error);
  EXPECT_THROW((void)trees::inverse_mapping({0, 1, 2, 4}, 4), Error);
  EXPECT_THROW((void)trees::inverse_mapping({0, 1, 2, -1}, 4), Error);
  EXPECT_THROW((void)trees::inverse_mapping({0, 1, 2}, 4), Error);
}

// ------------------------------------------------ replay lower bound --

/// Random LMO parameters over n ranks, each term >= 0; about one in ten
/// is exactly zero, so ties and empty terms occur.
LmoParams random_params(Rng& rng, int n) {
  auto draw = [&](double hi) {
    return rng.chance(0.1) ? 0.0 : rng.uniform(0.0, hi);
  };
  LmoParams p;
  p.L = models::PairTable(n);
  p.inv_beta = models::PairTable(n);
  for (int i = 0; i < n; ++i) {
    p.C.push_back(draw(1e-4));
    p.t.push_back(draw(1e-7));
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      p.L(i, j) = draw(1e-4);
      p.inv_beta(i, j) = draw(1e-7);
    }
  }
  return p;
}

TEST(TreeLowerBound, NeverExceedsTheReplay) {
  // Flat (no topology), contended multicore and irregular trees; every
  // shape x kind; segments of 0, dividing, non-dividing and >= m (some
  // below the minimal frame); default and random mappings. The decide()
  // pruning relies on bound <= replay up to far less than its 1e-9 slack.
  Rng rng(17);
  for (int trial = 0; trial < 24; ++trial) {
    sim::Topology topo;
    int n = int(rng.uniform_int(2, 20));
    if (trial % 3 == 1) {
      topo = sim::make_multicore_cluster(int(rng.uniform_int(1, 2)),
                                         int(rng.uniform_int(1, 3)),
                                         int(rng.uniform_int(2, 4)),
                                         std::uint64_t(trial))
                 .topology;
      ASSERT_TRUE(topo.constrains_concurrency());
    } else if (trial % 3 == 2) {
      topo = test_support::random_contended_tree(rng, /*irregular=*/true);
    }
    if (!topo.empty()) n = topo.ranks();
    const LmoParams p = random_params(rng, n);
    const core::ScheduleSet set(n, topo.empty() ? nullptr : &topo);
    core::ScheduleScratch scratch;
    const int root = int(rng.uniform_int(0, n - 1));
    std::vector<int> shuffled(static_cast<std::size_t>(n));
    std::iota(shuffled.begin(), shuffled.end(), 0);
    std::swap(shuffled[0], shuffled[std::size_t(root)]);
    for (std::size_t i = shuffled.size(); i > 2; --i)
      std::swap(shuffled[i - 1],
                shuffled[std::size_t(rng.uniform_int(1, std::int64_t(i) - 1))]);
    const Bytes piece = rng.uniform_int(1, 3000);
    const Bytes m = piece * rng.uniform_int(2, 12);
    for (const Bytes size : {Bytes(0), Bytes(1), m})
      for (const Bytes segment :
           {Bytes(0), piece, piece + 1, size, size + 7})
        for (const auto shape : {TreeKind::kFlat, TreeKind::kChain,
                                 TreeKind::kBinary, TreeKind::kBinomial})
          for (const auto kind :
               {CollectiveKind::kScatter, CollectiveKind::kGather,
                CollectiveKind::kBcast, CollectiveKind::kReduce})
            for (const auto& mapping : {std::vector<int>{}, shuffled}) {
              const double replay = set.tree_time(p, shape, kind, root, size,
                                                  mapping, segment, scratch);
              const double bound = set.tree_lower_bound(
                  p, shape, kind, root, size, mapping, segment, scratch);
              EXPECT_GE(bound, 0.0);
              EXPECT_LE(bound, replay * (1.0 + 1e-12))
                  << "trial " << trial << " n=" << n << " m=" << size
                  << " segment=" << segment << " shape " << int(shape)
                  << " kind " << core::collective_name(kind);
            }
  }
}

TEST(TreeLowerBound, SeesThePipelineFill) {
  // A segmented chain on uniform parameters: every chunk crosses n - 1
  // hops, and the last rank processes all S chunks, so no replay finishes
  // before (n - 1) hops + S x proc. A bound made of per-rank occupancy
  // alone misses the fill; the critical-path terms bring it within 5% of
  // the replay.
  const int n = 10;
  const double C = 20e-6, t = 1e-9, L = 50e-6, inv_beta = 8e-9;
  LmoParams p;
  p.C.assign(std::size_t(n), C);
  p.t.assign(std::size_t(n), t);
  p.L = models::PairTable(n, L);
  p.inv_beta = models::PairTable(n, inv_beta);
  const core::ScheduleSet set(n, nullptr);
  core::ScheduleScratch scratch;
  const Bytes segment = 1024, m = 32 * segment;
  const double proc = C + double(segment) * t;
  const double hop = L + double(segment) * inv_beta + proc;
  const double chunks = double(core::chunk_count(m, segment));
  ASSERT_GE(chunks, 16.0);
  for (const auto kind : {CollectiveKind::kBcast, CollectiveKind::kReduce})
    for (const int root : {0, 3}) {
      const double replay = set.tree_time(p, TreeKind::kChain, kind, root, m,
                                          {}, segment, scratch);
      const double bound = set.tree_lower_bound(p, TreeKind::kChain, kind,
                                                root, m, {}, segment, scratch);
      const std::string where =
          std::string(core::collective_name(kind)) + " root " +
          std::to_string(root);
      EXPECT_GE(bound, double(n - 1) * hop + chunks * proc) << where;
      EXPECT_GE(bound, 0.95 * replay) << where;
      EXPECT_LE(bound, replay * (1.0 + 1e-12)) << where;
    }
}

TEST(ReplayCutoff, ReturnsTheFullPriceOrInfinity) {
  // A replay given a cutoff returns its full price, to the bit, or +inf,
  // and +inf only when that price exceeds the cutoff: a cutoff equal to
  // the price (a tie) or above it never stops the replay. Flat, contended
  // multicore and irregular trees; every shape x kind and the composite
  // broadcast; unsegmented, segmented and default or random mappings.
  Rng rng(29);
  std::uint64_t total_cuts = 0, checked = 0;
  for (int trial = 0; trial < 18; ++trial) {
    sim::Topology topo;
    if (trial % 3 == 1)
      topo = sim::make_multicore_cluster(1, int(rng.uniform_int(1, 3)),
                                         int(rng.uniform_int(2, 4)),
                                         std::uint64_t(trial))
                 .topology;
    else if (trial % 3 == 2)
      topo = test_support::random_contended_tree(rng, /*irregular=*/true);
    const int n = topo.empty() ? int(rng.uniform_int(2, 20)) : topo.ranks();
    const LmoParams p = random_params(rng, n);
    const core::ScheduleSet set(n, topo.empty() ? nullptr : &topo);
    core::ScheduleScratch scratch;
    const int root = int(rng.uniform_int(0, n - 1));
    std::vector<int> shuffled = trees::default_mapping(n, root);
    for (std::size_t i = shuffled.size(); i > 2; --i)
      std::swap(shuffled[i - 1],
                shuffled[std::size_t(rng.uniform_int(1, std::int64_t(i) - 1))]);
    const Bytes m = rng.uniform_int(1, 40000);
    std::uint64_t cuts = 0;
    auto expect_full_or_cut = [&](double full, const auto& price,
                                  const std::string& where) {
      for (const double cutoff :
           {full, std::nextafter(full, 1.0), full * 0.999, full * 0.5, 0.0}) {
        const double got = price(cutoff);
        ++checked;
        if (std::isinf(got)) {
          ++cuts;
          EXPECT_GT(full, cutoff) << where;
        } else {
          EXPECT_EQ(got, full) << where << " cutoff " << cutoff;
        }
      }
    };
    for (const Bytes segment : {Bytes(0), m / 7 + 1})
      for (const auto shape : {TreeKind::kFlat, TreeKind::kChain,
                               TreeKind::kBinary, TreeKind::kBinomial})
        for (const auto kind :
             {CollectiveKind::kScatter, CollectiveKind::kGather,
              CollectiveKind::kBcast, CollectiveKind::kReduce})
          for (const auto& mapping : {std::vector<int>{}, shuffled}) {
            auto price = [&](double cutoff) {
              return set.tree_time(p, shape, kind, root, m, mapping, segment,
                                   scratch, cutoff);
            };
            expect_full_or_cut(
                price(core::kNoCutoff), price,
                "trial " + std::to_string(trial) + " n=" + std::to_string(n) +
                    " segment=" + std::to_string(segment) + " shape " +
                    std::to_string(int(shape)) + " " +
                    core::collective_name(kind));
          }
    auto composite = [&](double cutoff) {
      return set.scatter_allgather_bcast_time(p, root, m, scratch, cutoff);
    };
    expect_full_or_cut(composite(core::kNoCutoff), composite,
                       "trial " + std::to_string(trial) + " composite");
    EXPECT_EQ(scratch.cuts, cuts) << "trial " << trial;
    total_cuts += cuts;
  }
  // Some cutoffs below the price must really stop a replay.
  EXPECT_GT(total_cuts, 0u);
  EXPECT_LT(total_cuts, checked);
}

TEST(ReplayOrder, EqualPostTimesGrantTheLowerRankFirst) {
  // A flat gather to rank 0 whose children both post at time 0 (their C
  // and t are 0) over links of different inv_beta. The root receives from
  // rank 1 first, and its C is below both wire times, so the order in
  // which the children take its ingress port moves the price: rank 1
  // first lands at w1 and w1 + w2, and the root ends at
  // max(w1 + c0, w1 + w2) + c0; rank 2 first lands at w2 and w2 + w1, and
  // the root ends at max(w2 + w1 + c0, w2) + c0, one c0 later.
  const int n = 3;
  const double c0 = 1e-4;
  LmoParams p;
  p.C = {c0, 0.0, 0.0};
  p.t = {0.0, 0.0, 0.0};
  p.L = models::PairTable(n, 0.0);
  p.inv_beta = models::PairTable(n, 1e-6);
  p.inv_beta(2, 0) = 2e-6;
  const core::ScheduleSet set(n, nullptr);
  core::ScheduleScratch scratch;
  const double price =
      set.tree_time(p, TreeKind::kFlat, CollectiveKind::kGather, 0, 1000, {},
                    0, scratch);
  const double w1 = 1000.0 * 1e-6, w2 = 1000.0 * 2e-6;
  const double lower_first = std::max(w1 + c0, w1 + w2) + c0;
  const double higher_first = std::max(w2 + w1 + c0, w2) + c0;
  ASSERT_NE(lower_first, higher_first);
  EXPECT_EQ(price, lower_first);
}

TEST(ClosedFormFloor, BelowTheClosedFormBelowTheReplay) {
  // The mapping-free floor decide() skips the binomial mapping climb on:
  // the binomial closed form with every processor and link at its table's
  // minimum. On flat clusters, contended multicore and irregular trees,
  // under default and random mappings, it never exceeds the closed form,
  // and the closed form never exceeds the (contended) replay by more than
  // decide()'s 1e-9 slack. A homogeneous cluster at the floor's terms
  // prices exactly at the floor.
  Rng rng(41);
  for (int trial = 0; trial < 30; ++trial) {
    sim::Topology topo;
    int n = int(rng.uniform_int(2, 20));
    if (trial % 3 == 1) {
      topo = sim::make_multicore_cluster(int(rng.uniform_int(1, 2)),
                                         int(rng.uniform_int(1, 3)),
                                         int(rng.uniform_int(2, 4)),
                                         std::uint64_t(trial))
                 .topology;
      ASSERT_TRUE(topo.constrains_concurrency());
    } else if (trial % 3 == 2) {
      topo = test_support::random_contended_tree(rng, /*irregular=*/true);
    }
    if (!topo.empty()) n = topo.ranks();
    LmoParams p = random_params(rng, n);
    if (trial % 2 == 1) {
      // Lift every term off zero, so the minima (and the floor) are not.
      for (int i = 0; i < n; ++i) {
        p.C[std::size_t(i)] += 5e-5;
        p.t[std::size_t(i)] += 5e-8;
        for (int j = 0; j < n; ++j) {
          p.L(i, j) += 5e-5;
          p.inv_beta(i, j) += 5e-8;
        }
      }
    }
    core::UniformLmo lo{p.C[0], p.t[0], p.L(0, 1), p.inv_beta(0, 1)};
    for (int i = 0; i < n; ++i) {
      lo.C = std::min(lo.C, p.C[std::size_t(i)]);
      lo.t = std::min(lo.t, p.t[std::size_t(i)]);
      for (int j = 0; j < n; ++j) {
        if (j == i) continue;
        lo.L = std::min(lo.L, p.L(i, j));
        lo.inv_beta = std::min(lo.inv_beta, p.inv_beta(i, j));
      }
    }
    LmoParams at_floor;
    at_floor.C.assign(std::size_t(n), lo.C);
    at_floor.t.assign(std::size_t(n), lo.t);
    at_floor.L = models::PairTable(n, lo.L);
    at_floor.inv_beta = models::PairTable(n, lo.inv_beta);
    const core::ScheduleSet set(n, topo.empty() ? nullptr : &topo);
    core::ScheduleScratch scratch;
    const int root = int(rng.uniform_int(0, n - 1));
    std::vector<std::vector<int>> mappings = {{}};
    for (int k = 0; k < 3; ++k) {
      std::vector<int> mapping = trees::default_mapping(n, root);
      for (std::size_t i = mapping.size(); i > 2; --i)
        std::swap(mapping[i - 1],
                  mapping[std::size_t(rng.uniform_int(1, std::int64_t(i) - 1))]);
      mappings.push_back(std::move(mapping));
    }
    for (const Bytes m : {Bytes(0), Bytes(13), Bytes(3000), Bytes(70001),
                          Bytes(600000)})
      for (const auto kind :
           {CollectiveKind::kScatter, CollectiveKind::kGather,
            CollectiveKind::kBcast, CollectiveKind::kReduce}) {
        const double floor = set.binomial_floor(lo, kind, m, scratch);
        EXPECT_GE(floor, 0.0);
        for (const auto& mapping : mappings) {
          const double closed =
              set.binomial_closed_time(p, kind, root, m, mapping, scratch);
          const double replay = set.tree_time(p, TreeKind::kBinomial, kind,
                                              root, m, mapping, 0, scratch);
          const std::string where =
              "trial " + std::to_string(trial) + " n=" + std::to_string(n) +
              " m=" + std::to_string(m) + " " + core::collective_name(kind);
          EXPECT_LE(floor, closed) << where;
          EXPECT_LE(closed, replay * (1.0 + 1e-9)) << where;
          EXPECT_EQ(floor, set.binomial_closed_time(at_floor, kind, root, m,
                                                    mapping, scratch))
              << where;
        }
      }
  }
}

/// The acceptance bar: across the Fig. 6 message-size sweep, executing
/// the tuner's chosen (algorithm, segment) is within 10% of the best
/// simulated candidate.
void expect_low_regret(sim::ClusterConfig cfg,
                       const std::vector<CollectiveKind>& kinds,
                       const std::vector<Bytes>& sizes) {
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  const auto p = from_ground_truth(cfg);
  core::TunerOptions opts;
  opts.topology = &cfg.topology;  // price shared-segment contention
  const core::Tuner tuner(p, core::GatherEmpirical{}, opts);
  World w(cfg);
  for (const auto kind : kinds)
    for (const Bytes m : sizes) {
      const auto all = tuner.candidates(kind, 0, m);
      ASSERT_FALSE(all.empty());
      double best_sim = 0.0;
      double chosen_sim = 0.0;
      const core::TunedDecision* chosen = &all.front();
      for (const auto& d : all)
        if (d.predicted_seconds < chosen->predicted_seconds) chosen = &d;
      for (const auto& d : all) {
        const double s = simulate(w, d);
        if (best_sim == 0.0 || s < best_sim) best_sim = s;
        if (&d == chosen) chosen_sim = s;
      }
      EXPECT_LE(chosen_sim, best_sim * 1.10)
          << core::collective_name(kind) << " m=" << m << " chose "
          << chosen->describe();
    }
}

TEST(TunerRegret, Flat16RankCluster) {
  expect_low_regret(quiet_paper_cluster(),
                    {CollectiveKind::kScatter, CollectiveKind::kGather,
                     CollectiveKind::kBcast, CollectiveKind::kReduce},
                    geometric_sizes(1024, 256 * 1024, 5));
}

TEST(TunerRegret, Hierarchical16RankCluster) {
  expect_low_regret(sim::make_multicore_cluster(1, 4, 4),
                    {CollectiveKind::kScatter, CollectiveKind::kBcast},
                    geometric_sizes(1024, 256 * 1024, 4));
}

TEST(TunerRegret, Hierarchical64RankCluster) {
  expect_low_regret(sim::make_multicore_cluster(4, 4, 4),
                    {CollectiveKind::kBcast},
                    {Bytes(4096), Bytes(128) * 1024});
}

}  // namespace
}  // namespace lmo
