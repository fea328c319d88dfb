// Edge cases of the disjoint-round experiment plans: the smallest legal
// cluster sizes, arbitrary key subsets, and the round counts of all pairs
// of n nodes. Every case is built from keys through a flat PlanBuilder.
// The planner relies on three invariants — every round node-disjoint,
// every pair/triplet covered, nothing covered twice — so each is checked
// directly.
#include <gtest/gtest.h>

#include <set>

#include "estimate/plan.hpp"

#include "fixtures.hpp"

namespace lmo::estimate {
namespace {

using PairSet = std::set<Pair>;

/// The rounds a flat builder packs from zero-byte round-trips over `pairs`.
std::vector<std::vector<Pair>> pair_plan(const std::vector<Pair>& pairs) {
  PlanBuilder plan;
  for (const auto& [i, j] : pairs)
    plan.require(ExperimentKey::roundtrip(i, j, 0, 0));
  std::vector<std::vector<Pair>> rounds;
  for (const PlannedRound& r : plan.build(true).rounds) {
    rounds.emplace_back();
    for (const ExperimentKey& k : r.keys) rounds.back().emplace_back(k.a, k.b);
  }
  return rounds;
}

/// The rounds a flat builder packs from one-to-two keys over `triplets`.
std::vector<std::vector<Triplet>> triplet_plan(
    const std::vector<Triplet>& triplets) {
  PlanBuilder plan;
  for (const Triplet& t : triplets)
    plan.require(ExperimentKey::one_to_two(t, 1024, 0));
  std::vector<std::vector<Triplet>> rounds;
  for (const PlannedRound& r : plan.build(true).rounds) {
    rounds.emplace_back();
    for (const ExperimentKey& k : r.keys)
      rounds.back().push_back({k.a, k.b, k.c});
  }
  return rounds;
}

void expect_rounds_disjoint(const std::vector<std::vector<Pair>>& rounds) {
  for (const auto& round : rounds) {
    std::set<int> seen;
    for (const auto& [i, j] : round) {
      EXPECT_NE(i, j);
      EXPECT_TRUE(seen.insert(i).second) << "node " << i << " used twice";
      EXPECT_TRUE(seen.insert(j).second) << "node " << j << " used twice";
    }
  }
}

PairSet covered_pairs(const std::vector<std::vector<Pair>>& rounds) {
  PairSet covered;
  for (const auto& round : rounds)
    for (const auto& [i, j] : round) {
      const Pair canonical = i < j ? Pair{i, j} : Pair{j, i};
      EXPECT_TRUE(covered.insert(canonical).second)
          << "pair (" << canonical.first << "," << canonical.second
          << ") scheduled twice";
    }
  return covered;
}

TEST(ScheduleEdges, TwoNodesIsOneRoundOfOnePair) {
  const auto rounds = pair_plan(all_pairs(2));
  ASSERT_EQ(rounds.size(), 1u);
  ASSERT_EQ(rounds[0].size(), 1u);
  EXPECT_EQ(rounds[0][0], (Pair{0, 1}));
}

TEST(ScheduleEdges, ThreeNodesCoversAllPairsSerially) {
  // Odd n: every round can hold only one pair (the third node sits out).
  const auto rounds = pair_plan(all_pairs(3));
  expect_rounds_disjoint(rounds);
  const PairSet covered = covered_pairs(rounds);
  EXPECT_EQ(covered, (PairSet{{0, 1}, {0, 2}, {1, 2}}));
  for (const auto& round : rounds) EXPECT_LE(round.size(), 1u);
}

TEST(ScheduleEdges, AllPairsRoundCounts) {
  // First-fit over the sorted pairs puts {i, j} in round (i xor j) - 1, so
  // all pairs of n nodes take 2^ceil(log2 n) - 1 rounds: the n - 1 of a
  // 1-factorization only when n is a power of two. The docs quote these.
  const std::vector<std::pair<int, std::size_t>> want{
      {2, 1}, {3, 3}, {4, 3}, {5, 7}, {6, 7}, {8, 7},
      {10, 15}, {12, 15}, {16, 15}, {17, 31}};
  for (const auto& [n, count] : want) {
    const auto rounds = pair_plan(all_pairs(n));
    EXPECT_EQ(rounds.size(), count) << "n=" << n;
    expect_rounds_disjoint(rounds);
    const PairSet covered = covered_pairs(rounds);
    EXPECT_EQ(covered.size(), std::size_t(n * (n - 1) / 2)) << "n=" << n;
  }
}

TEST(ScheduleEdges, TripletRoundsThreeNodes) {
  // n=3: the three orientations all share the same nodes — strictly
  // serial.
  const auto triplets = test_support::all_oriented_triplets(3);
  ASSERT_EQ(triplets.size(), 3u);
  const auto rounds = triplet_plan(triplets);
  EXPECT_EQ(rounds.size(), 3u);
  for (const auto& round : rounds) EXPECT_EQ(round.size(), 1u);
}

TEST(ScheduleEdges, TripletRoundsDisjointAndCoverEachOrientationOnce) {
  for (const int n : {5, 6, 7}) {
    const auto triplets = test_support::all_oriented_triplets(n);
    ASSERT_EQ(int(triplets.size()), 3 * (n * (n - 1) * (n - 2) / 6));
    const auto rounds = triplet_plan(triplets);
    std::set<Triplet> covered;
    std::size_t total = 0;
    for (const auto& round : rounds) {
      std::set<int> nodes;
      for (const Triplet& t : round) {
        for (const int p : t) {
          EXPECT_TRUE(nodes.insert(p).second)
              << "node " << p << " used twice in a round";
        }
        EXPECT_TRUE(covered.insert(t).second) << "orientation scheduled twice";
        ++total;
      }
    }
    EXPECT_EQ(total, triplets.size()) << "n=" << n;
    EXPECT_EQ(covered.size(), triplets.size()) << "n=" << n;
  }
}

TEST(ScheduleEdges, PackPairsHandlesArbitrarySubsets) {
  // The planner packs whatever subset the estimators request — including
  // overlapping pairs that must serialize and duplicates of one node.
  const std::vector<Pair> pairs{{0, 1}, {0, 2}, {0, 3}, {1, 2}};
  const auto rounds = pair_plan(pairs);
  expect_rounds_disjoint(rounds);
  const PairSet covered = covered_pairs(rounds);
  EXPECT_EQ(covered, PairSet(pairs.begin(), pairs.end()));
  // {0,1} and {2,?}: the only disjoint combination is {0,1}+... none of
  // {0,2},{0,3} fit with each other; {1,2} conflicts with {0,1} and {0,2}.
  // First-fit: round0 = {0,1}; round1 = {0,2}; round2 = {0,3}+{1,2}.
  ASSERT_EQ(rounds.size(), 3u);
  EXPECT_EQ(rounds[2].size(), 2u);
  EXPECT_EQ(rounds, (std::vector<std::vector<Pair>>{
                        {{0, 1}}, {{0, 2}}, {{0, 3}, {1, 2}}}));
}

TEST(ScheduleEdges, PackPairsEmptyAndSingle) {
  EXPECT_TRUE(pair_plan({}).empty());
  const auto rounds = pair_plan({{3, 4}});
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0], (std::vector<Pair>{{3, 4}}));
}

}  // namespace
}  // namespace lmo::estimate
