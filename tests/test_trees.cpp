// Unit tests for communication trees and mapping optimization.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>

#include "trees/binomial.hpp"
#include "trees/mapping.hpp"
#include "trees/shapes.hpp"
#include "util/error.hpp"

namespace lmo::trees {
namespace {

TEST(Binomial, PaperFigureTwoTree) {
  // Fig. 2: 16 processors; the root sends 8 blocks to node 8 first, then
  // 4 to node 4, 2 to node 2, 1 to node 1; node 8 sends 4 to 12, etc.
  const auto arcs = binomial_arcs(16);
  ASSERT_EQ(arcs.size(), 15u);  // n-1 arcs
  std::map<std::pair<int, int>, int> blocks;
  for (const auto& a : arcs) blocks[{a.parent, a.child}] = a.blocks;
  EXPECT_EQ((blocks[{0, 8}]), 8);
  EXPECT_EQ((blocks[{0, 4}]), 4);
  EXPECT_EQ((blocks[{0, 2}]), 2);
  EXPECT_EQ((blocks[{0, 1}]), 1);
  EXPECT_EQ((blocks[{8, 12}]), 4);
  EXPECT_EQ((blocks[{8, 10}]), 2);
  EXPECT_EQ((blocks[{8, 9}]), 1);
  EXPECT_EQ((blocks[{4, 6}]), 2);
  EXPECT_EQ((blocks[{12, 14}]), 2);
  EXPECT_EQ((blocks[{14, 15}]), 1);
  // The first arc emitted is the largest transfer (send order).
  EXPECT_EQ(arcs[0].parent, 0);
  EXPECT_EQ(arcs[0].child, 8);
}

TEST(Binomial, BlocksSumToAllData) {
  for (int n : {2, 3, 5, 8, 13, 16, 31}) {
    const auto arcs = binomial_arcs(n);
    EXPECT_EQ(int(arcs.size()), n - 1) << "n=" << n;
    // Every non-root node receives over exactly one arc, and total blocks
    // received across arcs out of the root equal n-1.
    int root_out = 0;
    std::set<int> children;
    for (const auto& a : arcs) {
      EXPECT_TRUE(children.insert(a.child).second);
      if (a.parent == 0) root_out += a.blocks;
    }
    EXPECT_EQ(root_out, n - 1) << "n=" << n;
  }
}

TEST(Binomial, ParentChildConsistent) {
  const int n = 16;
  for (int v = 1; v < n; ++v) {
    const int p = binomial_parent(v);
    const auto kids = binomial_children(p, n);
    EXPECT_NE(std::find(kids.begin(), kids.end(), v), kids.end())
        << "v=" << v;
  }
}

TEST(Binomial, ChildrenLargestFirst) {
  const auto kids = binomial_children(0, 16);
  EXPECT_EQ(kids, (std::vector<int>{8, 4, 2, 1}));
  const auto kids8 = binomial_children(8, 16);
  EXPECT_EQ(kids8, (std::vector<int>{12, 10, 9}));
  EXPECT_TRUE(binomial_children(15, 16).empty());
}

TEST(Binomial, SubtreeBlocksClamped) {
  EXPECT_EQ(binomial_subtree_blocks(0, 16), 16);
  EXPECT_EQ(binomial_subtree_blocks(8, 16), 8);
  EXPECT_EQ(binomial_subtree_blocks(8, 13), 5);  // clamp: 13 - 8
  EXPECT_EQ(binomial_subtree_blocks(12, 13), 1);
}

TEST(Binomial, Rounds) {
  EXPECT_EQ(binomial_rounds(1), 0);
  EXPECT_EQ(binomial_rounds(2), 1);
  EXPECT_EQ(binomial_rounds(3), 2);
  EXPECT_EQ(binomial_rounds(16), 4);
  EXPECT_EQ(binomial_rounds(17), 5);
}

TEST(Binomial, SingleNodeTree) {
  // n=1 edge case: no arcs, the root's subtree is itself.
  EXPECT_TRUE(binomial_arcs(1).empty());
  EXPECT_TRUE(binomial_children(0, 1).empty());
  EXPECT_EQ(binomial_subtree_blocks(0, 1), 1);
}

TEST(Binomial, NonPowerOfTwoArcsCoverEveryone) {
  // Clamped trees: every virtual rank 1..n-1 still receives over exactly
  // one arc and subtree blocks account for the clamp.
  for (int n : {3, 5, 6, 7, 11, 12}) {
    const auto arcs = binomial_arcs(n);
    std::set<int> children;
    int total_blocks = 0;
    for (const auto& a : arcs) {
      EXPECT_GT(a.blocks, 0) << "n=" << n;
      EXPECT_EQ(a.blocks, binomial_subtree_blocks(a.child, n)) << "n=" << n;
      EXPECT_TRUE(children.insert(a.child).second) << "n=" << n;
      if (a.parent == 0) total_blocks += a.blocks;
    }
    EXPECT_EQ(int(children.size()), n - 1) << "n=" << n;
    EXPECT_EQ(total_blocks, n - 1) << "n=" << n;
  }
}

TEST(Binomial, RootOffsetIsAMappingConcern) {
  // Virtual trees always have the root at virtual rank 0; a root != 0
  // enters via the default (v + root) mod n mapping, which must stay a
  // bijection that fixes the root.
  const int n = 6;
  for (int root : {1, 3, 5}) {
    const auto m = default_mapping(n, root);
    EXPECT_EQ(m[0], root);
    std::set<int> seen(m.begin(), m.end());
    EXPECT_EQ(int(seen.size()), n);
    for (int v = 0; v < n; ++v)
      EXPECT_EQ(map_rank({}, v, root, n), m[std::size_t(v)]);
  }
}

TEST(TreeShapes, ConsistentAcrossKinds) {
  // Shared invariants of every zoo shape: parent/child agreement, the
  // topological-order property, subtree sizes summing to n, and recv
  // order being a permutation of the send order.
  const auto kinds = {TreeKind::kFlat, TreeKind::kChain, TreeKind::kBinary,
                      TreeKind::kBinomial};
  for (const TreeKind kind : kinds)
    for (int n : {1, 2, 3, 7, 8, 13, 16}) {
      int covered = 1;  // the root
      for (int v = 0; v < n; ++v) {
        const auto kids = tree_children(kind, v, n);
        covered += int(kids.size());
        int kid_blocks = 1;
        for (const int child : kids) {
          EXPECT_GT(child, v) << "kind " << int(kind);  // topological order
          EXPECT_LT(child, n);
          EXPECT_EQ(tree_parent(kind, child), v) << "kind " << int(kind);
          kid_blocks += tree_subtree_size(kind, child, n);
        }
        EXPECT_EQ(tree_subtree_size(kind, v, n), kid_blocks)
            << "kind " << int(kind) << " v=" << v << " n=" << n;
        auto recv = tree_recv_order(kind, v, n);
        std::sort(recv.begin(), recv.end());
        auto sent = kids;
        std::sort(sent.begin(), sent.end());
        EXPECT_EQ(recv, sent);
      }
      EXPECT_EQ(covered, n) << "kind " << int(kind);  // everyone has a parent
      EXPECT_EQ(tree_subtree_size(kind, 0, n), n);
    }
}

TEST(MappingTest, DefaultIsRootRotation) {
  const auto m = default_mapping(4, 2);
  EXPECT_EQ(m, (std::vector<int>{2, 3, 0, 1}));
  EXPECT_EQ(map_rank({}, 3, 2, 4), 1);
  EXPECT_EQ(map_rank(m, 3, 2, 4), 1);
}

TEST(MappingTest, OptimizerFindsPlantedOptimum) {
  // Cost: position v should hold processor v (identity); any displacement
  // costs. The optimizer starts from root-rotated order and must untangle
  // it (root fixed at position 0 with processor 0, so root = 0).
  const int n = 8;
  auto cost = [](const std::vector<int>& m, double /*cutoff*/) {
    double c = 0;
    for (std::size_t v = 0; v < m.size(); ++v)
      c += (m[v] == int(v)) ? 0.0 : 1.0;
    return c;
  };
  const auto r = optimize_mapping(n, 0, cost);
  EXPECT_DOUBLE_EQ(r.cost, 0.0);
  for (int v = 0; v < n; ++v) EXPECT_EQ(r.mapping[std::size_t(v)], v);
  EXPECT_GT(r.evaluations, 1);
}

TEST(MappingTest, RootNeverMoves) {
  auto cost = [](const std::vector<int>& m, double /*cutoff*/) {
    // Reward moving processor 5 away from position 0 — must not happen.
    return m[0] == 5 ? 1.0 : 100.0;
  };
  const auto r = optimize_mapping(6, 5, cost);
  EXPECT_EQ(r.mapping[0], 5);
}

TEST(MappingTest, MappingIsAlwaysPermutation) {
  auto cost = [](const std::vector<int>& m, double /*cutoff*/) {
    double c = 0;
    for (std::size_t v = 0; v < m.size(); ++v) c += double(m[v]) * double(v);
    return c;
  };
  const auto r = optimize_mapping(9, 3, cost);
  std::vector<int> sorted = r.mapping;
  std::sort(sorted.begin(), sorted.end());
  std::vector<int> expect(9);
  std::iota(expect.begin(), expect.end(), 0);
  EXPECT_EQ(sorted, expect);
}

}  // namespace
}  // namespace lmo::trees
