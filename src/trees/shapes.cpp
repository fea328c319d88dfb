#include "trees/shapes.hpp"

#include <algorithm>

#include "trees/binomial.hpp"
#include "util/error.hpp"

namespace lmo::trees {

int tree_parent(TreeKind kind, int v) {
  LMO_CHECK(v > 0);
  switch (kind) {
    case TreeKind::kFlat:
      return 0;
    case TreeKind::kChain:
      return v - 1;
    case TreeKind::kBinary:
      return (v - 1) / 2;
    case TreeKind::kBinomial:
      return binomial_parent(v);
  }
  LMO_CHECK_MSG(false, "unknown tree kind");
  return 0;
}

std::vector<int> tree_children(TreeKind kind, int v, int n) {
  LMO_CHECK(v >= 0 && v < n);
  std::vector<int> kids;
  switch (kind) {
    case TreeKind::kFlat:
      if (v == 0)
        for (int c = 1; c < n; ++c) kids.push_back(c);
      return kids;
    case TreeKind::kChain:
      if (v + 1 < n) kids.push_back(v + 1);
      return kids;
    case TreeKind::kBinary:
      // Left child roots the (equal-or-)larger subtree: send it first.
      if (2 * v + 1 < n) kids.push_back(2 * v + 1);
      if (2 * v + 2 < n) kids.push_back(2 * v + 2);
      return kids;
    case TreeKind::kBinomial:
      return binomial_children(v, n);
  }
  LMO_CHECK_MSG(false, "unknown tree kind");
  return kids;
}

std::vector<int> tree_recv_order(TreeKind kind, int v, int n) {
  auto kids = tree_children(kind, v, n);
  if (kind != TreeKind::kFlat) std::reverse(kids.begin(), kids.end());
  return kids;
}

int tree_subtree_size(TreeKind kind, int v, int n) {
  LMO_CHECK(v >= 0 && v < n);
  switch (kind) {
    case TreeKind::kFlat:
      return v == 0 ? n : 1;
    case TreeKind::kChain:
      return n - v;
    case TreeKind::kBinary: {
      // Count per level: the heap-ordered subtree of v spans [l, r] on
      // each level until n cuts it off.
      long long l = v, r = v;
      int count = 0;
      while (l < n) {
        count += int(std::min<long long>(r, n - 1) - l + 1);
        l = 2 * l + 1;
        r = 2 * r + 2;
      }
      return count;
    }
    case TreeKind::kBinomial:
      return binomial_subtree_blocks(v, n);
  }
  LMO_CHECK_MSG(false, "unknown tree kind");
  return 0;
}

}  // namespace lmo::trees
