#include "trees/mapping.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace lmo::trees {

std::vector<int> default_mapping(int n, int root) {
  LMO_CHECK(n >= 1);
  LMO_CHECK(root >= 0 && root < n);
  std::vector<int> m(std::size_t(n), 0);
  for (int v = 0; v < n; ++v) m[std::size_t(v)] = (v + root) % n;
  return m;
}

void invert_mapping(const std::vector<int>& mapping, int n,
                    std::vector<int>& inverse) {
  inverse.clear();
  if (mapping.empty()) return;
  LMO_CHECK_MSG(int(mapping.size()) == n,
                "mapping has " + std::to_string(mapping.size()) +
                    " entries for " + std::to_string(n) + " processors");
  inverse.assign(std::size_t(n), -1);
  for (int v = 0; v < n; ++v) {
    const int rank = mapping[std::size_t(v)];
    LMO_CHECK_MSG(rank >= 0 && rank < n,
                  "mapping entry " + std::to_string(v) + " = " +
                      std::to_string(rank) + " out of range for " +
                      std::to_string(n) + " processors");
    LMO_CHECK_MSG(inverse[std::size_t(rank)] < 0,
                  "duplicate mapping entry: physical rank " +
                      std::to_string(rank) + " at virtual ranks " +
                      std::to_string(inverse[std::size_t(rank)]) + " and " +
                      std::to_string(v));
    inverse[std::size_t(rank)] = v;
  }
}

std::vector<int> inverse_mapping(const std::vector<int>& mapping, int n) {
  std::vector<int> inverse;
  invert_mapping(mapping, n, inverse);
  return inverse;
}

MappingResult optimize_mapping(int n, int root, const MappingCost& cost,
                               int max_rounds) {
  LMO_CHECK(n >= 1);
  MappingResult best;
  best.mapping = default_mapping(n, root);
  best.cost = cost(best.mapping, std::numeric_limits<double>::infinity());
  best.evaluations = 1;

  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    // Swap every non-root pair of virtual positions.
    for (int a = 1; a < n; ++a) {
      for (int b = a + 1; b < n; ++b) {
        std::swap(best.mapping[std::size_t(a)], best.mapping[std::size_t(b)]);
        const double c = cost(best.mapping, best.cost);
        ++best.evaluations;
        if (c + 1e-15 < best.cost) {
          best.cost = c;
          improved = true;
        } else {
          std::swap(best.mapping[std::size_t(a)],
                    best.mapping[std::size_t(b)]);
        }
      }
    }
    if (!improved) break;
  }
  return best;
}

std::vector<int> hierarchy_mapping(const sim::Topology& topo, int root) {
  LMO_CHECK_MSG(!topo.empty(), "hierarchy_mapping needs a topology");
  const int n = topo.ranks();
  LMO_CHECK(root >= 0 && root < n);
  std::vector<int> order(std::size_t(n), 0);
  std::iota(order.begin(), order.end(), 0);
  // Lexicographic by group path, root to leaves, with the root's group
  // sorting first at every level (so the root ends up at virtual 0 and its
  // own node/switch fills the first — largest — binomial subtree). Groups
  // stay contiguous: no binomial subtree straddles a group needlessly.
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    for (int l = topo.depth(); l >= 1; --l) {
      const int ga = topo.group(l, a), gb = topo.group(l, b);
      if (ga == gb) continue;
      const int gr = topo.group(l, root);
      const int ka = ga == gr ? -1 : ga;
      const int kb = gb == gr ? -1 : gb;
      return ka < kb;
    }
    const int ka = a == root ? -1 : a;
    const int kb = b == root ? -1 : b;
    return ka < kb;
  });
  return order;
}

}  // namespace lmo::trees
