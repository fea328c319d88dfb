// Random contended resource trees for property tests over hierarchical
// topologies.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "simnet/topology.hpp"
#include "util/rng.hpp"

namespace lmo::test_support {

/// A random contended resource tree: balanced with random fanouts, or
/// (irregular) a custom() placement whose groups coarsen at random. Each
/// level is contended with probability 1/2; at least one always is.
inline sim::Topology random_contended_tree(Rng& rng, bool irregular) {
  const int depth = int(rng.uniform_int(1, 4));
  const auto d = std::size_t(depth);
  std::vector<sim::TopologyLevel> levels(d);
  bool any = false;
  for (sim::TopologyLevel& l : levels) {
    l.contended = rng.chance(0.5);
    any = any || l.contended;
  }
  if (!any) levels[std::size_t(rng.uniform_int(0, depth - 1))].contended = true;
  if (!irregular) {
    std::vector<int> fanout(d);
    int ranks = 1;
    for (int& f : fanout) ranks *= f = int(rng.uniform_int(1, 4));
    if (ranks < 3) fanout[0] = 3;
    return sim::Topology::balanced(fanout, std::move(levels));
  }
  // Level 1 scatters the ranks over random groups; each level above maps
  // every group below onto a random coarser one; the top is one group.
  const int n = int(rng.uniform_int(3, 24));
  std::vector<std::vector<int>> group_of(d, std::vector<int>(std::size_t(n)));
  int groups = depth == 1 ? 1 : int(rng.uniform_int(1, n));
  for (int& g : group_of[0]) g = int(rng.uniform_int(0, groups - 1));
  for (std::size_t l = 1; l < group_of.size(); ++l) {
    const int coarser =
        l + 1 == group_of.size() ? 1 : int(rng.uniform_int(1, groups));
    std::vector<int> parent(static_cast<std::size_t>(groups));
    for (int& p : parent) p = int(rng.uniform_int(0, coarser - 1));
    for (int r = 0; r < n; ++r)
      group_of[l][std::size_t(r)] =
          parent[std::size_t(group_of[l - 1][std::size_t(r)])];
    groups = coarser;
  }
  return sim::Topology::custom(std::move(levels), std::move(group_of));
}

}  // namespace lmo::test_support
