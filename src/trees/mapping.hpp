// Heterogeneous processor-to-tree-node mapping optimization.
//
// On a heterogeneous cluster the execution time of a binomial collective
// depends on which physical processor sits at which node of the virtual
// tree (paper Section I, citing Hatta & Shibusawa). Given a cost oracle —
// typically an LMO- or Hockney-based prediction of the mapped tree — we
// search the permutation space with a greedy seed followed by pairwise-swap
// hill climbing. The root's physical processor stays fixed (the data lives
// there).
#pragma once

#include <functional>
#include <vector>

#include "simnet/topology.hpp"

namespace lmo::trees {

/// Cost of a candidate mapping: mapping[v] = physical rank of virtual
/// rank v; mapping[0] is the root and is never moved. `cutoff` is the
/// climb's best cost so far (+inf for the first mapping): once the oracle
/// proves the cost exceeds it, it may return any larger value (+inf) in
/// place of the exact cost, since such a swap is rejected either way.
using MappingCost =
    std::function<double(const std::vector<int>& mapping, double cutoff)>;

struct MappingResult {
  std::vector<int> mapping;
  double cost = 0.0;
  int evaluations = 0;
};

/// Identity mapping with the MPI root offset: v -> (v + root) mod n.
[[nodiscard]] std::vector<int> default_mapping(int n, int root);

/// Inverse of a virtual-to-physical `mapping` written into `inverse`
/// (inverse[physical] = virtual, resized to n). This is the one
/// permutation check every consumer of a mapping goes through: a non-empty
/// mapping must have n entries, each in 0..n-1, none repeated — anything
/// else throws lmo::Error naming the offending entry, because a malformed
/// mapping would index past the parameter tables or wedge a collective in
/// mismatched sends. An empty mapping (the MPI (v + root) mod n default)
/// leaves `inverse` empty.
void invert_mapping(const std::vector<int>& mapping, int n,
                    std::vector<int>& inverse);

/// Allocating form of invert_mapping.
[[nodiscard]] std::vector<int> inverse_mapping(const std::vector<int>& mapping,
                                               int n);

/// Pairwise-swap hill climbing from the default mapping; terminates at a
/// local optimum or after max_rounds full sweeps.
[[nodiscard]] MappingResult optimize_mapping(int n, int root,
                                             const MappingCost& cost,
                                             int max_rounds = 8);

/// Topology-aware mapping: physical ranks ordered by their resource-tree
/// group path (root's groups first at every level, then by group id, then
/// by rank), with the root at virtual position 0. Every tree group is
/// contiguous in virtual-rank order, so the small late subtrees of a
/// binomial schedule — the ones exchanging the most messages — become
/// intra-node edges, and only the few top arcs cross switches/uplinks.
[[nodiscard]] std::vector<int> hierarchy_mapping(const sim::Topology& topo,
                                                 int root);

}  // namespace lmo::trees
