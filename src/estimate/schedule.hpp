// Experiment participant sets (paper Section IV).
//
// The estimation procedure measures every pair (round-trips) and every
// oriented triplet (one-to-two experiments) of the cluster. PlanBuilder
// (plan.hpp) packs the resulting keys into rounds of disjoint experiments.
#pragma once

#include <array>
#include <utility>
#include <vector>

namespace lmo::estimate {

using Pair = std::pair<int, int>;
/// (root, peer_a, peer_b): the root sends to both peers.
using Triplet = std::array<int, 3>;

/// All unordered pairs {i < j}.
[[nodiscard]] std::vector<Pair> all_pairs(int n);

}  // namespace lmo::estimate
