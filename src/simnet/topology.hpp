// Resource-tree topology: the generalization of "N nodes + one switch".
//
// Real clusters are trees — cores sharing a node, nodes sharing a switch,
// switches sharing an uplink — and intra-node links differ from inter-node
// links by orders of magnitude (Task & Chauhan). A Topology describes the
// tree as a stack of *levels* above the leaves (ranks): level 1 is the
// first aggregation (e.g. the node a core lives in), the top level always
// has a single group so every pair of ranks has a lowest common ancestor.
//
// A message from rank i to rank j climbs to the LCA level k and descends:
// it traverses one switch of each level 1..k-1 on each side plus the one
// LCA switch at level k. Each level contributes
//  * forward_latency_s   — forwarding delay per switch traversed,
//  * bandwidth_bps       — an optional capacity cap (0 = uncapped) on
//                          every transfer that crosses the level,
//  * contended           — when set, each group at this level serializes
//                          the traffic through its switch on a shared
//                          Timeline (a bus / oversubscribed uplink); when
//                          clear, the level is contention-free between
//                          disjoint port pairs like the paper's switch.
//
// The single-switch cluster of the paper is the degenerate one-level tree
// (balanced({n}) over one contention-free, uncapped level whose forwarding
// latency is the switch latency) — it produces bit-identical event streams
// to the flat configuration.
//
// Storage is structure-of-arrays: placements live in one flat level-major
// int array (groups_[(l-1)*ranks + rank]) and the per-LCA-level path
// price (forward-latency sum, cumulative bandwidth cap) is precomputed,
// so the per-transfer pricing walk touches two small contiguous arrays
// instead of chasing a vector<vector> — the difference between O(N²)
// pointer soup and a 4096-rank fabric that fits in cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lmo::sim {

/// Ceiling on the ranks a config or topology may describe: 2^22, 64x the
/// 65,536-rank scale target. The config reader checks every rank count
/// against it before allocating, so a hostile count fails by name instead
/// of exhausting memory.
inline constexpr std::int64_t kMaxRanks = std::int64_t(1) << 22;

struct TopologyLevel {
  std::string name;               ///< "node", "switch", "uplink", ...
  double forward_latency_s = 0.0; ///< forwarding delay per switch traversed
  double bandwidth_bps = 0.0;     ///< capacity cap [bytes/s]; 0 = uncapped
  bool contended = false;         ///< shared-capacity Timeline per group
};

class Topology {
 public:
  /// Empty topology: the owning ClusterConfig falls back to its flat
  /// single-switch formulas (v1 semantics).
  Topology() = default;

  /// Balanced tree. `fanout` counts children per unit, leaf to root:
  /// {cores_per_node, nodes_per_switch, switches} describes
  /// switches*nodes*cores ranks under levels {node, switch, uplink}.
  /// Ranks are placed in block order (rank r's level-l group is
  /// r / prod(fanout[0..l])). fanout.size() must equal levels.size().
  [[nodiscard]] static Topology balanced(const std::vector<int>& fanout,
                                         std::vector<TopologyLevel> levels);

  /// Irregular tree: group_of[l][rank] is rank's group id at level l+1.
  /// The last level must place every rank in group 0, and groups must
  /// coarsen monotonically (same group at level l implies same group at
  /// every level above).
  [[nodiscard]] static Topology custom(
      std::vector<TopologyLevel> levels,
      std::vector<std::vector<int>> group_of);

  [[nodiscard]] bool empty() const { return levels_.empty(); }
  /// Number of levels L (0 when empty).
  [[nodiscard]] int depth() const { return int(levels_.size()); }
  /// Number of ranks placed in the tree.
  [[nodiscard]] int ranks() const { return ranks_; }

  /// Level descriptor; levels are numbered 1..depth(), leaf to root.
  [[nodiscard]] const TopologyLevel& level(int l) const;
  /// Rank's group id at level l (1-based level).
  [[nodiscard]] int group(int l, int rank) const;
  /// Number of groups at level l (1-based level).
  [[nodiscard]] int group_count(int l) const;

  /// Lowest level 1..depth() whose groups contain both i and j. The top
  /// level has a single group, so every distinct pair has an LCA.
  [[nodiscard]] int lca_level(int i, int j) const;

  /// Sum of switch forwarding delays on the i -> j path: one switch per
  /// level below the LCA on each side plus the LCA switch itself.
  [[nodiscard]] double path_forward_latency(int i, int j) const;

  /// `endpoint_rate` capped by the bandwidth of every level the path
  /// crosses (levels 1..lca; bandwidth 0 = uncapped).
  [[nodiscard]] double path_rate_cap(double endpoint_rate, int i,
                                     int j) const;

  /// Precomputed forward-latency sum for a path whose LCA is level k
  /// (path_forward_latency is this evaluated at lca_level(i, j)).
  [[nodiscard]] double level_path_latency(int k) const;

  /// Precomputed min over the positive bandwidth caps of levels 1..k;
  /// 0 = no level on such a path is capped.
  [[nodiscard]] double cumulative_rate_cap(int k) const;

  /// The fanout this tree was built from when it came out of balanced();
  /// empty for custom() trees. Serialization uses it to write a balanced
  /// 4096-rank placement as a handful of ints instead of depth() * N
  /// group ids.
  [[nodiscard]] const std::vector<int>& balanced_fanout() const {
    return fanout_;
  }

  /// True if any level is marked contended (the fabric only then
  /// materializes shared timelines).
  [[nodiscard]] bool any_contended() const;

  /// True if any two distinct ranks' paths can perturb each other through
  /// a shared contended switch. False for the degenerate single-switch
  /// tree — planning then behaves exactly like the flat configuration.
  [[nodiscard]] bool constrains_concurrency() const {
    return any_contended();
  }

  /// Invoke f(level, group) for every *contended* switch on the i -> j
  /// path, in path order: src side up, the LCA, dst side down. Levels are
  /// 1-based; allocation-free.
  template <class F>
  void for_each_contended_segment(int i, int j, F&& f) const {
    const int k = lca_level(i, j);
    for (int l = 1; l < k; ++l)
      if (levels_[std::size_t(l - 1)].contended) f(l, group_raw(l, i));
    if (levels_[std::size_t(k - 1)].contended) f(k, group_raw(k, i));
    for (int l = k - 1; l >= 1; --l)
      if (levels_[std::size_t(l - 1)].contended) f(l, group_raw(l, j));
  }

  /// Throws lmo::Error naming the offending level/rank on inconsistent
  /// structure (wrong placement width, non-monotone coarsening, top level
  /// not a single group, negative/non-finite level parameters).
  void validate(int nranks) const;

  friend bool operator==(const Topology& a, const Topology& b);

 private:
  /// Unchecked flat-array read; callers bounds-check l and rank first.
  [[nodiscard]] int group_raw(int l, int rank) const {
    return groups_[std::size_t(l - 1) * std::size_t(ranks_) +
                   std::size_t(rank)];
  }
  /// Builds the derived caches (group counts, per-LCA-level path prices)
  /// after the structure has been validated.
  void finalize();

  std::vector<TopologyLevel> levels_;  ///< levels_[l-1] = level l
  int ranks_ = 0;                      ///< leaves placed in the tree
  std::vector<int> groups_;            ///< level-major: [(l-1)*ranks_ + r]
  std::vector<int> group_count_;       ///< cache: groups at level l
  std::vector<double> level_latency_;  ///< cache: path latency, LCA = l
  std::vector<double> level_rate_cap_; ///< cache: min positive cap 1..l
  std::vector<int> fanout_;            ///< balanced() shape; else empty
};

bool operator==(const TopologyLevel& a, const TopologyLevel& b);

}  // namespace lmo::sim
