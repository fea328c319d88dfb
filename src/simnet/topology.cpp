#include "simnet/topology.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace lmo::sim {

namespace {
std::string level_label(int l, const TopologyLevel& spec) {
  std::string s = "topology.levels[" + std::to_string(l - 1) + "]";
  if (!spec.name.empty()) s += " ('" + spec.name + "')";
  return s;
}
}  // namespace

Topology Topology::balanced(const std::vector<int>& fanout,
                            std::vector<TopologyLevel> levels) {
  LMO_CHECK_MSG(!fanout.empty(), "balanced topology needs at least one level");
  LMO_CHECK_MSG(fanout.size() == levels.size(),
                "balanced topology: fanout has " +
                    std::to_string(fanout.size()) + " entries but levels has " +
                    std::to_string(levels.size()));
  long long n = 1;
  for (std::size_t l = 0; l < fanout.size(); ++l) {
    LMO_CHECK_MSG(fanout[l] >= 1, "balanced topology: fanout[" +
                                      std::to_string(l) + "] = " +
                                      std::to_string(fanout[l]) +
                                      " must be >= 1");
    n *= fanout[l];
    LMO_CHECK_MSG(n <= kMaxRanks, "balanced topology: too many ranks");
  }
  Topology t;
  t.levels_ = std::move(levels);
  t.ranks_ = int(n);
  t.groups_.resize(fanout.size() * std::size_t(n));
  long long block = 1;
  for (std::size_t l = 0; l < fanout.size(); ++l) {
    block *= fanout[l];
    int* groups = t.groups_.data() + l * std::size_t(n);
    for (long long r = 0; r < n; ++r) groups[r] = int(r / block);
  }
  t.fanout_ = fanout;
  t.validate(int(n));
  t.finalize();
  return t;
}

Topology Topology::custom(std::vector<TopologyLevel> levels,
                          std::vector<std::vector<int>> group_of) {
  LMO_CHECK_MSG(levels.size() == group_of.size(),
                "custom topology: " + std::to_string(levels.size()) +
                    " levels but " + std::to_string(group_of.size()) +
                    " placement arrays");
  Topology t;
  t.levels_ = std::move(levels);
  if (!group_of.empty()) {
    const std::size_t n = group_of.front().size();
    // Ragged placements cannot be flattened; reject them here with the
    // same message validate() uses for a placement/cluster width mismatch.
    for (std::size_t l = 0; l < group_of.size(); ++l)
      LMO_CHECK_MSG(group_of[l].size() == n,
                    level_label(int(l + 1), t.levels_[l]) + " places " +
                        std::to_string(group_of[l].size()) +
                        " ranks, cluster has " + std::to_string(n));
    t.ranks_ = int(n);
    t.groups_.reserve(group_of.size() * n);
    for (const auto& row : group_of)
      t.groups_.insert(t.groups_.end(), row.begin(), row.end());
  }
  t.validate(t.ranks());
  t.finalize();
  return t;
}

const TopologyLevel& Topology::level(int l) const {
  LMO_CHECK_MSG(l >= 1 && l <= depth(),
                "topology level " + std::to_string(l) +
                    " out of range 1.." + std::to_string(depth()));
  return levels_[std::size_t(l - 1)];
}

int Topology::group(int l, int rank) const {
  LMO_CHECK_MSG(l >= 1 && l <= depth(),
                "topology level " + std::to_string(l) +
                    " out of range 1.." + std::to_string(depth()));
  LMO_CHECK_MSG(rank >= 0 && rank < ranks_,
                "rank " + std::to_string(rank) +
                    " outside topology placement of " +
                    std::to_string(ranks_) + " ranks");
  return group_raw(l, rank);
}

int Topology::group_count(int l) const {
  LMO_CHECK(l >= 1 && l <= depth());
  return group_count_[std::size_t(l - 1)];
}

int Topology::lca_level(int i, int j) const {
  LMO_CHECK_MSG(!empty(), "lca_level on an empty topology");
  LMO_CHECK_MSG(i >= 0 && i < ranks_,
                "rank " + std::to_string(i) +
                    " outside topology placement of " +
                    std::to_string(ranks_) + " ranks");
  LMO_CHECK_MSG(j >= 0 && j < ranks_,
                "rank " + std::to_string(j) +
                    " outside topology placement of " +
                    std::to_string(ranks_) + " ranks");
  const int* row = groups_.data();
  for (int l = 1; l <= depth(); ++l, row += ranks_)
    if (row[i] == row[j]) return l;
  LMO_CHECK_MSG(false, "topology has no common ancestor for ranks " +
                           std::to_string(i) + " and " + std::to_string(j));
  return depth();
}

double Topology::path_forward_latency(int i, int j) const {
  return level_latency_[std::size_t(lca_level(i, j) - 1)];
}

double Topology::path_rate_cap(double endpoint_rate, int i, int j) const {
  const double cap = level_rate_cap_[std::size_t(lca_level(i, j) - 1)];
  return cap > 0.0 ? std::min(endpoint_rate, cap) : endpoint_rate;
}

double Topology::level_path_latency(int k) const {
  LMO_CHECK(k >= 1 && k <= depth());
  return level_latency_[std::size_t(k - 1)];
}

double Topology::cumulative_rate_cap(int k) const {
  LMO_CHECK(k >= 1 && k <= depth());
  return level_rate_cap_[std::size_t(k - 1)];
}

bool Topology::any_contended() const {
  for (const auto& l : levels_)
    if (l.contended) return true;
  return false;
}

void Topology::finalize() {
  group_count_.assign(levels_.size(), 0);
  level_latency_.assign(levels_.size(), 0.0);
  level_rate_cap_.assign(levels_.size(), 0.0);
  // Per-LCA-level path price. The latency accumulation mirrors
  // path_forward_latency's original left-to-right order term for term, so
  // the cached doubles are bit-identical to the on-demand walk; min over
  // positive caps is exact, so folding it per level is too.
  double below = 0.0;  // sum of 2 * forward_latency for levels < k
  double cap = 0.0;    // min positive bandwidth cap over levels <= k
  for (int l = 1; l <= depth(); ++l) {
    const TopologyLevel& spec = levels_[std::size_t(l - 1)];
    level_latency_[std::size_t(l - 1)] = below + spec.forward_latency_s;
    below += 2.0 * spec.forward_latency_s;
    if (spec.bandwidth_bps > 0.0)
      cap = cap > 0.0 ? std::min(cap, spec.bandwidth_bps)
                      : spec.bandwidth_bps;
    level_rate_cap_[std::size_t(l - 1)] = cap;
    const int* row = groups_.data() + std::size_t(l - 1) * std::size_t(ranks_);
    int mx = -1;
    for (int r = 0; r < ranks_; ++r) mx = std::max(mx, row[r]);
    group_count_[std::size_t(l - 1)] = mx + 1;
  }
}

void Topology::validate(int nranks) const {
  if (empty()) {
    LMO_CHECK_MSG(groups_.empty() && ranks_ == 0,
                  "topology has placements but no levels");
    return;
  }
  LMO_CHECK_MSG(groups_.size() == levels_.size() * std::size_t(ranks_),
                "topology: " + std::to_string(levels_.size()) +
                    " levels but a placement of " +
                    std::to_string(groups_.size()) + " entries");
  for (int l = 1; l <= depth(); ++l) {
    const TopologyLevel& spec = levels_[std::size_t(l - 1)];
    LMO_CHECK_MSG(std::isfinite(spec.forward_latency_s) &&
                      spec.forward_latency_s >= 0.0,
                  level_label(l, spec) + ".forward_latency_s = " +
                      std::to_string(spec.forward_latency_s) +
                      " must be finite and non-negative");
    LMO_CHECK_MSG(std::isfinite(spec.bandwidth_bps) &&
                      spec.bandwidth_bps >= 0.0,
                  level_label(l, spec) + ".bandwidth_bps = " +
                      std::to_string(spec.bandwidth_bps) +
                      " must be finite and non-negative (0 = uncapped)");
    LMO_CHECK_MSG(ranks_ == nranks,
                  level_label(l, spec) + " places " + std::to_string(ranks_) +
                      " ranks, cluster has " + std::to_string(nranks));
    const int* row = groups_.data() + std::size_t(l - 1) * std::size_t(ranks_);
    for (int r = 0; r < nranks; ++r)
      LMO_CHECK_MSG(row[r] >= 0 && row[r] < nranks,
                    level_label(l, spec) + ": rank " + std::to_string(r) +
                        " has out-of-range group id " + std::to_string(row[r]));
  }
  // Groups must coarsen monotonically: ranks sharing a group at level l
  // share one at every level above.
  std::vector<int> parent;
  for (int l = 1; l < depth(); ++l) {
    const int* fine = groups_.data() + std::size_t(l - 1) * std::size_t(ranks_);
    const int* coarse = groups_.data() + std::size_t(l) * std::size_t(ranks_);
    parent.assign(std::size_t(nranks), -1);
    for (int r = 0; r < nranks; ++r) {
      const int fg = fine[r];
      if (parent[std::size_t(fg)] == -1) parent[std::size_t(fg)] = coarse[r];
      LMO_CHECK_MSG(parent[std::size_t(fg)] == coarse[r],
                    "topology: group " + std::to_string(fg) + " at level " +
                        std::to_string(l) +
                        " straddles two level-" + std::to_string(l + 1) +
                        " groups (rank " + std::to_string(r) + ")");
    }
  }
  const int* top =
      groups_.data() + std::size_t(depth() - 1) * std::size_t(ranks_);
  for (int r = 0; r < nranks; ++r)
    LMO_CHECK_MSG(top[r] == 0,
                  "topology: top level must be a single group 0, rank " +
                      std::to_string(r) + " is in group " +
                      std::to_string(top[r]));
}

bool operator==(const TopologyLevel& a, const TopologyLevel& b) {
  return a.name == b.name && a.forward_latency_s == b.forward_latency_s &&
         a.bandwidth_bps == b.bandwidth_bps && a.contended == b.contended;
}

bool operator==(const Topology& a, const Topology& b) {
  // fanout_ is a construction/serialization hint, not structure: a
  // balanced tree equals the custom() tree with the same placement.
  return a.levels_ == b.levels_ && a.ranks_ == b.ranks_ &&
         a.groups_ == b.groups_;
}

}  // namespace lmo::sim
