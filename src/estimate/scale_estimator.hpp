// Sampled LMO estimation for large clusters (the 4096-rank regime).
//
// The exact Section-IV fit needs O(n^3) experiments and O(n^2) fitted
// tables, infeasible at thousands of ranks. On a hierarchical platform the
// parameters are not n^2 free values though: nodes fall into a handful of
// profiles and links into depth() level classes. This estimator runs the
// exact fit's triplet method (lmo_estimator.hpp: the same stage-2 keys,
// eqs. (8)/(11) solve and sharded two-stage driver) on a few triplets per
// resource-tree level, and accumulates differently:
//  * C_i/t_i per sampled rank, broadcast to unsampled ranks by profile
//    mean (when the cluster's profile table is known) or global mean,
//  * L/1-over-beta per LCA level (the LevelLink form priced_by_path
//    expands).
// Experiment count is O(depth) (at most four triplets per level), report
// size is O(sampled + depth). Sampling is a pure function of the
// topology, so the estimator shards (ShardSpec) and refits offline like
// the exact one.
#pragma once

#include <vector>

#include "core/lmo_model.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/plan.hpp"
#include "simnet/cluster.hpp"

namespace lmo::estimate {

class MeasurementStore;

struct ScaleOptions {
  /// Resource tree of the platform: drives triplet sampling and per-level
  /// aggregation. estimate_scale_lmo defaults it from
  /// Experimenter::topology(); a null/empty tree samples disjoint
  /// consecutive triplets and aggregates into a single link class.
  const sim::Topology* topology = nullptr;

  /// Cluster description, when available: its profile table broadcasts
  /// sampled C/t to unsampled ranks per profile instead of globally.
  const sim::ClusterConfig* cluster = nullptr;
};

/// Mean fitted processing parameters of one node profile.
struct ProfileParams {
  double C = 0.0;  ///< fixed processing delay [s]
  double t = 0.0;  ///< per-byte processing delay [s/B]
  int sampled = 0; ///< sampled ranks aggregated into this profile
};

struct ScaleLmoReport {
  int ranks = 0;
  std::vector<Triplet> triplets;  ///< the sampled triplets, in plan order

  /// Fitted processing parameters of the ranks the sample touched
  /// (sampled_ranks sorted ascending; C/t parallel to it).
  std::vector<int> sampled_ranks;
  std::vector<double> C;
  std::vector<double> t;
  double C_mean = 0.0;  ///< global mean over sampled ranks
  double t_mean = 0.0;

  /// Per-level link parameters (index = level - 1); a flat platform gets
  /// one entry. The LevelLink form of core::priced_by_path.
  std::vector<core::LevelLink> per_level;

  /// Per-profile C/t means (index = profile id), filled when the options
  /// carried a profiled cluster; profile_of mirrors the cluster's table.
  std::vector<ProfileParams> per_profile;
  std::vector<int> profile_of;

  std::size_t roundtrip_experiments = 0;
  std::size_t one_to_two_experiments = 0;
  std::uint64_t world_runs = 0;
  SimTime estimation_cost;

  /// Broadcast processing parameters of any rank: its own fitted value
  /// when sampled, else its profile mean, else the global mean.
  [[nodiscard]] double C_of(int rank) const;
  [[nodiscard]] double t_of(int rank) const;

  /// T_ij(M) from broadcast C/t and the pair's level link (level 1-based;
  /// use topology->lca_level(i, j), or 1 on a flat platform).
  [[nodiscard]] double pt2pt(int i, int j, int level, Bytes m) const;
};

/// The deterministic triplet sample: up to four triplets per level whose
/// defining pair has its LCA exactly there, each completed by a near
/// neighbour of the pair for cross-level equations. Pure function of
/// (topology, n) — refits resample identically.
[[nodiscard]] std::vector<Triplet> sample_scale_triplets(
    const sim::Topology* topo, int n);

/// Solve eqs. (8)/(11) per sampled triplet and aggregate. Reads only the
/// store — offline refits are bit-identical.
[[nodiscard]] ScaleLmoReport fit_scale_lmo(const MeasurementStore& store,
                                           int n,
                                           const ScaleOptions& opts = {});

/// Sample -> plan stage 1 -> execute -> plan stage 2 -> execute -> fit.
/// An active `shard` executes only this process's slice of the measured
/// rounds (run every shard against the same cold store, merge, then refit
/// from the merged store).
[[nodiscard]] ScaleLmoReport estimate_scale_lmo(Experimenter& ex,
                                                MeasurementStore& store,
                                                const ScaleOptions& opts = {},
                                                const ShardSpec& shard = {});

}  // namespace lmo::estimate
