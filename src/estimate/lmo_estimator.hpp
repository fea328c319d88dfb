// LMO parameter estimation (paper Section IV, eqs. 6-12).
//
// Point-to-point experiments alone cannot identify the six parameters of
// the extended model, so the procedure combines:
//  * C(n,2) round-trips per probe size (empty and medium M), and
//  * 3*C(n,3) one-to-two experiments (i -> j,k with empty replies),
// solving a small linear system per triplet:
//
//   C_i  = (T_i(jk)(0) - max_x T_ix(0)) / 2                       (8)
//   L_ij = T_ij(0)/2 - C_i - C_j                                  (8)
//   t_i  = (T_i(jk)(M) - max_x (T_ix(0)+T_ix(M))/2 - 2 C_i) / M   (11)
//   1/b  = (T_ij(M)/2 - C_i - L_ij - C_j)/M - t_i - t_j           (11)
//
// and averaging each parameter over all triplets it appears in (eq. 12).
// Probe sizes are chosen medium and replies empty to dodge the scatter
// leap and the gather escalations. With `parallel` set, disjoint pairs and
// triplets run concurrently (single-switch property).
//
// The triplet method is written once here and shared with the sampled
// scale fit (scale_estimator.hpp): one orientation rule behind one
// per-triplet stage-2 key generator, one eqs. (8)/(11) solve and one
// sharded two-stage driver. The two fits differ only in the triplets they
// visit (all C(n,3) here, a per-level sample there) and in how they
// accumulate the solutions: per rank and per pair through the eq. (12)
// averager here, per sampled rank and per LCA level there.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "core/lmo_model.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/plan.hpp"
#include "models/pair_table.hpp"

namespace lmo::estimate {

class MeasurementStore;

struct LmoOptions {
  Bytes probe_size = 32 * 1024;  ///< medium: below leap/rendezvous regions
  bool parallel = true;
  bool redundancy_averaging = true;  ///< eq. (12); false: first triplet wins

  /// Resource tree of the platform. When set (non-empty), fit_lmo
  /// additionally aggregates the fitted pair L/1-over-beta into per-level
  /// LevelLinks (params.per_level), and estimate_lmo plans with
  /// topology-aware packing. estimate_lmo defaults it from
  /// Experimenter::topology() when left null. Must outlive the fit.
  const sim::Topology* topology = nullptr;
};

struct LmoReport {
  core::LmoParams params;
  int roundtrip_experiments = 0;
  int one_to_two_experiments = 0;
  std::uint64_t world_runs = 0;
  SimTime estimation_cost;
};

// ------------------------------------------ the shared triplet method --

/// Node positions of a triplet's three pairs, the order of the pair
/// fields of TripletSolution.
inline constexpr std::array<std::array<int, 2>, 3> kTripletPairs{
    {{0, 1}, {0, 2}, {1, 2}}};

/// One triplet's eqs. (8)/(11) solution: C/t by node position,
/// L/1-over-beta by kTripletPairs position.
struct TripletSolution {
  double C[3] = {}, t[3] = {};
  double L[3] = {}, inv_beta[3] = {};
};

/// The triplet's six stage-2 experiments: per root position, the empty
/// (eq. 8) then the probe (eq. 11) one-to-two, oriented from the stored
/// round-trips (which the store must hold).
[[nodiscard]] std::array<ExperimentKey, 6> triplet_one_to_two_keys(
    const MeasurementStore& store, const Triplet& nodes, Bytes m);

/// Solve eqs. (8)/(11) for one triplet from its stored round-trips and
/// one-to-two times. Reads only the store: same store, same bits. Throws
/// lmo::Error naming a missing or non-finite round-trip.
[[nodiscard]] TripletSolution solve_triplet(const MeasurementStore& store,
                                            const Triplet& nodes, Bytes m);

/// What run_triplet_stages planned: unique experiments per stage, 0 for a
/// stage not reached.
struct TripletStages {
  std::size_t roundtrips = 0, one_to_two = 0;
  bool complete = false;  ///< the store holds both stages: ready to fit
};

/// The two-stage campaign: plan stage 1 (round-trips), execute, plan stage
/// 2 (one-to-two, oriented from the stored stage 1), execute. An active
/// `shard` executes only its slice of each stage and stops after the first
/// stage the store does not hold whole (stage 2 cannot be planned before
/// every shard's stage 1 is merged in). Stage `s` of {roundtrips,
/// one_to_two} runs in span `<name>.<s>` and publishes its platform cost
/// in gauge `<name>.cost_<s>_s`.
TripletStages run_triplet_stages(
    Experimenter& ex, MeasurementStore& store, const sim::Topology* topo,
    bool parallel, const ShardSpec& shard, const std::string& name,
    const std::function<void(PlanBuilder&)>& plan_roundtrips,
    const std::function<void(PlanBuilder&)>& plan_one_to_two);

// ------------------------------------------------- the exact LMO fit --

/// Stage 1 requirements: all round-trips T_ij(0), T_ij(M).
void plan_lmo_roundtrips(PlanBuilder& plan, int n, const LmoOptions& opts = {});

/// Stage 2 requirements: the oriented one-to-two experiments. Orientation
/// (which child is "far") is data-dependent — it derives from the measured
/// round-trips — so the store must already hold every stage-1 experiment.
void plan_lmo_one_to_two(PlanBuilder& plan, const MeasurementStore& store,
                         int n, const LmoOptions& opts = {});

/// Solve eqs. (8)/(11) per triplet and average per (12), reading both
/// experiment stages from the store. Pure and bit-stable: orientations are
/// recomputed from the stored round-trips, so the same store always yields
/// the same parameters.
[[nodiscard]] LmoReport fit_lmo(const MeasurementStore& store, int n,
                                const LmoOptions& opts = {});

/// run_triplet_stages over all pairs and triplets, then fit. An active
/// `shard` measures only its slice; while the store lacks other shards'
/// results the report has no parameters (and no one-to-two experiments
/// before stage 1 is whole). Run every shard on the cold store, merge, run
/// them again on the merged store, merge, then estimate unsharded.
[[nodiscard]] LmoReport estimate_lmo(Experimenter& ex, MeasurementStore& store,
                                     const LmoOptions& opts = {},
                                     const ShardSpec& shard = {});

/// Same, against a throwaway store.
[[nodiscard]] LmoReport estimate_lmo(Experimenter& ex,
                                     const LmoOptions& opts = {});

}  // namespace lmo::estimate
