// PLogP parameter estimation (Kielmann et al.; paper Section II).
//
// o_s(M), o_r(M) and g(M) are measured at adaptively chosen message sizes:
// starting from a doubling ladder, a midpoint is inserted whenever g at a
// new size disagrees with the linear extrapolation of the previous two
// breakpoints by more than `tolerance` — the bisection rule quoted in the
// paper. The latency is L = RTT(0)/2 - g(0) (consistent with the PLogP
// point-to-point reading T = L + g(M)).
//
// Like LMO's one-to-two orientations, the midpoints are data-dependent, so
// the campaign runs in two stages over one MeasurementStore: the ladder is
// planned and executed first, then a sweep over the stored ladder measures
// each midpoint it asks for. The fit repeats that sweep reading the store
// only, so a warm or offline refit places the same midpoints.
//
// The homogeneous PLogP of Table II is obtained by averaging the per-pair
// piecewise functions over all pairs on a union of breakpoints.
#pragma once

#include "estimate/experimenter.hpp"
#include "estimate/plan.hpp"
#include "models/plogp.hpp"

namespace lmo::estimate {

class MeasurementStore;

struct PLogPOptions {
  Bytes max_size = 256 * 1024;
  double tolerance = 0.10;  ///< relative disagreement triggering bisection
  int saturation_count = 32;
  int max_points = 40;      ///< safety cap on adaptive refinement
};

struct PLogPReport {
  models::PLogP averaged;               ///< homogeneous view (Table II)
  /// Directed estimates: pairs[e] = (sender, receiver). The gap is
  /// dominated by the sender's processing on CPU-bound clusters, so both
  /// directions of every link are measured.
  std::vector<models::PLogP> per_pair;
  std::vector<Pair> pairs;
  std::uint64_t world_runs = 0;
  SimTime estimation_cost;
};

/// Stage 1: the doubling ladder of gap/overhead measurements for every
/// directed pair, plus the empty round-trips.
void plan_plogp(PlanBuilder& plan, int n, const PLogPOptions& opts = {});

/// Stage 2: sweep every directed pair over the stored ladder and measure
/// the bisection midpoints the store lacks. Each midpoint key runs as its
/// own one-experiment plan, in pair-major, gap -> o_s -> o_r order.
/// Requires the stage-1 keys in `store`.
ExecuteStats measure_plogp_midpoints(Experimenter& ex, MeasurementStore& store,
                                     const PLogPOptions& opts = {});

/// Fit from the store only (offline): the same sweep, reading ladder and
/// midpoints alike. Throws lmo::Error naming any missing experiment.
[[nodiscard]] PLogPReport fit_plogp(const MeasurementStore& store, int n,
                                    const PLogPOptions& opts = {});

/// Plan → execute (ladder) → midpoints → fit.
[[nodiscard]] PLogPReport estimate_plogp(Experimenter& ex,
                                         MeasurementStore& store,
                                         const PLogPOptions& opts = {});

/// Same, against a throwaway store.
[[nodiscard]] PLogPReport estimate_plogp(Experimenter& ex,
                                         const PLogPOptions& opts = {});

/// Assemble the heterogeneous PLogP extension from the per-pair estimates:
/// per-link L and g(M), per-processor overheads averaged over the links the
/// processor participates in (paper Section II's suggestion).
[[nodiscard]] models::HeteroPLogP hetero_plogp(const PLogPReport& report,
                                               int n);

}  // namespace lmo::estimate
