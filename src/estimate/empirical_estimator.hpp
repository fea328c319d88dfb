// Extraction of the LMO empirical parameters from observations
// (paper Sections III and V).
//
// A preliminary sweep of the native linear gather classifies each
// observation against the two analytical branches of eq. (5):
//  * "small-clean"  — within tolerance of the max branch,
//  * "large-clean"  — within tolerance of the sum branch,
//  * "escalated"    — far above the max branch.
// M1 is the largest size whose observations are all small-clean before the
// first escalation; M2 is the smallest size from which everything is
// large-clean. Escalation magnitudes inside (M1, M2) are clustered into
// modes; the per-size fraction of clean samples gives the linear-fit
// probability. A scatter sweep against eq. (4) detects the leap.
#pragma once

#include <vector>

#include "core/empirical.hpp"
#include "core/lmo_model.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/plan.hpp"

namespace lmo::estimate {

class MeasurementStore;

/// Both sweeps are rooted at rank 0.
struct EmpiricalOptions {
  /// Sweep sizes; defaults (empty) to 1KB..256KB doubling plus quarter
  /// points.
  std::vector<Bytes> sizes;
  int observations_per_size = 12;
};

struct GatherSweepPoint {
  Bytes size = 0;
  std::vector<double> samples;
  double predicted_small = 0.0;  ///< max branch of eq. (5)
  double predicted_large = 0.0;  ///< sum branch of eq. (5)
  int escalated = 0;             ///< samples above the escalation threshold
};

struct GatherEmpiricalReport {
  core::GatherEmpirical empirical;
  std::vector<GatherSweepPoint> sweep;
};

/// Declare the gather sweep: `observations_per_size` keyed raw samples per
/// size (rep index in the key keeps every repetition distinct).
void plan_gather_sweep(PlanBuilder& plan, const EmpiricalOptions& opts = {});

/// Classify the stored sweep samples against the analytical branches of
/// eq. (5) and extract M1/M2, escalation modes and linear-fit
/// probabilities. Reads only the store — offline refits are bit-identical.
[[nodiscard]] GatherEmpiricalReport fit_gather_empirical(
    const MeasurementStore& store, const core::LmoParams& params,
    const EmpiricalOptions& opts = {});

/// Plan → execute (skipping samples the store already holds) → fit.
[[nodiscard]] GatherEmpiricalReport estimate_gather_empirical(
    Experimenter& ex, MeasurementStore& store, const core::LmoParams& params,
    const EmpiricalOptions& opts = {});

/// Same, against a throwaway store.
[[nodiscard]] GatherEmpiricalReport estimate_gather_empirical(
    Experimenter& ex, const core::LmoParams& params,
    const EmpiricalOptions& opts = {});

struct ScatterEmpiricalReport {
  core::ScatterEmpirical empirical;
  std::vector<Bytes> sizes;
  std::vector<double> observed;   ///< median per size
  std::vector<double> predicted;  ///< eq. (4) per size
};

/// Declare the scatter sweep (keyed raw samples, as for the gather).
void plan_scatter_sweep(PlanBuilder& plan, const EmpiricalOptions& opts = {});

/// Detect the scatter leap against eq. (4) from the stored sweep.
[[nodiscard]] ScatterEmpiricalReport fit_scatter_empirical(
    const MeasurementStore& store, const core::LmoParams& params,
    const EmpiricalOptions& opts = {});

/// Plan → execute → fit.
[[nodiscard]] ScatterEmpiricalReport estimate_scatter_empirical(
    Experimenter& ex, MeasurementStore& store, const core::LmoParams& params,
    const EmpiricalOptions& opts = {});

/// Same, against a throwaway store.
[[nodiscard]] ScatterEmpiricalReport estimate_scatter_empirical(
    Experimenter& ex, const core::LmoParams& params,
    const EmpiricalOptions& opts = {});

}  // namespace lmo::estimate
