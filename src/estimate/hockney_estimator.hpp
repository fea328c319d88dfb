// Hockney parameter estimation (paper Section II).
//
// Per pair: alpha_ij from empty round-trips (T_ij(0)/2), beta_ij from
// round-trips with a probe message ((T_ij(M)/2 - alpha_ij) / M). The
// homogeneous model is the off-diagonal average. With `parallel` set the
// C(n,2) experiments run in rounds of disjoint pairs (n-1 rounds when n
// is a power of two) — the Section-IV optimization (5 s vs. 16 s on the
// paper's cluster).
#pragma once

#include "estimate/experimenter.hpp"
#include "estimate/plan.hpp"
#include "models/hockney.hpp"

namespace lmo::estimate {

class MeasurementStore;

/// The paper lists two point-to-point estimation methods for Hockney:
/// two round-trip series (empty + one probe size), or a regression over a
/// series of message sizes.
enum class HockneyMethod { kTwoPoint, kRegression };

struct HockneyOptions {
  Bytes probe_size = 32 * 1024;
  bool parallel = true;
  HockneyMethod method = HockneyMethod::kTwoPoint;
  /// Sizes for the regression method (empty: 0, probe/4, probe/2, probe).
  std::vector<Bytes> regression_sizes;
};

struct HockneyReport {
  models::HeteroHockney hetero;
  models::Hockney homogeneous;
  std::uint64_t world_runs = 0;
  SimTime estimation_cost;  ///< simulated wall time spent estimating
};

/// Declare the experiments Hockney estimation needs on an n-node cluster.
void plan_hockney(PlanBuilder& plan, int n, const HockneyOptions& opts = {});

/// Fit Hockney parameters from a store holding every planned experiment
/// (throws lmo::Error naming any missing one). Pure: reads only the store,
/// so refitting — offline, reordered, or from a reloaded file — is
/// bit-identical.
[[nodiscard]] HockneyReport fit_hockney(const MeasurementStore& store, int n,
                                        const HockneyOptions& opts = {});

/// Plan → execute (measuring only what `store` lacks) → fit. world_runs /
/// estimation_cost report what this call actually spent on the platform.
[[nodiscard]] HockneyReport estimate_hockney(Experimenter& ex,
                                             MeasurementStore& store,
                                             const HockneyOptions& opts = {});

/// Same, against a throwaway store (the classic imperative entry point).
[[nodiscard]] HockneyReport estimate_hockney(Experimenter& ex,
                                             const HockneyOptions& opts = {});

}  // namespace lmo::estimate
