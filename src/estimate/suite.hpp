// All-five-model estimation through one shared measurement campaign
// (paper Section IV's cost argument, applied across estimators).
//
// Estimated independently, Hockney, LogP/LogGP, PLogP, LMO and the
// empirical extraction repeat each other's experiments: Hockney's probe
// round-trips are LMO's, PLogP's RTT(0) ladder rung is LogGP's, the
// empirical sweeps need LMO's parameters anyway. The suite collects every
// estimator's declared plan into one PlanBuilder, executes the union once
// (disjoint-processor rounds, shared MeasurementStore), then the two
// stages that can only be planned from measured data (LMO's one-to-two
// orientations, PLogP's bisection midpoints), and fits all five models
// from the same store. The suite options deliberately align the
// overlapping probe sizes (Hockney's probe = LMO's, LogGP's sizes on the
// PLogP ladder) so the overlap is real, not accidental.
#pragma once

#include "estimate/empirical_estimator.hpp"
#include "estimate/hockney_estimator.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/loggp_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/plogp_estimator.hpp"

namespace lmo::estimate {

struct SuiteOptions {
  HockneyOptions hockney;
  LogGPOptions loggp;
  PLogPOptions plogp;
  LmoOptions lmo;
  EmpiricalOptions empirical;

  /// Align the cross-estimator probe sizes so plans actually overlap:
  /// LogGP's small size sits on the PLogP ladder, its saturation sizes and
  /// counts match PLogP's, and Hockney probes at LMO's probe size.
  SuiteOptions() {
    loggp.small_size = 1024;
    loggp.large_size = plogp.max_size;
    loggp.saturation_count = plogp.saturation_count;
    hockney.probe_size = lmo.probe_size;
  }
};

struct SuiteReport {
  HockneyReport hockney;
  LogGPReport loggp;
  PLogPReport plogp;
  LmoReport lmo;
  GatherEmpiricalReport gather;
  ScatterEmpiricalReport scatter;

  // Reuse accounting for the shared campaign.
  std::size_t requested = 0;     ///< requirements declared by all estimators
  std::size_t deduplicated = 0;  ///< requests collapsed onto a shared key
  std::size_t measured = 0;      ///< experiments actually run
  std::size_t cached = 0;        ///< experiments served by the store
  std::uint64_t world_runs = 0;
  SimTime estimation_cost;
};

/// Estimate all five models through `store`. A warm store (e.g. reloaded
/// from --measurements-load) is consulted first, so a fully warm run
/// measures nothing and still produces bit-identical parameters.
[[nodiscard]] SuiteReport estimate_model_suite(Experimenter& ex,
                                               MeasurementStore& store,
                                               const SuiteOptions& opts = {});

/// Re-fit all five models offline from a saved store (no experimenter, no
/// platform time). Throws lmo::Error naming any missing experiment.
[[nodiscard]] SuiteReport fit_model_suite(const MeasurementStore& store, int n,
                                          const SuiteOptions& opts = {});

}  // namespace lmo::estimate
