// LogP / LogGP parameter estimation (paper Section II).
//
// Per pair:
//  * o_s — duration of the blocking send in a round-trip with empty reply;
//  * o_r — duration of a receive posted after the reply has arrived;
//  * L   — RTT(M)/2 - o_s - o_r;
//  * g   — small-message saturation (T_n / n);
//  * G   — large-message saturation per byte.
#pragma once

#include "estimate/experimenter.hpp"
#include "estimate/plan.hpp"
#include "models/logp.hpp"

namespace lmo::estimate {

class MeasurementStore;

struct LogGPOptions {
  Bytes small_size = 256;         ///< "short message" for o/L/g
  Bytes large_size = 128 * 1024;  ///< saturation size for G
  int saturation_count = 48;
};

struct LogGPReport {
  models::HeteroLogGP hetero;
  models::LogGP averaged;
  models::LogP logp;  ///< the plain LogP view (L, o, g)
  std::uint64_t world_runs = 0;
  SimTime estimation_cost;
};

/// Declare the experiments LogP/LogGP estimation needs.
void plan_loggp(PlanBuilder& plan, int n, const LogGPOptions& opts = {});

/// Fit from a store holding every planned experiment (pure, bit-stable).
[[nodiscard]] LogGPReport fit_loggp(const MeasurementStore& store, int n,
                                    const LogGPOptions& opts = {});

/// Plan → execute (measuring only what `store` lacks) → fit.
[[nodiscard]] LogGPReport estimate_loggp(Experimenter& ex,
                                         MeasurementStore& store,
                                         const LogGPOptions& opts = {});

/// Same, against a throwaway store.
[[nodiscard]] LogGPReport estimate_loggp(Experimenter& ex,
                                         const LogGPOptions& opts = {});

}  // namespace lmo::estimate
