#include "estimate/hockney_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "estimate/measurement_store.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

void plan_hockney(PlanBuilder& plan, int n, const HockneyOptions& opts) {
  LMO_CHECK(opts.probe_size > 0);
  for (const auto& [i, j] : all_pairs(n))
    for (const Bytes m : {Bytes(0), opts.probe_size})
      plan.require(ExperimentKey::roundtrip(i, j, m, m));
}

HockneyReport fit_hockney(const MeasurementStore& store, int n,
                          const HockneyOptions& opts) {
  const obs::Span sp = obs::span("hockney.fit", "fit");
  LMO_CHECK(opts.probe_size > 0);
  HockneyReport report;
  report.hetero.alpha = models::PairTable(n);
  report.hetero.beta = models::PairTable(n);

  // Under injected outliers the slope of a two-point fit can come out
  // negative — a physically meaningless "negative per-byte cost" that
  // would make every downstream prediction decrease with message size. Clamp both parameters at zero;
  // for sane measurements the clamp is the identity, so fault-free fits
  // are bit-identical.
  auto assign = [&report](int i, int j, double alpha, double beta) {
    LMO_CHECK_MSG(std::isfinite(alpha) && std::isfinite(beta),
                  "Hockney fit produced a non-finite parameter for pair " +
                      std::to_string(i) + "," + std::to_string(j));
    alpha = std::max(0.0, alpha);
    beta = std::max(0.0, beta);
    report.hetero.alpha(i, j) = report.hetero.alpha(j, i) = alpha;
    report.hetero.beta(i, j) = report.hetero.beta(j, i) = beta;
  };
  // Empty messages give the latency, the probe size gives the bandwidth.
  for (const auto& [i, j] : all_pairs(n)) {
    const double t0 = store.at(ExperimentKey::roundtrip(i, j, 0, 0));
    const double tm = store.at(
        ExperimentKey::roundtrip(i, j, opts.probe_size, opts.probe_size));
    const double alpha = t0 / 2.0;
    const double beta = (tm / 2.0 - alpha) / double(opts.probe_size);
    assign(i, j, alpha, beta);
  }

  // Fidelity: score the fitted model against the very round-trips it read.
  // Two-point fits interpolate their probes exactly, so these residuals
  // mostly expose clamping — the cross-model ranking rests on
  // collective-scope residuals instead.
  if (obs::global_residuals()) {
    for (const auto& [i, j] : all_pairs(n))
      for (const Bytes m : {Bytes(0), opts.probe_size}) {
        const double predicted =
            2.0 * (report.hetero.alpha(i, j) +
                   report.hetero.beta(i, j) * double(m));
        obs::record_residual("hockney", "roundtrip",
                             obs::ResidualScope::kPointToPoint, -1,
                             std::uint64_t(m), predicted,
                             store.at(ExperimentKey::roundtrip(i, j, m, m)));
      }
  }

  report.homogeneous = report.hetero.averaged();
  return report;
}

HockneyReport estimate_hockney(Experimenter& ex, MeasurementStore& store,
                               const HockneyOptions& opts) {
  const obs::Span sp = obs::span("hockney.estimate");
  const std::uint64_t runs0 = ex.runs();
  const SimTime cost0 = ex.cost();

  PlanBuilder plan(ex.topology());
  plan_hockney(plan, ex.size(), opts);
  (void)execute_plan(plan.build(opts.parallel), ex, store);
  HockneyReport report = fit_hockney(store, ex.size(), opts);
  report.world_runs = ex.runs() - runs0;
  report.estimation_cost = ex.cost() - cost0;
  return report;
}

HockneyReport estimate_hockney(Experimenter& ex, const HockneyOptions& opts) {
  MeasurementStore local;
  return estimate_hockney(ex, local, opts);
}

}  // namespace lmo::estimate
