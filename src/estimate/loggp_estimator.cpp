#include "estimate/loggp_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "estimate/measurement_store.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

namespace {
void check_options(const LogGPOptions& opts) {
  LMO_CHECK(opts.small_size >= 0);
  LMO_CHECK(opts.large_size > opts.small_size);
  LMO_CHECK(opts.saturation_count >= 1);
}
}  // namespace

void plan_loggp(PlanBuilder& plan, int n, const LogGPOptions& opts) {
  check_options(opts);
  for (const auto& [i, j] : all_pairs(n)) {
    plan.require(ExperimentKey::send_overhead(i, j, opts.small_size));
    plan.require(ExperimentKey::recv_overhead(i, j, opts.small_size));
    plan.require(
        ExperimentKey::roundtrip(i, j, opts.small_size, opts.small_size));
    plan.require(ExperimentKey::saturation_gap(i, j, opts.small_size,
                                               opts.saturation_count));
    plan.require(ExperimentKey::saturation_gap(i, j, opts.large_size,
                                               opts.saturation_count));
  }
}

LogGPReport fit_loggp(const MeasurementStore& store, int n,
                      const LogGPOptions& opts) {
  const obs::Span sp = obs::span("loggp.fit", "fit");
  check_options(opts);
  LogGPReport report;
  report.hetero.L = models::PairTable(n);
  report.hetero.o = models::PairTable(n);
  report.hetero.g = models::PairTable(n);
  report.hetero.G = models::PairTable(n);

  for (const auto& [i, j] : all_pairs(n)) {
    const double os =
        store.at(ExperimentKey::send_overhead(i, j, opts.small_size));
    const double orr =
        store.at(ExperimentKey::recv_overhead(i, j, opts.small_size));
    const double rtt = store.at(
        ExperimentKey::roundtrip(i, j, opts.small_size, opts.small_size));
    LMO_CHECK_MSG(std::isfinite(os) && std::isfinite(orr) &&
                      std::isfinite(rtt),
                  "LogGP fit read a non-finite measurement for pair " +
                      std::to_string(i) + "," + std::to_string(j));
    const double latency = std::max(0.0, rtt / 2.0 - os - orr);
    const double g = std::max(0.0, store.at(ExperimentKey::saturation_gap(
                                       i, j, opts.small_size,
                                       opts.saturation_count)));
    const double g_large = store.at(ExperimentKey::saturation_gap(
        i, j, opts.large_size, opts.saturation_count));
    // A poisoned large-size gap could be smaller than physically possible
    // (or negative under a pathological store edit); G must stay >= 0.
    const double big_g = std::max(0.0, g_large / double(opts.large_size));

    const double o = 0.5 * std::max(0.0, os + orr);
    report.hetero.L(i, j) = report.hetero.L(j, i) = latency;
    report.hetero.o(i, j) = report.hetero.o(j, i) = o;
    report.hetero.g(i, j) = report.hetero.g(j, i) = g;
    report.hetero.G(i, j) = report.hetero.G(j, i) = big_g;

    // Fidelity: the fitted parameters' round-trip prediction at the probe
    // size vs the measured round-trip the fit consumed.
    if (obs::global_residuals()) {
      const Bytes m = opts.small_size;
      const double pt2pt =
          latency + 2.0 * o + (m > 0 ? double(m - 1) : 0.0) * big_g;
      obs::record_residual("loggp", "roundtrip",
                           obs::ResidualScope::kPointToPoint, -1,
                           std::uint64_t(m), 2.0 * pt2pt, rtt);
    }
  }

  report.averaged = report.hetero.averaged();
  report.logp = models::LogP{report.averaged.L, report.averaged.o,
                             report.averaged.g};
  return report;
}

LogGPReport estimate_loggp(Experimenter& ex, MeasurementStore& store,
                           const LogGPOptions& opts) {
  const obs::Span sp = obs::span("loggp.estimate");
  const std::uint64_t runs0 = ex.runs();
  const SimTime cost0 = ex.cost();

  PlanBuilder plan(ex.topology());
  plan_loggp(plan, ex.size(), opts);
  (void)execute_plan(plan.build(true), ex, store);
  LogGPReport report = fit_loggp(store, ex.size(), opts);
  report.world_runs = ex.runs() - runs0;
  report.estimation_cost = ex.cost() - cost0;
  return report;
}

LogGPReport estimate_loggp(Experimenter& ex, const LogGPOptions& opts) {
  MeasurementStore local;
  return estimate_loggp(ex, local, opts);
}

}  // namespace lmo::estimate
