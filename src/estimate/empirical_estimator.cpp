#include "estimate/empirical_estimator.hpp"

#include <algorithm>
#include <cmath>

#include "core/predictions.hpp"
#include "estimate/measurement_store.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

namespace {
constexpr int kRoot = 0;
/// Residual above the max branch counting as an escalation [s].
constexpr double kEscalationThreshold = 0.01;
/// Relative tolerance for "fits a branch".
constexpr double kBranchTolerance = 0.15;
/// Mode clustering tolerance [s].
constexpr double kModeTolerance = 0.02;

std::vector<Bytes> default_sizes() {
  std::vector<Bytes> sizes;
  for (Bytes m = 1024; m <= 256 * 1024; m *= 2) {
    sizes.push_back(m);
    if (m < 256 * 1024) {
      sizes.push_back(m + m / 4);
      sizes.push_back(m + m / 2);
      sizes.push_back(m + 3 * m / 4);
    }
  }
  std::sort(sizes.begin(), sizes.end());
  return sizes;
}

/// eq. (5) branches without the empirical band (pure analytics).
std::pair<double, double> gather_branches(const core::LmoParams& p, int root,
                                          Bytes m) {
  core::GatherEmpirical none;  // m1 = m2 = 0: always the max branch
  const double small = core::linear_gather_time(p, none, root, m).base;
  core::GatherEmpirical force_large;
  force_large.m1 = 0;
  force_large.m2 = 1;  // m >= m2 for any m >= 1: sum branch
  const double large =
      m >= 1 ? core::linear_gather_time(p, force_large, root, m).base : small;
  return {small, large};
}

void check_sweep_options(const EmpiricalOptions& opts) {
  LMO_CHECK(opts.observations_per_size >= 3);
}
}  // namespace

void plan_gather_sweep(PlanBuilder& plan, const EmpiricalOptions& opts) {
  check_sweep_options(opts);
  const auto sizes = opts.sizes.empty() ? default_sizes() : opts.sizes;
  for (const Bytes m : sizes)
    for (int rep = 0; rep < opts.observations_per_size; ++rep)
      plan.require(ExperimentKey::gather_observation(kRoot, m, rep));
}

void plan_scatter_sweep(PlanBuilder& plan, const EmpiricalOptions& opts) {
  check_sweep_options(opts);
  const auto sizes = opts.sizes.empty() ? default_sizes() : opts.sizes;
  for (const Bytes m : sizes)
    for (int rep = 0; rep < opts.observations_per_size; ++rep)
      plan.require(ExperimentKey::scatter_observation(kRoot, m, rep));
}

GatherEmpiricalReport fit_gather_empirical(const MeasurementStore& store,
                                           const core::LmoParams& params,
                                           const EmpiricalOptions& opts) {
  const obs::Span sp = obs::span("empirical.gather_fit", "fit");
  check_sweep_options(opts);
  const auto sizes = opts.sizes.empty() ? default_sizes() : opts.sizes;

  GatherEmpiricalReport report;
  std::vector<double> escalation_magnitudes;

  for (const Bytes m : sizes) {
    GatherSweepPoint point;
    point.size = m;
    const auto [small, large] = gather_branches(params, kRoot, m);
    point.predicted_small = small;
    point.predicted_large = large;
    for (int rep = 0; rep < opts.observations_per_size; ++rep)
      point.samples.push_back(
          store.at(ExperimentKey::gather_observation(kRoot, m, rep)));
    report.sweep.push_back(std::move(point));
  }

  // Classify sizes, median first: a size whose *median* tracks the small
  // (max) branch is in the small/medium regime — its above-threshold
  // samples are escalations. A median tracking the sum branch instead is
  // the clean large regime (not escalation, just serialization).
  auto fits = [&](double obs, double pred) {
    return std::fabs(obs - pred) <= kBranchTolerance * pred;
  };
  core::GatherEmpirical& emp = report.empirical;
  Bytes first_dirty = 0, last_dirty = 0;
  for (auto& point : report.sweep) {
    const double med = stats::median_of(point.samples);
    const bool fits_small = fits(med, point.predicted_small);
    const bool fits_large = fits(med, point.predicted_large);
    const bool is_large =
        fits_large && (!fits_small ||
                       std::fabs(med - point.predicted_large) <
                           std::fabs(med - point.predicted_small));
    if (!is_large) {
      // Small/medium regime: every sample above the small branch by more
      // than the threshold is an escalation — even when escalations are so
      // frequent that the median itself escalated.
      for (const double obs : point.samples) {
        const double residual = obs - point.predicted_small;
        if (residual > kEscalationThreshold) {
          ++point.escalated;
          escalation_magnitudes.push_back(residual);
        }
      }
    }
    const bool small_clean = !is_large && fits_small && point.escalated == 0;
    if (!small_clean && !is_large) {
      if (first_dirty == 0) first_dirty = point.size;
      last_dirty = point.size;
    }
  }
  if (first_dirty == 0) {
    // No irregular band observed: degenerate empirical model.
    emp.m1 = sizes.back();
    emp.m2 = sizes.back();
  } else {
    // M1: largest clean size below the first dirty one; M2: smallest clean
    // "large" size above the last dirty one.
    emp.m1 = sizes.front();
    for (const auto& point : report.sweep) {
      if (point.size >= first_dirty) break;
      emp.m1 = point.size;
    }
    emp.m2 = sizes.back();
    for (auto it = report.sweep.rbegin(); it != report.sweep.rend(); ++it) {
      if (it->size <= last_dirty) break;
      emp.m2 = it->size;
    }
  }

  if (!escalation_magnitudes.empty())
    emp.escalation_modes =
        stats::find_modes(escalation_magnitudes, kModeTolerance);

  // Linear-fit probability at the band ends: fraction of clean samples of
  // the nearest in-band sizes.
  auto clean_fraction_at = [&](Bytes target) {
    double best = 1.0;
    Bytes best_dist = -1;
    for (const auto& point : report.sweep) {
      if (!emp.in_band(point.size)) continue;
      const Bytes dist = std::llabs(point.size - target);
      if (best_dist < 0 || dist < best_dist) {
        best_dist = dist;
        best = 1.0 - double(point.escalated) / double(point.samples.size());
      }
    }
    return best;
  };
  emp.linear_prob_at_m1 = clean_fraction_at(emp.m1);
  emp.linear_prob_at_m2 = clean_fraction_at(emp.m2);

  // Fidelity: eq. (5) with the just-fitted band vs the observed medians it
  // was calibrated on — collective scope, so these feed the ranking only
  // for models that also predict gathers.
  if (obs::global_residuals()) {
    for (const auto& point : report.sweep)
      obs::record_residual(
          "lmo", "gather_sweep", obs::ResidualScope::kCollective, -1,
          std::uint64_t(point.size),
          core::linear_gather_time(params, emp, kRoot, point.size).base,
          stats::median_of(point.samples));
  }
  return report;
}

GatherEmpiricalReport estimate_gather_empirical(Experimenter& ex,
                                                MeasurementStore& store,
                                                const core::LmoParams& params,
                                                const EmpiricalOptions& opts) {
  const obs::Span sp = obs::span("empirical.gather_sweep");
  PlanBuilder plan(ex.topology());
  plan_gather_sweep(plan, opts);
  (void)execute_plan(plan.build(true), ex, store);
  return fit_gather_empirical(store, params, opts);
}

GatherEmpiricalReport estimate_gather_empirical(Experimenter& ex,
                                                const core::LmoParams& params,
                                                const EmpiricalOptions& opts) {
  MeasurementStore local;
  return estimate_gather_empirical(ex, local, params, opts);
}

ScatterEmpiricalReport fit_scatter_empirical(const MeasurementStore& store,
                                             const core::LmoParams& params,
                                             const EmpiricalOptions& opts) {
  const obs::Span sp = obs::span("empirical.scatter_fit", "fit");
  check_sweep_options(opts);
  const auto sizes = opts.sizes.empty() ? default_sizes() : opts.sizes;

  ScatterEmpiricalReport report;
  for (const Bytes m : sizes) {
    std::vector<double> samples;
    for (int rep = 0; rep < opts.observations_per_size; ++rep)
      samples.push_back(
          store.at(ExperimentKey::scatter_observation(kRoot, m, rep)));
    report.sizes.push_back(m);
    report.observed.push_back(stats::median_of(samples));
    report.predicted.push_back(core::linear_scatter_time(params, kRoot, m));
  }

  // The leap: first size whose median exceeds eq. (4) by more than the
  // escalation threshold; its magnitude is the residual there.
  core::ScatterEmpirical& emp = report.empirical;
  for (std::size_t s = 0; s < report.sizes.size(); ++s) {
    const double residual = report.observed[s] - report.predicted[s];
    if (residual > kEscalationThreshold) {
      emp.detected = true;
      emp.leap_threshold = report.sizes[s];
      emp.leap_s = residual;
      break;
    }
  }

  // Fidelity: eq. (4) predictions vs the observed scatter medians.
  if (obs::global_residuals()) {
    for (std::size_t s = 0; s < report.sizes.size(); ++s)
      obs::record_residual("lmo", "scatter_sweep",
                           obs::ResidualScope::kCollective, -1,
                           std::uint64_t(report.sizes[s]),
                           report.predicted[s], report.observed[s]);
  }
  return report;
}

ScatterEmpiricalReport estimate_scatter_empirical(
    Experimenter& ex, MeasurementStore& store, const core::LmoParams& params,
    const EmpiricalOptions& opts) {
  const obs::Span sp = obs::span("empirical.scatter_sweep");
  PlanBuilder plan(ex.topology());
  plan_scatter_sweep(plan, opts);
  (void)execute_plan(plan.build(true), ex, store);
  return fit_scatter_empirical(store, params, opts);
}

ScatterEmpiricalReport estimate_scatter_empirical(
    Experimenter& ex, const core::LmoParams& params,
    const EmpiricalOptions& opts) {
  MeasurementStore local;
  return estimate_scatter_empirical(ex, local, params, opts);
}

}  // namespace lmo::estimate
