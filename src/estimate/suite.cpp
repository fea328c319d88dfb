#include "estimate/suite.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lmo::estimate {

SuiteReport estimate_model_suite(Experimenter& ex, MeasurementStore& store,
                                 const SuiteOptions& opts_in) {
  const obs::Span sp = obs::span("suite.estimate");
  const int n = ex.size();
  SuiteOptions opts = opts_in;
  if (opts.lmo.topology == nullptr) opts.lmo.topology = ex.topology();
  const std::uint64_t runs0 = ex.runs();
  const SimTime cost0 = ex.cost();

  SuiteReport report;
  const auto run = [&](const PlanBuilder& plan) {
    report.requested += plan.requests();
    const ExperimentPlan built = plan.build(true);
    report.deduplicated += built.deduplicated;
    const ExecuteStats stats = execute_plan(built, ex, store);
    report.measured += stats.measured;
    report.cached += stats.cached;
  };

  // Stage 1: everything every estimator can declare up front — one merged
  // plan, deduplicated across estimators, executed in disjoint rounds.
  {
    const obs::Span stage_sp = obs::span("suite.stage1");
    PlanBuilder plan(ex.topology());
    plan_hockney(plan, n, opts.hockney);
    plan_loggp(plan, n, opts.loggp);
    plan_plogp(plan, n, opts.plogp);
    plan_lmo_roundtrips(plan, n, opts.lmo);
    plan_gather_sweep(plan, opts.empirical);
    plan_scatter_sweep(plan, opts.empirical);
    run(plan);
  }

  // Stage 2: LMO's one-to-two orientations derive from the stage-1
  // round-trips, so they can only be planned now.
  {
    const obs::Span stage_sp = obs::span("suite.stage2");
    PlanBuilder plan(ex.topology());
    plan_lmo_one_to_two(plan, store, n, opts.lmo);
    run(plan);
  }

  // Stage 3: PLogP's bisection midpoints derive from the stored ladder,
  // so they too can only be measured now.
  {
    const obs::Span stage_sp = obs::span("suite.stage3");
    const ExecuteStats stats = measure_plogp_midpoints(ex, store, opts.plogp);
    report.requested += stats.measured + stats.cached;
    report.measured += stats.measured;
    report.cached += stats.cached;
  }

  // Fits: every model reads the store only.
  SuiteReport fitted = fit_model_suite(store, n, opts);
  fitted.requested = report.requested;
  fitted.deduplicated = report.deduplicated;
  fitted.measured = report.measured;
  fitted.cached = report.cached;
  report = std::move(fitted);

  report.world_runs = ex.runs() - runs0;
  report.estimation_cost = ex.cost() - cost0;

  obs::Registry& reg = obs::Registry::global();
  reg.gauge("suite.world_runs").set(double(report.world_runs));
  reg.gauge("suite.cost_s").set(report.estimation_cost.seconds());
  reg.gauge("suite.measured").set(double(report.measured));
  reg.gauge("suite.cached").set(double(report.cached));
  return report;
}

SuiteReport fit_model_suite(const MeasurementStore& store, int n,
                            const SuiteOptions& opts) {
  const obs::Span sp = obs::span("suite.fit", "fit");
  SuiteReport report;
  report.hockney = fit_hockney(store, n, opts.hockney);
  report.loggp = fit_loggp(store, n, opts.loggp);
  report.lmo = fit_lmo(store, n, opts.lmo);
  report.plogp = fit_plogp(store, n, opts.plogp);
  report.gather =
      fit_gather_empirical(store, report.lmo.params, opts.empirical);
  report.scatter =
      fit_scatter_empirical(store, report.lmo.params, opts.empirical);
  return report;
}

}  // namespace lmo::estimate
