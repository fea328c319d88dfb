// Model-fidelity telemetry acceptance tests.
//
// The two invariants pinned here:
//  1. The fidelity artifact alone reproduces the paper's cross-model
//     accuracy ordering on the Table-I cluster — LMO most accurate —
//     by parsing the rendered lmo.fidelity/1 JSON, exactly as the CI
//     accuracy gate does.
//  2. Attaching the telemetry (residual tracker and/or flight recorder)
//     leaves every estimate bit-identical — instrumented vs not, and
//     across --jobs 1 vs 4 — because the tracker only consumes
//     measurements the pipeline already made and the recorder only writes
//     into a preallocated ring.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "core/predictions.hpp"
#include "estimate/empirical_estimator.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/hockney_estimator.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/loggp_estimator.hpp"
#include "estimate/plogp_estimator.hpp"
#include "mpib/measure_options.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/residuals.hpp"
#include "simnet/cluster.hpp"
#include "simnet/fault.hpp"
#include "stats/summary.hpp"
#include "vmpi/world.hpp"

namespace lmo {
namespace {

/// RAII install/uninstall of the process-global residual tracker, so a
/// failing test can never leak a dangling tracker into its neighbors.
class ScopedResiduals {
 public:
  explicit ScopedResiduals(obs::ResidualTracker* t) {
    obs::set_global_residuals(t);
  }
  ~ScopedResiduals() { obs::set_global_residuals(nullptr); }
};

double observed_mean(estimate::SimExperimenter& ex,
                     const std::function<vmpi::Task(vmpi::Comm&)>& body,
                     int reps) {
  stats::RunningStats s;
  for (const double x : ex.observe_global_samples(body, reps)) s.add(x);
  return s.mean();
}

// ------------------------------------------------ the Table-2 invariant ----

TEST(FidelityTest, PaperClusterRankingPutsLmoFirst) {
  obs::ResidualTracker tracker;
  const ScopedResiduals guard(&tracker);

  const auto cfg = sim::make_paper_cluster(/*seed=*/1);
  vmpi::World world(cfg);
  mpib::MeasureOptions measure;
  measure.min_reps = 2;
  measure.max_reps = 4;
  estimate::SimExperimenter ex(world, measure);
  const int n = cfg.size();
  const int root = 0;

  const auto hockney = estimate::estimate_hockney(ex);
  const auto loggp = estimate::estimate_loggp(ex);
  const auto plogp = estimate::estimate_plogp(ex);
  const auto lmo = estimate::estimate_lmo(ex);
  const auto emp = estimate::estimate_gather_empirical(ex, lmo.params);

  // Collective-scope residuals for all four models at the paper's
  // representative sizes — the same records bench_table2_predictions
  // feeds the CI accuracy gate.
  for (const Bytes m :
       {Bytes(8) * 1024, Bytes(32) * 1024, Bytes(128) * 1024}) {
    const double obs_scatter = observed_mean(
        ex, [m](vmpi::Comm& c) { return coll::linear_scatter(c, 0, m); }, 2);
    const double obs_gather = observed_mean(
        ex, [m](vmpi::Comm& c) { return coll::linear_gather(c, 0, m); }, 2);
    const double hock = hockney.hetero.flat_collective(
        root, m, models::FlatAssumption::kSequential);
    const double lg = loggp.averaged.flat_collective(n, m);
    const double pl = plogp.averaged.flat_collective(n, m);
    const double lmo_s = core::linear_scatter_time(lmo.params, root, m);
    const double lmo_g =
        core::linear_gather_time(lmo.params, emp.empirical, root, m)
            .expected();
    const char* names[] = {"hockney", "loggp", "plogp", "lmo"};
    const double preds_s[] = {hock, lg, pl, lmo_s};
    const double preds_g[] = {hock, lg, pl, lmo_g};
    for (int k = 0; k < 4; ++k) {
      obs::record_residual(names[k], "linear_scatter",
                           obs::ResidualScope::kCollective, -1,
                           std::uint64_t(m), preds_s[k], obs_scatter);
      obs::record_residual(names[k], "linear_gather",
                           obs::ResidualScope::kCollective, -1,
                           std::uint64_t(m), preds_g[k], obs_gather);
    }
  }

  // The artifact alone — parsed back from its JSON rendering, as the CI
  // gate does — must carry the paper's conclusion.
  const obs::Json doc = obs::Json::parse(tracker.to_json().dump(2));
  EXPECT_EQ(doc.at("schema").as_string(), "lmo.fidelity/1");
  EXPECT_EQ(doc.at("ranking_metric").as_string(),
            "mre_over_shared_collective_ops");
  ASSERT_EQ(doc.at("ranking").size(), 4u);
  EXPECT_EQ(doc.at("ranking")[0].at("model").as_string(), "lmo")
      << doc.at("ranking").dump();
  // Ascending MRE: the order is the accuracy order.
  for (std::size_t r = 1; r < 4; ++r)
    EXPECT_LE(doc.at("ranking")[r - 1].at("mre").as_double(),
              doc.at("ranking")[r].at("mre").as_double());
  // Every model carries pt2pt residuals from its own fit as well.
  for (const char* m : {"hockney", "loggp", "plogp", "lmo"})
    EXPECT_GT(doc.at("models").at(m).at("overall").at("count").as_int(), 0)
        << m;
}

// --------------------------------------------- bit-identity of estimates ----

struct Observed {
  estimate::LmoReport lmo;
  std::uint64_t runs = 0;
  SimTime cost;
  std::string fidelity;  ///< dumped tracker JSON ("" when not tracking)
};

/// One full LMO estimation; with `tracked`, the global residual tracker
/// records fit residuals, and with `flight`, a recorder rides the session.
Observed run_estimation(int jobs, obs::ResidualTracker* tracker,
                        obs::FlightRecorder* flight) {
  const auto cfg = sim::make_random_cluster(4, /*seed=*/77);
  vmpi::World world(cfg);
  mpib::MeasureOptions measure;
  measure.min_reps = 4;
  measure.max_reps = 12;
  measure.jobs = jobs;
  estimate::SimExperimenter ex(world, measure);
  const ScopedResiduals guard(tracker);
  if (flight != nullptr) ex.set_flight_recorder(flight);
  Observed r;
  r.lmo = estimate::estimate_lmo(ex);
  r.runs = ex.runs();
  r.cost = ex.cost();
  if (tracker != nullptr) r.fidelity = tracker->to_json().dump(2);
  return r;
}

void expect_bits_eq(const std::vector<double>& a, const std::vector<double>& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

void expect_bits_eq(const models::PairTable& a, const models::PairTable& b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (int i = 0; i < a.size(); ++i)
    for (int j = 0; j < a.size(); ++j)
      EXPECT_EQ(a(i, j), b(i, j)) << what << "(" << i << "," << j << ")";
}

void expect_same_estimates(const Observed& a, const Observed& b,
                           const char* what) {
  expect_bits_eq(a.lmo.params.C, b.lmo.params.C, what);
  expect_bits_eq(a.lmo.params.t, b.lmo.params.t, what);
  expect_bits_eq(a.lmo.params.inv_beta, b.lmo.params.inv_beta, what);
  expect_bits_eq(a.lmo.params.L, b.lmo.params.L, what);
  EXPECT_EQ(a.runs, b.runs) << what;
  EXPECT_EQ(a.cost, b.cost) << what;
}

TEST(FidelityTest, TelemetryLeavesEstimatesBitIdentical) {
  const Observed plain = run_estimation(2, nullptr, nullptr);
  obs::ResidualTracker tracker;
  obs::FlightRecorder flight;
  const Observed instrumented = run_estimation(2, &tracker, &flight);
  expect_same_estimates(plain, instrumented, "telemetry on vs off");
  EXPECT_GT(tracker.recorded(), 0u);   // the tracker really recorded
  EXPECT_GT(flight.recorded(), 0u);    // the recorder really recorded
  EXPECT_FALSE(flight.degraded());     // clean run: no dump
}

TEST(FidelityTest, InstrumentedJobs1Vs4BitIdentical) {
  obs::ResidualTracker t1, t4;
  obs::FlightRecorder f1, f4;
  const Observed serial = run_estimation(1, &t1, &f1);
  const Observed parallel = run_estimation(4, &t4, &f4);
  expect_same_estimates(serial, parallel, "telemetry on, jobs 1 vs 4");
  // The fidelity artifact itself is jobs-independent, byte for byte.
  EXPECT_EQ(serial.fidelity, parallel.fidelity);
}

// ------------------------------------------------ degraded flight dumps ----

TEST(FidelityTest, FaultyRunMarksRecorderDegradedWithDump) {
  const auto cfg = sim::make_random_cluster(4, /*seed=*/5);
  vmpi::World world(cfg);
  mpib::MeasureOptions measure;
  measure.min_reps = 4;
  measure.max_reps = 8;
  // Heavy drop pressure: recovery retries must exhaust somewhere, which is
  // what marks the recorder degraded (light faults heal without a dump).
  measure.fault.drop_rate = 0.5;
  measure.fault.seed = 9;
  estimate::SimExperimenter ex(world, measure);
  obs::FlightRecorder flight;
  ex.set_flight_recorder(&flight);
  (void)estimate::estimate_hockney(ex);
  ASSERT_TRUE(flight.degraded());
  ASSERT_TRUE(flight.has_dump());
  // The dump names the degradation: at least one fault/timeout event, plus
  // the round bracketing every session executes.
  const obs::Json doc = flight.to_json();
  EXPECT_TRUE(doc.at("degraded").as_bool());
  bool saw_trouble = false, saw_round = false;
  for (const obs::Json& e : doc.at("events").items()) {
    const std::string_view name = e.at("name").as_string();
    if (name == "fault_injected" || name == "timeout" ||
        name == "retry_wave" || name == "poisoned")
      saw_trouble = true;
    if (name == "round_start" || name == "round_complete") saw_round = true;
  }
  EXPECT_TRUE(saw_trouble) << doc.dump();
  EXPECT_TRUE(saw_round) << doc.dump();
}

}  // namespace
}  // namespace lmo
