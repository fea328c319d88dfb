// Serial/parallel equivalence regression test (the core guarantee of the
// session-isolated experiment runner): estimating LMO and Hockney parameters
// on the same cluster must produce byte-identical results for every --jobs
// value, because each repetition is a pure function of
// (cluster seed, round index, repetition index).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "estimate/experimenter.hpp"
#include "estimate/hockney_estimator.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/suite.hpp"
#include "mpib/measure_options.hpp"
#include "simnet/cluster.hpp"
#include "vmpi/session.hpp"
#include "vmpi/world.hpp"

namespace lmo {
namespace {

using namespace lmo::literals;

// Byte-identical, not approximately-equal: memcmp the doubles so that even
// a last-ulp divergence between serial and parallel runs fails loudly.
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

struct EstimationResult {
  estimate::LmoReport lmo;
  estimate::HockneyReport hockney;
  std::uint64_t runs = 0;
  SimTime cost;
};

EstimationResult run_estimation(int jobs) {
  const auto cfg = sim::make_random_cluster(4, /*seed=*/77);
  vmpi::World world(cfg);
  mpib::MeasureOptions measure;
  measure.min_reps = 4;
  measure.max_reps = 12;
  measure.jobs = jobs;
  estimate::SimExperimenter ex(world, measure);
  EstimationResult r;
  r.lmo = estimate::estimate_lmo(ex);
  r.hockney = estimate::estimate_hockney(ex);
  r.runs = ex.runs();
  r.cost = ex.cost();
  return r;
}

TEST(DeterminismTest, LmoAndHockneySerialVsJobs4BitIdentical) {
  const auto serial = run_estimation(1);
  const auto parallel = run_estimation(4);

  expect_bits_eq(serial.lmo.params.C, parallel.lmo.params.C, "lmo.C");
  expect_bits_eq(serial.lmo.params.t, parallel.lmo.params.t, "lmo.t");
  expect_bits_eq(serial.lmo.params.L, parallel.lmo.params.L, "lmo.L");
  expect_bits_eq(serial.lmo.params.inv_beta, parallel.lmo.params.inv_beta,
                 "lmo.inv_beta");
  EXPECT_EQ(serial.lmo.roundtrip_experiments, parallel.lmo.roundtrip_experiments);
  EXPECT_EQ(serial.lmo.one_to_two_experiments,
            parallel.lmo.one_to_two_experiments);
  EXPECT_EQ(serial.lmo.estimation_cost, parallel.lmo.estimation_cost);

  expect_bits_eq(serial.hockney.hetero.alpha, parallel.hockney.hetero.alpha,
                 "hockney.alpha");
  expect_bits_eq(serial.hockney.hetero.beta, parallel.hockney.hetero.beta,
                 "hockney.beta");
  EXPECT_EQ(serial.hockney.homogeneous.alpha, parallel.hockney.homogeneous.alpha);
  EXPECT_EQ(serial.hockney.homogeneous.beta, parallel.hockney.homogeneous.beta);

  // Cost accounting must also be jobs-independent: only committed
  // repetitions count, speculative parallel extras are discarded.
  EXPECT_EQ(serial.runs, parallel.runs);
  EXPECT_EQ(serial.cost, parallel.cost);
}

TEST(DeterminismTest, MeasurementRoundBitIdenticalAcrossJobs) {
  const auto cfg = sim::make_random_cluster(5, /*seed=*/9);
  auto round = [&](int jobs) {
    vmpi::World world(cfg);
    mpib::MeasureOptions measure;
    measure.min_reps = 5;
    measure.max_reps = 40;
    measure.jobs = jobs;
    estimate::SimExperimenter ex(world, measure);
    auto means = ex.roundtrip_round({{0, 1}, {2, 3}}, 4096, 4096);
    means.push_back(ex.one_to_two(0, 2, 4, 8192, 0));
    return means;
  };
  const auto serial = round(1);
  ASSERT_EQ(serial.size(), 3u);
  for (const int jobs : {2, 4, 7})
    expect_bits_eq(round(jobs), serial, "round means");
}

// --- Store-path determinism: the plan/execute/fit pipeline must keep the
// --- jobs-independence guarantee, and a warm store must not perturb it.

estimate::SuiteOptions quick_suite_options() {
  estimate::SuiteOptions opts;
  opts.plogp.max_size = 2048;
  opts.plogp.tolerance = 1e9;
  opts.plogp.saturation_count = 8;
  opts.loggp.small_size = 1024;
  opts.loggp.large_size = 2048;
  opts.loggp.saturation_count = 8;
  opts.empirical.observations_per_size = 3;
  opts.empirical.sizes = {16 * 1024};
  return opts;
}

struct SuiteRun {
  estimate::SuiteReport report;
  estimate::MeasurementStore store;
};

SuiteRun run_suite(int jobs) {
  const auto cfg = sim::make_random_cluster(5, /*seed=*/31);
  vmpi::World world(cfg);
  mpib::MeasureOptions measure;
  measure.min_reps = 3;
  measure.max_reps = 8;
  measure.jobs = jobs;
  estimate::SimExperimenter ex(world, measure);
  SuiteRun r;
  r.report = estimate::estimate_model_suite(ex, r.store, quick_suite_options());
  return r;
}

void expect_bits_eq_suite(const estimate::SuiteReport& a,
                          const estimate::SuiteReport& b) {
  expect_bits_eq(a.lmo.params.C, b.lmo.params.C, "lmo.C");
  expect_bits_eq(a.lmo.params.t, b.lmo.params.t, "lmo.t");
  expect_bits_eq(a.lmo.params.L, b.lmo.params.L, "lmo.L");
  expect_bits_eq(a.lmo.params.inv_beta, b.lmo.params.inv_beta,
                 "lmo.inv_beta");
  expect_bits_eq(a.hockney.hetero.alpha, b.hockney.hetero.alpha,
                 "hockney.alpha");
  expect_bits_eq(a.hockney.hetero.beta, b.hockney.hetero.beta,
                 "hockney.beta");
  expect_bits_eq(a.loggp.hetero.L, b.loggp.hetero.L, "loggp.L");
  expect_bits_eq(a.loggp.hetero.G, b.loggp.hetero.G, "loggp.G");
  EXPECT_EQ(a.plogp.averaged.L, b.plogp.averaged.L);
  expect_bits_eq(a.plogp.averaged.g.ys(), b.plogp.averaged.g.ys(),
                 "plogp.g.ys");
  expect_bits_eq(a.plogp.averaged.os.ys(), b.plogp.averaged.os.ys(),
                 "plogp.os.ys");
  EXPECT_EQ(a.gather.empirical.m1, b.gather.empirical.m1);
  EXPECT_EQ(a.gather.empirical.m2, b.gather.empirical.m2);
  EXPECT_EQ(a.scatter.empirical.leap_s, b.scatter.empirical.leap_s);
}

TEST(DeterminismTest, SuiteThroughStoreSerialVsJobs4BitIdentical) {
  const SuiteRun serial = run_suite(1);
  const SuiteRun parallel = run_suite(4);
  expect_bits_eq_suite(serial.report, parallel.report);
  EXPECT_EQ(serial.report.world_runs, parallel.report.world_runs);
  EXPECT_EQ(serial.report.measured, parallel.report.measured);
  EXPECT_EQ(serial.report.estimation_cost, parallel.report.estimation_cost);
  // The stores themselves must match entry for entry.
  EXPECT_EQ(serial.store.to_json().dump(), parallel.store.to_json().dump());
}

TEST(DeterminismTest, ColdThenWarmStoreBitIdentical) {
  const auto cfg = sim::make_random_cluster(5, /*seed=*/31);
  const auto opts = quick_suite_options();
  mpib::MeasureOptions measure;
  measure.min_reps = 3;
  measure.max_reps = 8;

  estimate::MeasurementStore store;
  estimate::SuiteReport cold;
  {
    vmpi::World world(cfg);
    estimate::SimExperimenter ex(world, measure);
    cold = estimate::estimate_model_suite(ex, store, opts);
    EXPECT_GT(cold.measured, 0u);
  }
  // Warm rerun on a fresh world: cache-hit ordering must not perturb the
  // estimates — nothing is measured, everything re-reads the store.
  vmpi::World world(cfg);
  estimate::SimExperimenter ex(world, measure);
  const estimate::SuiteReport warm =
      estimate::estimate_model_suite(ex, store, opts);
  EXPECT_EQ(warm.measured, 0u);
  EXPECT_EQ(warm.world_runs, 0u);
  expect_bits_eq_suite(cold, warm);

  // And the offline refit from the same store agrees too.
  const estimate::SuiteReport offline =
      estimate::fit_model_suite(store, cfg.size(), opts);
  expect_bits_eq_suite(cold, offline);
}

TEST(DeterminismTest, SameSeedSessionsReproduceExactly) {
  const auto shared = std::make_shared<const sim::ClusterConfig>(
      sim::make_random_cluster(4, /*seed=*/5));
  auto run_once = [&](std::uint64_t seed) {
    vmpi::SimSession sess(shared, seed);
    auto programs = vmpi::idle_programs(shared->size());
    programs[0] = [](vmpi::Comm& c) -> vmpi::Task { co_await c.send(1, 8192); };
    programs[1] = [](vmpi::Comm& c) -> vmpi::Task { co_await c.recv(0); };
    sess.run(programs);
    return sess.rank_time(1);
  };
  EXPECT_EQ(run_once(123), run_once(123));
  // Different seeds draw different noise (overwhelmingly likely).
  EXPECT_NE(run_once(123), run_once(124));
}

TEST(DeterminismTest, SessionsShareOneClusterConfig) {
  const auto shared = std::make_shared<const sim::ClusterConfig>(
      sim::make_random_cluster(3, /*seed=*/2));
  vmpi::SimSession a(shared, 1), b(shared, 2);
  EXPECT_EQ(a.shared_config().get(), b.shared_config().get());
  EXPECT_EQ(a.shared_config().get(), shared.get());
}

}  // namespace
}  // namespace lmo
