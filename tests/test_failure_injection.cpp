// Failure injection and edge cases: extreme measurement noise, degenerate
// clusters, tiny probes, misuse of the APIs. The estimators must degrade
// gracefully (clamped, finite, still roughly predictive), never crash or
// hang.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "coll/collectives.hpp"
#include "core/predictions.hpp"
#include "estimate/empirical_estimator.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/hockney_estimator.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/plan.hpp"
#include "mpib/measure_options.hpp"
#include "simnet/cluster.hpp"
#include "simnet/fault.hpp"
#include "util/error.hpp"
#include "vmpi/world.hpp"

#include "fixtures.hpp"

namespace lmo {
namespace {

using estimate::SimExperimenter;
using vmpi::Comm;
using vmpi::Task;
using vmpi::World;

TEST(NoiseInjection, EstimationSurvivesTenPercentNoise) {
  auto cfg = sim::make_random_cluster(6, 5150);
  cfg.noise_rel = 0.10;  // brutal
  World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate::estimate_lmo(ex);
  const auto gt = sim::ground_truth(cfg);
  for (int i = 0; i < cfg.size(); ++i) {
    EXPECT_GE(rep.params.C[std::size_t(i)], 0.0);
    EXPECT_GE(rep.params.t[std::size_t(i)], 0.0);
    EXPECT_TRUE(std::isfinite(rep.params.C[std::size_t(i)]));
  }
  // Point-to-point predictions still land within 40% despite the noise.
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      if (i == j) continue;
      const double truth =
          gt.C[std::size_t(i)] + gt.L(i, j) +
          gt.C[std::size_t(j)] +
          65536.0 * (gt.t[std::size_t(i)] +
                     gt.inv_beta(i, j) +
                     gt.t[std::size_t(j)]);
      EXPECT_NEAR(rep.params.pt2pt(i, j, 65536), truth, 0.4 * truth);
    }
}

TEST(Degenerate, ZeroLatencyCluster) {
  sim::NodeParams node;
  node.fixed_delay_s = 40e-6;
  node.per_byte_s = 100e-9;
  node.link_rate_bps = 12.5e6;
  node.latency_s = 0.0;
  auto cfg = test_support::make_homogeneous_cluster(4, node);
  cfg.switch_latency_s = 0.0;
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate::estimate_lmo(ex);
  // Latency estimates collapse to the residual frame time (~5 us), never
  // negative.
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      EXPECT_GE(rep.params.L(i, j), 0.0);
      EXPECT_LE(rep.params.L(i, j), 20e-6);
    }
}

TEST(Degenerate, HomogeneousClusterGivesUniformParameters) {
  sim::NodeParams node;
  node.fixed_delay_s = 60e-6;
  node.per_byte_s = 120e-9;
  node.link_rate_bps = 12.5e6;
  node.latency_s = 10e-6;
  auto cfg = test_support::make_homogeneous_cluster(5, node);
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate::estimate_lmo(ex);
  for (int i = 1; i < 5; ++i) {
    EXPECT_NEAR(rep.params.C[std::size_t(i)], rep.params.C[0],
                0.02 * rep.params.C[0]);
    EXPECT_NEAR(rep.params.t[std::size_t(i)], rep.params.t[0],
                0.02 * rep.params.t[0]);
  }
}

TEST(Degenerate, TinyProbeSizeStillFinite) {
  auto cfg = sim::make_random_cluster(4, 99);
  World w(cfg);
  SimExperimenter ex(w);
  estimate::LmoOptions opts;
  opts.probe_size = 64;  // t_i estimates become noise-dominated
  const auto rep = estimate_lmo(ex, opts);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(std::isfinite(rep.params.t[std::size_t(i)]));
    EXPECT_GE(rep.params.t[std::size_t(i)], 0.0);
  }
}

TEST(Degenerate, TwoNodeClusterHockneyOnly) {
  auto cfg = sim::make_random_cluster(2, 31);
  World w(cfg);
  SimExperimenter ex(w);
  const auto rep = estimate::estimate_hockney(ex);
  EXPECT_GT(rep.hetero.alpha(0, 1), 0.0);
  EXPECT_GT(rep.hetero.beta(0, 1), 0.0);
}

TEST(Degenerate, EmpiricalSweepWithCustomSparseSizes) {
  auto cfg = sim::make_paper_cluster();
  World w(cfg);
  SimExperimenter ex(w);
  const auto lmo = estimate::estimate_lmo(ex);
  estimate::EmpiricalOptions opts;
  opts.sizes = {1024, 16 * 1024, 128 * 1024};
  opts.observations_per_size = 4;
  const auto rep = estimate::estimate_gather_empirical(ex, lmo.params, opts);
  EXPECT_GE(rep.empirical.m1, 1024);
  EXPECT_LE(rep.empirical.m2, 128 * 1024);
  EXPECT_EQ(rep.sweep.size(), 3u);
}

TEST(Misuse, CollectiveWithBadRootThrows) {
  auto cfg = sim::make_random_cluster(4, 8);
  World w(cfg);
  auto programs = vmpi::idle_programs(4);
  programs[0] = [](Comm& c) -> Task {
    co_await coll::linear_scatter(c, 9, 100);  // root out of range
  };
  EXPECT_THROW(w.run(programs), Error);
}

TEST(Misuse, NegativeBytesRejected) {
  auto cfg = sim::make_random_cluster(4, 8);
  World w(cfg);
  auto programs = vmpi::idle_programs(4);
  programs[0] = [](Comm& c) -> Task {
    EXPECT_THROW((void)c.send(1, -5), Error);
    co_return;
  };
  w.run(programs);
}

TEST(Misuse, ExceptionMidCollectiveLeavesWorldUsable) {
  auto cfg = sim::make_random_cluster(4, 8);
  World w(cfg);
  auto bad = vmpi::idle_programs(4);
  bad[0] = [](Comm& c) -> Task {
    co_await c.send(1, 100);
    throw Error("mid-flight failure");
  };
  bad[1] = [](Comm& c) -> Task {
    co_await c.recv(0);
    co_await c.recv(0);  // never satisfied -> stranded
  };
  EXPECT_THROW(w.run(bad), Error);
  // The world must still run clean programs afterwards.
  const SimTime t = w.run(coll::spmd(4, [](Comm& c) {
    return coll::linear_gather(c, 0, 512);
  }));
  EXPECT_GT(t, SimTime::zero());
}

TEST(Misuse, GatherPredictionWithInvertedBand) {
  // m1 >= m2 means "no band": medium regime never triggers.
  auto cfg = sim::make_paper_cluster();
  const auto gt = sim::ground_truth(cfg);
  core::LmoParams p;
  p.C = gt.C;
  p.t = gt.t;
  p.L = models::PairTable(16);
  p.inv_beta = models::PairTable(16);
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j) {
      if (i == j) continue;
      p.L(i, j) = gt.L(i, j);
      p.inv_beta(i, j) = gt.inv_beta(i, j);
    }
  core::GatherEmpirical emp;
  emp.m1 = 100;
  emp.m2 = 100;
  const auto pred = core::linear_gather_time(p, emp, 0, 50);
  EXPECT_EQ(pred.regime, core::GatherRegime::kSmall);
  const auto pred2 = core::linear_gather_time(p, emp, 0, 5000);
  EXPECT_EQ(pred2.regime, core::GatherRegime::kLarge);
}

TEST(Robustness, RepeatedEstimationIsStable) {
  // Two estimations on the same world (fresh noise draws) agree closely —
  // the statistical machinery suppresses run-to-run variation.
  auto cfg = sim::make_paper_cluster(17);
  World w(cfg);
  SimExperimenter ex(w);
  const auto a = estimate::estimate_lmo(ex);
  const auto b = estimate::estimate_lmo(ex);
  for (int i = 0; i < cfg.size(); ++i)
    EXPECT_NEAR(a.params.C[std::size_t(i)], b.params.C[std::size_t(i)],
                0.10 * a.params.C[std::size_t(i)] + 2e-6);
}

TEST(Robustness, QuirklessWorldHasNoEscalationsEver) {
  auto cfg = sim::make_paper_cluster();
  cfg.quirks.enabled = false;
  World w(cfg);
  for (int rep = 0; rep < 10; ++rep)
    w.run(coll::spmd(16, [](Comm& c) {
      return coll::linear_gather(c, 0, 32 * 1024);
    }));
  EXPECT_EQ(w.fabric().counters().escalations, 0u);
  EXPECT_EQ(w.fabric().counters().leaps, 0u);
}

TEST(Robustness, QuirkyWorldEscalatesInBandGathers) {
  auto cfg = sim::make_paper_cluster();
  World w(cfg);
  for (int rep = 0; rep < 10; ++rep)
    w.run(coll::spmd(16, [](Comm& c) {
      return coll::linear_gather(c, 0, 32 * 1024);
    }));
  EXPECT_GT(w.fabric().counters().escalations, 0u);
}

// --- Fault injection + recovery (the deterministic fault model of
// --- simnet/fault.hpp and the retry/timeout/trim/quarantine pipeline).

TEST(FaultSpecTest, ValidateRejectsNonsense) {
  sim::FaultSpec ok;
  ok.validate();  // all-zero default is valid (and disabled)
  EXPECT_FALSE(ok.enabled());

  sim::FaultSpec s = ok;
  s.spike_rate = 1.5;
  EXPECT_THROW(s.validate(), Error);
  s = ok;
  s.drop_rate = -0.1;
  EXPECT_THROW(s.validate(), Error);
  s = ok;
  s.spike_scale_s = 0.0;
  EXPECT_THROW(s.validate(), Error);
  s = ok;
  s.hang_delay_s = -1.0;
  EXPECT_THROW(s.validate(), Error);
  s = ok;
  s.slow_factor = 0.5;
  EXPECT_THROW(s.validate(), Error);

  s = ok;
  s.drop_rate = 0.01;
  EXPECT_TRUE(s.enabled());
  s.validate();
}

TEST(FaultSpecTest, RecoveryKnobValidationRejectsNonsense) {
  mpib::MeasureOptions ok;
  ok.validate();

  mpib::MeasureOptions o = ok;
  o.fault.drop_rate = 2.0;
  EXPECT_THROW(o.validate(), Error);
}

TEST(FaultInjectionTest, DisabledSpecIsAStrictNoop) {
  const sim::FaultSpec off;  // all rates zero
  for (std::uint64_t rep = 0; rep < 50; ++rep) {
    const auto out = sim::inject_fault(off, 3, rep, 0, 1.25e-4, 1.0);
    EXPECT_EQ(out.seconds, 1.25e-4);
    EXPECT_FALSE(out.spiked || out.dropped || out.hung || out.slowed);
    EXPECT_EQ(sim::slow_scale_for(off, 3, rep, {0, 1, 2}), 1.0);
  }
}

TEST(FaultInjectionTest, OutcomesAreDeterministicPerCoordinates) {
  sim::FaultSpec spec;
  spec.spike_rate = 0.3;
  spec.drop_rate = 0.2;
  spec.hang_rate = 0.1;
  spec.slow_rate = 0.2;
  spec.seed = 42;
  int spikes = 0, drops = 0, hangs = 0;
  for (std::uint64_t rep = 0; rep < 200; ++rep) {
    const auto a = sim::inject_fault(spec, 7, rep, 2, 1e-4, 1.0);
    const auto b = sim::inject_fault(spec, 7, rep, 2, 1e-4, 1.0);
    EXPECT_EQ(std::memcmp(&a.seconds, &b.seconds, sizeof(double)), 0);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.hung, b.hung);
    EXPECT_EQ(a.spiked, b.spiked);
    spikes += a.spiked;
    drops += a.dropped;
    hangs += a.hung;
    if (a.dropped) {
      EXPECT_TRUE(std::isinf(a.seconds));
    }
    if (a.hung) {
      EXPECT_GE(a.seconds, spec.hang_delay_s);
    }
    if (a.spiked) {
      EXPECT_GT(a.seconds, 1e-4);
    }
  }
  // With these rates all three classes fire over 200 repetitions.
  EXPECT_GT(spikes, 0);
  EXPECT_GT(drops, 0);
  EXPECT_GT(hangs, 0);
  // Slowdown episodes are per-node decisions shared across slots.
  EXPECT_EQ(sim::slow_episode(spec, 7, 11, 3),
            sim::slow_episode(spec, 7, 11, 3));
}

mpib::MeasureOptions faulty_options(int jobs = 0) {
  mpib::MeasureOptions measure;
  measure.min_reps = 4;
  measure.max_reps = 24;
  measure.jobs = jobs;
  measure.fault.spike_rate = 0.06;
  measure.fault.drop_rate = 0.05;
  measure.fault.hang_rate = 0.03;
  measure.fault.slow_rate = 0.04;
  measure.fault.seed = 2026;
  return measure;
}

TEST(FaultRecoveryTest, EstimationSurvivesDropsHangsSpikes) {
  auto cfg = sim::make_random_cluster(6, 5150);
  World w(cfg);
  estimate::SimExperimenter ex(w, faulty_options());
  const auto rep = estimate::estimate_lmo(ex);
  const auto gt = sim::ground_truth(cfg);
  for (int i = 0; i < cfg.size(); ++i) {
    EXPECT_TRUE(std::isfinite(rep.params.C[std::size_t(i)]));
    EXPECT_TRUE(std::isfinite(rep.params.t[std::size_t(i)]));
    EXPECT_GE(rep.params.C[std::size_t(i)], 0.0);
    EXPECT_GE(rep.params.t[std::size_t(i)], 0.0);
  }
  // Timeouts + MAD trimming keep hangs (30 s) and heavy-tail spikes out of
  // the committed means: predictions stay in the same ballpark as truth,
  // nowhere near the poisoned values an untrimmed mean would produce.
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      if (i == j) continue;
      const double truth =
          gt.C[std::size_t(i)] + gt.L(i, j) +
          gt.C[std::size_t(j)] +
          65536.0 * (gt.t[std::size_t(i)] +
                     gt.inv_beta(i, j) +
                     gt.t[std::size_t(j)]);
      const double predicted = rep.params.pt2pt(i, j, 65536);
      EXPECT_TRUE(std::isfinite(predicted));
      EXPECT_NEAR(predicted, truth, 0.6 * truth);
    }
}

TEST(FaultRecoveryTest, ExhaustedObservationPaysOneBackoffPerRetry) {
  // Every attempt drops: the recovery policy's two retries make three
  // runs, and each retry pays one 0.05 s backoff — the first attempt is
  // not a retry.
  mpib::MeasureOptions measure;
  measure.fault.drop_rate = 1.0;
  World world(sim::make_random_cluster(4, 3));
  SimExperimenter ex(world, measure);
  EXPECT_EQ(ex.observe_scatter(0, 4096), measure.fault.hang_delay_s);
  EXPECT_EQ(world.total_runs(), 3u);
  EXPECT_EQ(ex.cost().ns() - world.accumulated_time().ns(),
            SimTime::from_seconds(2 * 0.05).ns());
}

void expect_fault_bits_eq(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << what;
  }
}

TEST(FaultDeterminismTest, SerialVsJobs4BitIdenticalWithFaults) {
  const auto cfg = sim::make_random_cluster(5, 77);
  auto run = [&](int jobs) {
    World world(cfg);
    estimate::SimExperimenter ex(world, faulty_options(jobs));
    return estimate::estimate_lmo(ex);
  };
  const auto serial = run(1);
  const auto parallel = run(4);
  expect_fault_bits_eq(serial.params.C, parallel.params.C, "lmo.C");
  expect_fault_bits_eq(serial.params.t, parallel.params.t, "lmo.t");
  for (int i = 0; i < cfg.size(); ++i)
    for (int j = 0; j < cfg.size(); ++j) {
      EXPECT_EQ(serial.params.L(i, j), parallel.params.L(i, j));
      EXPECT_EQ(serial.params.inv_beta(i, j), parallel.params.inv_beta(i, j));
    }
  EXPECT_EQ(serial.estimation_cost, parallel.estimation_cost);
}

TEST(FaultDeterminismTest, MeasurementRoundWithFaultsJobsIndependent) {
  const auto cfg = sim::make_random_cluster(5, 9);
  auto round = [&](int jobs) {
    World world(cfg);
    estimate::SimExperimenter ex(world, faulty_options(jobs));
    auto means = ex.roundtrip_round({{0, 1}, {2, 3}}, 4096, 4096);
    means.push_back(ex.one_to_two(0, 2, 4, 8192, 0));
    return means;
  };
  const auto serial = round(1);
  ASSERT_EQ(serial.size(), 3u);
  for (const int jobs : {2, 4, 7})
    expect_fault_bits_eq(round(jobs), serial, "faulty round means");
}

TEST(FaultQuarantineTest, PoisonedKeysQuarantinedAndRemeasuredWarm) {
  const auto cfg = sim::make_random_cluster(4, 21);

  estimate::PlanBuilder builder;
  builder.require(estimate::ExperimentKey::roundtrip(0, 1, 4096, 4096));
  builder.require(estimate::ExperimentKey::roundtrip(2, 3, 4096, 4096));
  const auto plan = builder.build();

  estimate::MeasurementStore store;
  store.set_cluster(cfg.size(), cfg.seed);
  {
    // Nearly every repetition drops: even after its two retry waves,
    // recovery cannot assemble min_reps clean samples, so the keys are
    // poisoned.
    mpib::MeasureOptions measure;
    measure.min_reps = 4;
    measure.max_reps = 8;
    measure.fault.drop_rate = 0.97;
    measure.fault.seed = 7;
    World world(cfg);
    estimate::SimExperimenter ex(world, measure);
    const auto stats = estimate::execute_plan(plan, ex, store);
    EXPECT_EQ(stats.measured, 2u);
  }
  // Both keys are poisoned with the retries the recovery policy fixes.
  ASSERT_EQ(store.quarantined_count(), 2u);
  const auto key = estimate::ExperimentKey::roundtrip(0, 1, 4096, 4096);
  // Quarantined keys miss lookup() but at() still serves the suspect.
  EXPECT_FALSE(store.contains(key));
  EXPECT_FALSE(store.lookup(key).has_value());
  EXPECT_TRUE(std::isfinite(store.at(key)));

  // Warm re-run with the faults gone: quarantined keys are re-measured
  // (not served from cache) and the clean values lift the quarantine.
  World world(cfg);
  estimate::SimExperimenter ex(world);
  const auto stats = estimate::execute_plan(plan, ex, store);
  EXPECT_GT(stats.measured, 0u);
  EXPECT_EQ(store.quarantined_count(), 0u);
  EXPECT_TRUE(store.lookup(key).has_value());
}

TEST(FaultQuarantineTest, JsonRoundTripPreservesQuarantine) {
  estimate::MeasurementStore store;
  const auto clean = estimate::ExperimentKey::roundtrip(0, 1, 1024, 1024);
  const auto bad = estimate::ExperimentKey::roundtrip(2, 3, 1024, 1024);
  store.insert(clean, 1.5e-4);
  store.quarantine(bad, 2.5e-4);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.quarantined_count(), 1u);

  const auto reloaded = estimate::MeasurementStore::from_json(store.to_json());
  EXPECT_EQ(reloaded.quarantined_count(), 1u);
  EXPECT_FALSE(reloaded.contains(bad));
  EXPECT_FALSE(reloaded.lookup(bad).has_value());
  EXPECT_DOUBLE_EQ(reloaded.at(bad), 2.5e-4);
  EXPECT_DOUBLE_EQ(reloaded.at(clean), 1.5e-4);

  // A clean measurement lifts the quarantine.
  estimate::MeasurementStore lifted =
      estimate::MeasurementStore::from_json(store.to_json());
  lifted.insert(bad, 2.0e-4);
  EXPECT_EQ(lifted.quarantined_count(), 0u);
  EXPECT_TRUE(lifted.contains(bad));
  EXPECT_DOUBLE_EQ(lifted.at(bad), 2.0e-4);

  // Quarantining a key that already has a clean value is a no-op.
  lifted.quarantine(clean, 9.9);
  EXPECT_TRUE(lifted.contains(clean));
  EXPECT_DOUBLE_EQ(lifted.at(clean), 1.5e-4);
}

TEST(FaultStoreTest, LoadRejectsGarbageNamingThePath) {
  const std::string dir = ::testing::TempDir();
  const std::string garbage = dir + "lmo_store_garbage.json";
  {
    std::ofstream os(garbage);
    os << "this is not json {]";
  }
  try {
    (void)estimate::MeasurementStore::load(garbage);
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(garbage), std::string::npos)
        << e.what();
  }

  const std::string truncated = dir + "lmo_store_truncated.json";
  {
    estimate::MeasurementStore store;
    store.insert(estimate::ExperimentKey::roundtrip(0, 1, 1024, 1024), 1e-4);
    store.save(truncated);
    std::ifstream is(truncated);
    std::string full((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
    std::ofstream os(truncated, std::ios::trunc);
    os << full.substr(0, full.size() / 2);
  }
  EXPECT_THROW((void)estimate::MeasurementStore::load(truncated), Error);

  EXPECT_THROW(
      (void)estimate::MeasurementStore::load(dir + "lmo_no_such_file.json"),
      Error);
  std::remove(garbage.c_str());
  std::remove(truncated.c_str());
}

TEST(FaultPlanTest, EmptyPlanIsANoop) {
  const auto cfg = sim::make_random_cluster(4, 3);
  World world(cfg);
  estimate::SimExperimenter ex(world);
  estimate::MeasurementStore store;
  const estimate::ExperimentPlan plan;  // no rounds at all
  const auto stats = estimate::execute_plan(plan, ex, store);
  EXPECT_EQ(stats.measured, 0u);
  EXPECT_EQ(stats.cached, 0u);
  EXPECT_EQ(stats.rounds, 0u);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(ex.runs(), 0u);
}

}  // namespace
}  // namespace lmo
