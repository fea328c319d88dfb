// Tests for the MPIBlib-style measurement method: MeasureOptions
// validation, the Student-t repetition rule as SimExperimenter applies it,
// and the simulator properties the paper's timing choices rest on.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coll/collectives.hpp"
#include "estimate/experimenter.hpp"
#include "mpib/measure_options.hpp"
#include "simnet/cluster.hpp"
#include "stats/students_t.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"
#include "vmpi/world.hpp"

#include "fixtures.hpp"

namespace lmo::mpib {
namespace {

using estimate::SimExperimenter;

/// A four-node cluster with relative noise `noise` and no quirks, so the
/// spread of a round trip is set by `noise` alone.
sim::ClusterConfig noisy_cluster(double noise) {
  auto cfg = sim::make_random_cluster(4, 17);
  cfg.noise_rel = noise;
  cfg.quirks.enabled = false;
  return cfg;
}

struct RoundtripMeasurement {
  double mean = 0.0;
  std::uint64_t reps = 0;  ///< committed repetitions of the one round
};

/// One measured round trip 0 <-> 1 of 1 KB each way.
RoundtripMeasurement measure_roundtrip(const sim::ClusterConfig& cfg,
                                       const MeasureOptions& opts = {}) {
  vmpi::World w(cfg);
  SimExperimenter ex(w, opts);
  RoundtripMeasurement out;
  out.mean = ex.roundtrip(0, 1, 1024, 1024);
  out.reps = ex.runs();
  return out;
}

TEST(Measure, ConvergesOnLowVariance) {
  const auto quiet = measure_roundtrip(noisy_cluster(1e-4));
  EXPECT_EQ(quiet.reps, 5u);  // min_reps suffices
  const auto exact = measure_roundtrip(noisy_cluster(0.0));
  EXPECT_NEAR(quiet.mean, exact.mean, 1e-3 * exact.mean);
}

TEST(Measure, KeepsSamplingHighVariance) {
  const auto m = measure_roundtrip(noisy_cluster(0.5));
  EXPECT_GT(m.reps, 5u);
  EXPECT_GT(m.mean, measure_roundtrip(noisy_cluster(0.0)).mean);
}

TEST(Measure, GivesUpAtMaxReps) {
  MeasureOptions opts;
  opts.max_reps = 10;
  opts.rel_err = 1e-6;  // unreachable with any noise
  EXPECT_EQ(measure_roundtrip(noisy_cluster(0.5), opts).reps, 10u);
}

TEST(Measure, TightensWithStricterTarget) {
  // Stricter relative error must need at least as many reps.
  MeasureOptions loose, strict;
  loose.rel_err = 0.10;
  strict.rel_err = 0.01;
  loose.max_reps = strict.max_reps = 500;
  const auto cfg = noisy_cluster(0.3);
  const auto a = measure_roundtrip(cfg, loose);
  const auto b = measure_roundtrip(cfg, strict);
  EXPECT_LT(a.reps, b.reps);
}

TEST(Measure, RejectsBadOptions) {
  MeasureOptions opts;
  opts.min_reps = 1;
  vmpi::World w(noisy_cluster(0.01));
  EXPECT_THROW(SimExperimenter(w, opts), Error);
}

TEST(MeasureCollective, RootVsGlobalTiming) {
  auto cfg = sim::make_paper_cluster();
  cfg.noise_rel = 0.005;
  const Bytes m = 8192;
  const auto body = [m](vmpi::Comm& c) {
    return coll::linear_scatter(c, 0, m);
  };
  vmpi::World w(cfg);
  stats::RunningStats at_root, global;
  for (int rep = 0; rep < 10; ++rep) {
    at_root.add(test_support::run_timed(w, 0, body).seconds());
    global.add(w.run(coll::spmd(w.size(), body)).seconds());
  }
  // Global completion includes the last receiver's tail.
  EXPECT_GT(global.mean(), at_root.mean());
  EXPECT_LE(stats::confidence_interval(at_root, 0.95).relative_error(), 0.025);
  EXPECT_LE(stats::confidence_interval(global, 0.95).relative_error(), 0.025);
}

// validate() must fail loudly, naming the offending field, before any
// experiment runs — a typo'd CI target silently loosening every estimate
// is far worse than an upfront error.
void expect_rejected(const MeasureOptions& opts, const std::string& field) {
  try {
    opts.validate();
    FAIL() << "expected validate() to reject " << field;
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
        << "message should name " << field << ", got: " << e.what();
  }
}

TEST(MeasureOptionsValidate, AcceptsDefaultsAndAutoJobs) {
  MeasureOptions opts;
  EXPECT_NO_THROW(opts.validate());
  opts.jobs = 0;  // 0 = auto (process default), explicitly legal
  EXPECT_NO_THROW(opts.validate());
  opts.jobs = 7;
  EXPECT_NO_THROW(opts.validate());
  opts.min_reps = opts.max_reps = 2;  // degenerate but legal
  EXPECT_NO_THROW(opts.validate());
}

TEST(MeasureOptionsValidate, RejectsBadConfidence) {
  MeasureOptions opts;
  opts.confidence = 0.0;
  expect_rejected(opts, "confidence");
  opts.confidence = 1.0;
  expect_rejected(opts, "confidence");
  opts.confidence = -0.95;
  expect_rejected(opts, "confidence");
}

TEST(MeasureOptionsValidate, RejectsNonPositiveRelErr) {
  MeasureOptions opts;
  opts.rel_err = 0.0;
  expect_rejected(opts, "rel_err");
  opts.rel_err = -0.025;
  expect_rejected(opts, "rel_err");
}

TEST(MeasureOptionsValidate, RejectsBadRepCounts) {
  MeasureOptions opts;
  opts.min_reps = 1;  // one sample has no confidence interval
  expect_rejected(opts, "min_reps");
  opts.min_reps = 10;
  opts.max_reps = 9;
  expect_rejected(opts, "max_reps");
}

TEST(MeasureOptionsValidate, RejectsNegativeJobs) {
  MeasureOptions opts;
  opts.jobs = -1;
  expect_rejected(opts, "jobs");
}

TEST(MeasureOptionsValidate, MeasureRefusesBadOptions) {
  MeasureOptions opts;
  opts.min_reps = 0;
  vmpi::World w(noisy_cluster(0.01));
  EXPECT_THROW(SimExperimenter(w, opts), Error);
  EXPECT_EQ(w.total_runs(), 0u) << "nothing may run before validation";
}

TEST(MeasureCollective, PaperAccuracySettings) {
  // The paper's settings, 95% confidence and 2.5% relative error, hold
  // for a small linear gather after min_reps root-timed repetitions.
  vmpi::World w(sim::make_paper_cluster());
  const MeasureOptions opts;
  stats::RunningStats s;
  for (int rep = 0; rep < opts.min_reps; ++rep)
    s.add(test_support::run_timed(w, 0, [](vmpi::Comm& c) {
            return coll::linear_gather(c, 0, 1024);
          }).seconds());
  EXPECT_LE(stats::confidence_interval(s, opts.confidence).relative_error(),
            opts.rel_err);
}

}  // namespace
}  // namespace lmo::mpib
