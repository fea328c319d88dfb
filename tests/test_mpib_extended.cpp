// Additional measurement coverage: repetition-count boundaries of the
// SimExperimenter rule, and timing methods on subsets and gathers.
#include <gtest/gtest.h>

#include "coll/collectives.hpp"
#include "estimate/experimenter.hpp"
#include "mpib/measure_options.hpp"
#include "simnet/cluster.hpp"
#include "stats/students_t.hpp"
#include "stats/summary.hpp"
#include "vmpi/world.hpp"

#include "fixtures.hpp"

namespace lmo::mpib {
namespace {

using estimate::SimExperimenter;
using vmpi::Comm;
using vmpi::Task;

TEST(MeasureRecord, ExactlyMinRepsWhenImmediatelyTight) {
  auto cfg = sim::make_random_cluster(4, 17);
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  MeasureOptions opts;
  opts.min_reps = 7;
  vmpi::World w(cfg);
  SimExperimenter ex(w, opts);
  const double mean = ex.roundtrip(0, 1, 2048, 2048);
  EXPECT_EQ(ex.runs(), 7u);
  // Seven identical noise-free samples: the mean is one of them exactly.
  vmpi::World once(cfg);
  EXPECT_EQ(mean, test_support::run_timed(once, 0, [](Comm& c) -> Task {
                    if (c.rank() == 0) {
                      co_await c.send(1, 2048);
                      co_await c.recv(1);
                    } else if (c.rank() == 1) {
                      co_await c.recv(0);
                      co_await c.send(0, 2048);
                    }
                  }).seconds());
}

TEST(MeasureRecord, MaxEqualsMinRepsAllowed) {
  auto cfg = sim::make_random_cluster(4, 17);
  cfg.noise_rel = 0.5;
  MeasureOptions opts;
  opts.min_reps = 5;
  opts.max_reps = 5;
  vmpi::World w(cfg);
  SimExperimenter ex(w, opts);
  (void)ex.roundtrip(0, 1, 1024, 1024);
  EXPECT_EQ(ex.runs(), 5u);
}

TEST(MeasureCollective, WorksOnSubsetViaIdleRanks) {
  // A pair experiment on a 16-rank world: only two ranks act; root timing
  // still sees a positive, tightly repeatable round trip.
  vmpi::World w(sim::make_paper_cluster());
  stats::RunningStats s;
  for (int rep = 0; rep < 5; ++rep)
    s.add(test_support::run_timed(w, 0, [](Comm& c) -> Task {
            if (c.rank() == 0) {
              co_await c.send(1, 4096);
              co_await c.recv(1);
            } else if (c.rank() == 1) {
              co_await c.recv(0);
              co_await c.send(0, 4096);
            }
          }).seconds());
  EXPECT_GT(s.mean(), 0.0);
  EXPECT_LE(stats::confidence_interval(s, 0.95).relative_error(), 0.025);
}

TEST(MeasureCollective, GlobalAtLeastRootForGatherToo) {
  auto cfg = sim::make_paper_cluster();
  cfg.quirks.escalation_peak_prob = 0.0;  // deterministic comparison
  vmpi::World w(cfg);
  const auto body = [](Comm& c) { return coll::linear_gather(c, 0, 2048); };
  stats::RunningStats root, global;
  for (int rep = 0; rep < 10; ++rep) {
    root.add(test_support::run_timed(w, 0, body).seconds());
    global.add(w.run(coll::spmd(w.size(), body)).seconds());
  }
  // For gather the root finishes last: the two methods nearly coincide.
  EXPECT_NEAR(global.mean(), root.mean(), 0.02 * root.mean());
}

TEST(MeasureCollective, EscalationsInflateVarianceInBand) {
  vmpi::World w(sim::make_paper_cluster());
  SimExperimenter ex(w);
  const auto spread = [&ex](Bytes m) {
    stats::RunningStats s;
    for (const double x : ex.observe_global_samples(
             [m](Comm& c) { return coll::linear_gather(c, 0, m); }, 40))
      s.add(x);
    return s.stddev() / s.mean();
  };
  // Relative spread in the escalation band dwarfs the clean region's.
  EXPECT_GT(spread(32 * 1024), 5 * spread(1024));
}

}  // namespace
}  // namespace lmo::mpib
