// Run-report schema tests, and the acceptance guarantee that turning
// observability on (metrics publication + trace sink) leaves estimated
// parameters bit-identical — instrumented vs not, and across --jobs.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "coll/collectives.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/lmo_estimator.hpp"
#include "mpib/measure_options.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "simnet/cluster.hpp"
#include "vmpi/world.hpp"

namespace lmo {
namespace {

// ------------------------------------------------------- schema golden ----

TEST(ReportTest, SchemaGolden) {
  obs::ReportBuilder rb("test_tool");
  rb.provenance("seed", 42);
  rb.provenance("jobs", 4);
  obs::Json params = obs::Json::object();
  params["alpha"] = 1.5e-5;
  rb.set("estimated_parameters", std::move(params));
  obs::Json table = obs::Json::object();
  table["title"] = "t";
  table["columns"] = obs::Json::array();
  table["rows"] = obs::Json::array();
  rb.add_table(std::move(table));

  const obs::Json doc = obs::Json::parse(rb.build().dump(2));
  EXPECT_EQ(doc.at("schema").as_string(), obs::kReportSchema);
  EXPECT_EQ(doc.at("tool").as_string(), "test_tool");
  EXPECT_GT(doc.at("created_unix").as_int(), 0);
  EXPECT_GE(doc.at("wall_seconds").as_double(), 0.0);
  EXPECT_EQ(doc.at("provenance").at("seed").as_int(), 42);
  EXPECT_EQ(doc.at("provenance").at("jobs").as_int(), 4);
  EXPECT_FALSE(doc.at("provenance").at("compiler").as_string().empty());
  const std::string_view build = doc.at("provenance").at("build").as_string();
  EXPECT_TRUE(build == "release" || build == "debug");
  ASSERT_EQ(doc.at("tables").size(), 1u);
  EXPECT_EQ(doc.at("tables")[0].at("title").as_string(), "t");
  EXPECT_EQ(doc.at("estimated_parameters").at("alpha").as_double(), 1.5e-5);
  // The metrics snapshot is appended automatically.
  EXPECT_TRUE(doc.at("metrics").at("counters").is_object());
  EXPECT_TRUE(doc.at("metrics").at("gauges").is_object());
  EXPECT_TRUE(doc.at("metrics").at("histograms").is_object());

  // The schema header keys come first and in a fixed order, so reports
  // diff cleanly across runs.
  const auto& entries = doc.entries();
  ASSERT_GE(entries.size(), 5u);
  EXPECT_EQ(entries[0].first.as_string(), "schema");
  EXPECT_EQ(entries[1].first.as_string(), "tool");
  EXPECT_EQ(entries[2].first.as_string(), "created_unix");
  EXPECT_EQ(entries[3].first.as_string(), "wall_seconds");
  EXPECT_EQ(entries[4].first.as_string(), "provenance");
}

TEST(ReportTest, DuplicateSectionThrowsNamingTheSection) {
  obs::ReportBuilder rb("t");
  rb.set("k", 1);
  try {
    rb.set("k", 2);
    FAIL() << "setting a section twice must throw";
  } catch (const Error& e) {
    EXPECT_NE(std::strstr(e.what(), "'k'"), nullptr) << e.what();
  }
  // The first value survives, and other sections still work.
  rb.set("other", 3);
  const obs::Json doc = rb.build();
  EXPECT_EQ(doc.at("k").as_int(), 1);
  EXPECT_EQ(doc.at("other").as_int(), 3);
}

TEST(ReportTest, WriteProducesParseableFile) {
  obs::ReportBuilder rb("t");
  rb.set("note", "file \"round\" trip\n");
  const std::string path = "/tmp/lmo_test_report.json";
  rb.write(path);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const obs::Json doc = obs::Json::parse(buffer.str());
  EXPECT_EQ(doc.at("note").as_string(), "file \"round\" trip\n");
  EXPECT_EQ(buffer.str().back(), '\n');
  std::remove(path.c_str());
}

// ------------------------------------------- observability neutrality ----

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

struct Observed {
  estimate::LmoReport lmo;
  std::uint64_t runs = 0;
  SimTime cost;
};

/// One full LMO estimation; with `instrumented`, a trace sink records every
/// message and session metrics are published into a local registry.
Observed run_estimation(int jobs, bool instrumented,
                        obs::TraceSink* sink = nullptr) {
  const auto cfg = sim::make_random_cluster(4, /*seed=*/77);
  vmpi::World world(cfg);
  if (instrumented && sink) world.set_trace_sink(sink);
  mpib::MeasureOptions measure;
  measure.min_reps = 4;
  measure.max_reps = 12;
  measure.jobs = jobs;
  estimate::SimExperimenter ex(world, measure);
  Observed r;
  r.lmo = estimate::estimate_lmo(ex);
  r.runs = ex.runs();
  r.cost = ex.cost();
  if (instrumented) {
    // Estimation rounds run in fresh per-repetition sessions; one
    // collective on the base session exercises its sink and metrics.
    world.run(coll::spmd(world.size(), [](vmpi::Comm& c) {
      return coll::linear_scatter(c, 0, 1024);
    }));
    obs::Registry local;
    vmpi::publish_metrics(world.metrics(), local);
    EXPECT_GT(local.snapshot().counters.at("sim.runs"), 0u);
    EXPECT_GT(local.snapshot().counters.at("sim.bytes_on_wire"), 0u);
  }
  return r;
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

TEST(ReportTest, InstrumentationLeavesEstimatesBitIdentical) {
  const Observed plain = run_estimation(2, /*instrumented=*/false);
  obs::TraceSink sink;
  const Observed traced = run_estimation(2, /*instrumented=*/true, &sink);
  expect_same_estimates(plain, traced, "instrumented vs plain");
  std::ostringstream os;
  sink.write(os);
  const obs::Json doc = obs::Json::parse(os.str());
  int messages = 0;  // the sink actually recorded messages
  for (const obs::Json& e : doc.at("traceEvents").items())
    messages += e.at("ph").as_string() == "X";
  EXPECT_GT(messages, 0);
}

TEST(ReportTest, InstrumentedJobs1VsJobs4BitIdentical) {
  obs::TraceSink s1, s4;
  const Observed serial = run_estimation(1, /*instrumented=*/true, &s1);
  const Observed parallel = run_estimation(4, /*instrumented=*/true, &s4);
  expect_same_estimates(serial, parallel, "obs-on jobs 1 vs 4");
}

}  // namespace
}  // namespace lmo
