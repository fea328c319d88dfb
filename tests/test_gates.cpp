// End-to-end gates: the reproduction's claims checked through the real
// binaries, the way a user runs them. Each test spawns lmo_tool,
// lmo_served or a bench binary, then reads the JSON they write through
// obs::Json.
//
// Every artifact lands in LMO_GATE_DIR (build/gate-reports), so a failed
// run leaves its reports, flight dump and shard models behind for a
// postmortem; CI uploads that folder.
//
// The suites are named *Gate and no test name contains the words the
// ThreadSanitizer job selects by (Parallel, Determinism, Fault, Topology,
// Obs, Serve): the binaries they spawn are single processes whose races
// the in-process suites already cover, and under TSan they would only add
// minutes.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"
#include "spawn.hpp"

namespace lmo {
namespace {

using test::read_file;
using test::run;

const std::string kTool = LMO_TOOL_BIN;

/// A fresh folder for one test's artifacts under the gate directory.
std::string gate_dir(const std::string& name) {
  const std::string dir = std::string(LMO_GATE_DIR) + "/" + name + "/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Run `command`; a non-zero exit fails the test with the output.
bool ran(const std::string& command) {
  const test::RunResult r = run(command);
  if (r.exit_code == 0) return true;
  ADD_FAILURE() << command << "\nexited " << r.exit_code << ":\n" << r.output;
  return false;
}

obs::Json load(const std::string& path) {
  return obs::Json::parse(read_file(path));
}

/// The value of the Prometheus sample `name` in exposition text, or -1.
double sample(const std::string& text, const std::string& name) {
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);)
    if (line.rfind(name + " ", 0) == 0)
      return std::stod(line.substr(name.size()));
  return -1.0;
}

void expect_same_bytes(const std::string& a, const std::string& b) {
  const std::string x = read_file(a);
  EXPECT_FALSE(x.empty()) << a;
  EXPECT_TRUE(x == read_file(b)) << a << " and " << b << " differ";
}

// --------------------------------------------------------- shard / jobs --

/// The EXPERIMENTS.md multi-process recipe end to end: a cold 2-shard
/// two-pass campaign whose merged store and fitted model must be
/// byte-identical to the single-process run. With `artifacts`, the
/// second-pass shards also write every artifact file, which must parse,
/// fold through `merge --reports`, and leave the results unchanged.
void expect_sharded_matches_single(const std::string& name,
                                   const std::string& cluster_args,
                                   bool artifacts = false) {
  const std::string d = gate_dir(name);
  const std::string est = kTool + " estimate --jobs 2 --cluster " + d +
                          "cluster.json";
  ASSERT_TRUE(ran(kTool + " make-cluster " + cluster_args + " --out " + d +
                  "cluster.json"));
  ASSERT_TRUE(ran(est + " --measurements-save " + d + "single.json --out " +
                  d + "model_single.json"));
  // A shard pass scores no collective, so the second passes check their
  // fidelity against a first pass.
  for (const std::string s : {"0", "1"})
    ASSERT_TRUE(ran(est + " --shard " + s + "/2 --measurements-save " + d +
                    "s" + s + ".json --out /dev/null" +
                    (artifacts ? " --fidelity-save " + d + "s" + s +
                                     "_fidelity.json"
                               : std::string())));
  ASSERT_TRUE(ran(kTool + " merge --out " + d + "m1.json " + d + "s0.json " +
                  d + "s1.json"));
  for (const std::string s : {"0", "1"}) {
    const std::string p = d + "s" + s + "b_";
    ASSERT_TRUE(ran(
        est + " --shard " + s + "/2 --measurements-load " + d +
        "m1.json --measurements-save " + d + "s" + s +
        "b.json --out /dev/null" +
        (artifacts ? " --report " + p + "report.json --trace " + p +
                         "trace.json --fidelity-save " + p +
                         "fidelity.json --fidelity-baseline " + d +
                         "s0_fidelity.json --flight-dump " + p +
                         "flight.json --metrics-out " + p + "metrics.prom"
                   : std::string())));
  }
  ASSERT_TRUE(ran(kTool + " merge --out " + d + "m2.json " + d + "s0b.json " +
                  d + "s1b.json" +
                  (artifacts ? " --reports " + d + "s0b_report.json," + d +
                                   "s1b_report.json --report " + d +
                                   "folded.json"
                             : std::string())));
  ASSERT_TRUE(ran(est + " --measurements-load " + d + "m2.json --out " + d +
                  "model_sharded.json"));
  expect_same_bytes(d + "single.json", d + "m2.json");
  expect_same_bytes(d + "model_single.json", d + "model_sharded.json");
  if (!artifacts) return;

  double world_runs = 0;
  for (const std::string s : {"0", "1"}) {
    const std::string p = d + "s" + s + "b_";
    const obs::Json report = load(p + "report.json");
    EXPECT_EQ(report.at("schema").as_string(), "lmo.run_report/1");
    EXPECT_EQ(report.find("estimated_parameters"), nullptr)
        << "a shard pass fits nothing";
    EXPECT_TRUE(report.at("degradation").at("clean").as_bool());
    world_runs += report.at("estimation_cost").at("world_runs").as_double();
    EXPECT_EQ(load(p + "fidelity.json").at("schema").as_string(),
              "lmo.fidelity/1");
    EXPECT_EQ(load(p + "flight.json").at("schema").as_string(),
              "lmo.flight/1");
    EXPECT_TRUE(load(p + "trace.json").find("traceEvents") != nullptr);
    EXPECT_GE(sample(read_file(p + "metrics.prom"), "lmo_sim_runs_total"),
              1.0);
  }
  // Work sums over the shards; the plan's sizes are the plan's, and the
  // store holds what the merged store holds.
  const obs::Json folded = load(d + "folded.json").at("estimation_cost");
  EXPECT_EQ(folded.at("world_runs").as_double(), world_runs);
  EXPECT_EQ(folded.at("roundtrip_experiments").as_double(), 120.0);
  EXPECT_EQ(folded.at("one_to_two_experiments").as_double(), 1680.0);
  EXPECT_EQ(folded.at("store_entries").as_double(),
            double(load(d + "m2.json").at("entries").size()));
}

TEST(ShardGate, FlatCampaignMatchesSingleProcess) {
  expect_sharded_matches_single("shard_flat", "", /*artifacts=*/true);
}

TEST(ShardGate, MulticoreCampaignMatchesSingleProcess) {
  // Contended memory buses route every round through the resource-bitmap
  // packer, so its shard ordinals are checked too.
  expect_sharded_matches_single("shard_mc",
                                "--switches 1 --nodes 4 --cores 4");
}

TEST(JobsGate, InjectedErrorsKeepModelAndStoreIdentical) {
  // Fault decisions are pure in (seed, round, rep, slot): with all four
  // rates on, a serial and a 4-thread campaign write the same bytes, gather
  // sweep observations and retry waves included.
  const std::string d = gate_dir("jobs");
  ASSERT_TRUE(ran(kTool + " make-cluster --out " + d + "cluster.json"));
  for (const char* j : {"1", "4"})
    ASSERT_TRUE(ran(kTool + " estimate --cluster " + d + "cluster.json" +
                    " --fault-spike-rate 0.05 --fault-drop-rate 0.2"
                    " --fault-hang-rate 0.02 --fault-slow-rate 0.03 --jobs " +
                    j + " --measurements-save " + d + "store_j" + j +
                    ".json --out " + d + "model_j" + j + ".json --report " +
                    d + "report_j" + j + ".json"));
  expect_same_bytes(d + "model_j1.json", d + "model_j4.json");
  expect_same_bytes(d + "store_j1.json", d + "store_j4.json");
  // The report tells the same story at any --jobs, and it says the run
  // was degraded.
  const obs::Json r1 = load(d + "report_j1.json");
  const obs::Json r4 = load(d + "report_j4.json");
  EXPECT_EQ(r1.at("estimated_parameters").dump(),
            r4.at("estimated_parameters").dump());
  EXPECT_EQ(r1.at("estimation_cost").dump(), r4.at("estimation_cost").dump());
  EXPECT_FALSE(r1.at("degradation").at("clean").as_bool());
  EXPECT_FALSE(r4.at("degradation").at("clean").as_bool());
}

// ---------------------------------------------------------- bench runs --

TEST(Sec4Gate, WarmRunMeasuresNothing) {
  // Section IV: one shared store serves every estimator. A warm rerun from
  // the saved store is served from it entirely, PLogP's bisection
  // midpoints included.
  const std::string d = gate_dir("sec4");
  const std::string bench = std::string(LMO_BENCH_SEC4_BIN) + " --jobs 2";
  ASSERT_TRUE(ran(bench + " --report " + d + "cold.json --measurements-save " +
                  d + "measurements.json"));
  ASSERT_TRUE(ran(bench + " --report " + d + "warm.json --measurements-load " +
                  d + "measurements.json"));
  const obs::Json cold_report = load(d + "cold.json");
  const obs::Json warm_report = load(d + "warm.json");
  const obs::Json& cold = cold_report.at("suite_reuse");
  const obs::Json& warm = warm_report.at("suite_reuse");
  const std::int64_t entries =
      std::int64_t(load(d + "measurements.json").at("entries").size());
  EXPECT_GT(entries, 0);
  EXPECT_EQ(cold.at("measured").as_int(), entries);
  EXPECT_EQ(warm.at("measured").as_int(), 0);
  EXPECT_EQ(warm.at("shared_runs").as_int(), 0);
  EXPECT_EQ(warm.at("cached").as_int(), cold.at("measured").as_int());
  EXPECT_TRUE(cold_report.at("degradation").at("clean").as_bool());
}

TEST(Table2Gate, ReportMetricsAndFidelityBaseline) {
  // The run reproduces the committed Table 2 baseline: same cross-model
  // ranking (LMO most accurate) with bounded per-model MRE drift, enforced
  // by the binary's --fidelity-baseline exit code.
  const std::string d = gate_dir("table2");
  const test::RunResult r =
      run(std::string(LMO_BENCH_TABLE2_BIN) + " --reps 2 --jobs 2 --report " +
          d + "report.json --metrics-out " + d + "metrics.prom" +
          " --fidelity-save " + d + "fidelity_table2.json" +
          " --fidelity-baseline " LMO_SOURCE_DIR
          "/bench/reports/BENCH_fidelity_table2.json");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("fidelity-baseline: OK"), std::string::npos)
      << r.output;
  const obs::Json report = load(d + "report.json");
  EXPECT_EQ(report.at("schema").as_string(), "lmo.run_report/1");
  EXPECT_GE(sample(read_file(d + "metrics.prom"), "lmo_sim_runs_total"), 1.0);
  // Committed repetitions and global observations run on pooled sessions;
  // the anchor session's own runs (the gather sweep) must be counted too,
  // so the world runs exceed both.
  const obs::Json& counters = report.at("metrics").at("counters");
  EXPECT_GT(counters.at("sim.runs").as_int(),
            counters.at("estimate.reps_committed").as_int() +
                counters.at("estimate.observe_reps").as_int());
}

TEST(Table2Gate, InjectedErrorsDegradeAndDumpFlight) {
  const std::string d = gate_dir("table2_faulty");
  ASSERT_TRUE(ran(std::string(LMO_BENCH_TABLE2_BIN) +
                  " --reps 2 --jobs 2 --fault-spike-rate 0.05"
                  " --fault-drop-rate 0.03 --fault-hang-rate 0.02"
                  " --fault-slow-rate 0.03 --report " + d +
                  "report.json --flight-dump " + d + "flight.json"));
  EXPECT_FALSE(
      load(d + "report.json").at("degradation").at("clean").as_bool());
  const obs::Json flight = load(d + "flight.json");
  EXPECT_EQ(flight.at("schema").as_string(), "lmo.flight/1");
  EXPECT_TRUE(flight.at("degraded").as_bool())
      << "a run with injected errors must leave a degraded dump";
  EXPECT_GT(flight.at("events").size(), 0u);
}

TEST(HierarchyGate, ReportHasTheRunSchema) {
  const std::string d = gate_dir("hierarchy");
  ASSERT_TRUE(ran(std::string(LMO_BENCH_HIERARCHY_BIN) +
                  " --reps 2 --points 3 --jobs 2 --report " + d +
                  "report.json"));
  EXPECT_EQ(load(d + "report.json").at("schema").as_string(),
            "lmo.run_report/1");
}

TEST(TunerGate, RegretPruningAndClimbs) {
  // On the flat paper cluster and the hierarchical multi-core one, every
  // sweep case must choose a plan within 10% of the best simulated
  // candidate, and decide() must equal the candidates() argmin. The
  // counters prove the lower-bound pruning, the replay cutoff and the
  // mapping climb all ran.
  const std::string d = gate_dir("tuner");
  ASSERT_TRUE(ran(std::string(LMO_BENCH_TUNER_BIN) +
                  " --reps 2 --points 3 --jobs 2 --max-regret 0.10"
                  " --report " + d + "report.json"));
  const obs::Json report = load(d + "report.json");
  const obs::Json& counters = report.at("metrics").at("counters");
  EXPECT_GT(counters.at("tuner.pruned").as_int(), 0);
  EXPECT_GT(counters.at("tuner.replays_cut").as_int(), 0);
  EXPECT_GT(counters.at("tuner.climb_evals").as_int(), 0);
}

// -------------------------------------------------------------- daemon --

TEST(DaemonGate, FiveLineProtocol) {
  // A real lmo_served answers a JSONL client over stdio: a malformed line
  // comes back as a structured error and does not kill the process,
  // predictions and a tuned decision parse, and shutdown exits 0. No
  // --measurements-save: the daemon rewrites the whole store after every
  // campaign round, which takes seconds here; ServeRestartTest covers the
  // checkpoints in process.
  const std::string d = gate_dir("daemon");
  ASSERT_TRUE(ran(kTool + " make-cluster --out " + d + "cluster.json"));
  // The subshell keeps the daemon's stderr status lines out of the
  // responses file (run() appends 2>&1 to the whole command).
  ASSERT_TRUE(ran(
      "(printf '%s\\n' '{\"op\":\"stats\"}' 'not json at all'"
      " '{\"op\":\"predict\",\"models\":[\"lmo\",\"hockney\"],"
      "\"queries\":[[0,1,4096],[2,3,65536]]}'"
      " '{\"op\":\"tune\",\"collective\":\"scatter\",\"root\":0,"
      "\"message\":16384}'"
      " '{\"op\":\"shutdown\"}' | " LMO_SERVED_BIN " --jobs 2 --cluster " +
      d + "cluster.json --metrics-out " + d + "metrics.prom > " + d +
      "responses.jsonl)"));
  std::vector<obs::Json> lines;
  std::istringstream text(read_file(d + "responses.jsonl"));
  for (std::string line; std::getline(text, line);)
    lines.push_back(obs::Json::parse(line));
  ASSERT_EQ(lines.size(), 5u);
  const obs::Json& stats = lines[0];
  EXPECT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("schema").as_string(), "lmo.serve/1");
  EXPECT_FALSE(lines[1].at("ok").as_bool());
  EXPECT_NE(lines[1].at("error").as_string().find("bad request"),
            std::string::npos);
  EXPECT_TRUE(lines[2].at("ok").as_bool());
  EXPECT_EQ(lines[2].at("predictions").at("lmo").size(), 2u);
  EXPECT_TRUE(lines[3].at("ok").as_bool());
  EXPECT_FALSE(
      lines[3].at("decision").at("algorithm").as_string().empty());
  EXPECT_TRUE(lines[4].at("ok").as_bool());
  EXPECT_EQ(sample(read_file(d + "metrics.prom"), "lmo_serve_requests_total"),
            5.0);
}

// --------------------------------------------------------------- scale --

TEST(ScaleGate, WorkCountsMatchTheCommittedSeries) {
  // The full 16..4096-rank series must do exactly the work the committed
  // BENCH_scale.json records: engine events, sampled triplets, experiment
  // and store totals, at every N, with no N added or missing. Timings and
  // RSS are the machine's and are not compared.
  const std::string d = gate_dir("scale");
  ASSERT_TRUE(ran(std::string(LMO_BENCH_SCALE_BIN) + " --jobs 2 --out " + d +
                  "BENCH_scale.json --report " + d + "report.json"));
  const char* counts[] = {"events", "triplets", "roundtrip_experiments",
                          "one_to_two_experiments", "store_entries"};
  auto rows = [](const obs::Json& doc) {
    std::map<std::int64_t, const obs::Json*> by_ranks;
    for (const obs::Json& row : doc.at("series").items())
      by_ranks[row.at("ranks").as_int()] = &row;
    return by_ranks;
  };
  const obs::Json want_doc =
      load(LMO_SOURCE_DIR "/bench/reports/BENCH_scale.json");
  const obs::Json got_doc = load(d + "BENCH_scale.json");
  const auto want = rows(want_doc);
  const auto got = rows(got_doc);
  ASSERT_FALSE(want.empty());
  for (const auto& [n, row] : got)
    EXPECT_TRUE(want.count(n))
        << "N=" << n << " is not in the committed series";
  for (const auto& [n, row] : want) {
    const auto it = got.find(n);
    if (it == got.end()) {
      ADD_FAILURE() << "N=" << n << " is missing from the run";
      continue;
    }
    for (const char* c : counts)
      EXPECT_EQ(it->second->at(c).as_int(), row->at(c).as_int())
          << c << " at N=" << n;
  }
  // Each N's anchor session (its broadcast) publishes its runs, so the
  // world runs exceed the pooled sessions' repetitions and observations.
  const obs::Json report = load(d + "report.json");
  const obs::Json& counters = report.at("metrics").at("counters");
  EXPECT_GT(counters.at("sim.runs").as_int(),
            counters.at("estimate.reps_committed").as_int() +
                counters.at("estimate.observe_reps").as_int());
}

}  // namespace
}  // namespace lmo
