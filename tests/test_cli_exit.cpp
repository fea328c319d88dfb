// Exit-code contract of the installed binaries, pinned end to end by
// actually spawning them:
//   0 — success (including a clean daemon shutdown),
//   1 — named runtime failure, "error: <message>" on stderr,
//   2 — usage error (bad/missing subcommand or required flag).
// No input, however wrong, may abort: a SIGABRT (exit 134) with no
// message is exactly the regression this suite exists to catch.
//
// Binary paths are injected by CMake via LMO_*_BIN compile definitions
// (see spawn.hpp), so the suite always tests the binaries built alongside
// it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "spawn.hpp"

namespace {

using lmo::test::run;
using lmo::test::RunResult;

void expect_named_failure(const RunResult& r, const std::string& needle) {
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(needle), std::string::npos) << r.output;
}

// ------------------------------------------------------------ lmo_tool --

TEST(LmoToolExitTest, NoSubcommandIsUsage) {
  EXPECT_EQ(run(LMO_TOOL_BIN).exit_code, 2);
  EXPECT_EQ(run(std::string(LMO_TOOL_BIN) + " frobnicate").exit_code, 2);
}

TEST(LmoToolExitTest, MissingClusterFileFailsNamed) {
  expect_named_failure(
      run(std::string(LMO_TOOL_BIN) +
          " estimate --cluster /nonexistent/cluster.cfg --out /dev/null"),
      "/nonexistent/cluster.cfg");
}

TEST(LmoToolExitTest, MissingModelFileFailsNamed) {
  expect_named_failure(run(std::string(LMO_TOOL_BIN) +
                           " predict --model /nonexistent/model.cfg"),
                       "/nonexistent/model.cfg");
}

TEST(LmoToolExitTest, UnknownFlagFailsNamed) {
  const RunResult r =
      run(std::string(LMO_TOOL_BIN) + " make-cluster --no-such-flag x");
  expect_named_failure(r, "unknown option --no-such-flag");
  // A plain message: no assertion framing, no build path.
  EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("cli.cpp"), std::string::npos) << r.output;
}

TEST(LmoToolExitTest, NegativeSeedFailsNamed) {
  // The config's JSON integer cannot hold 2^64-1: refuse by option name
  // before building anything, not by the writer's overflow check.
  const std::string out = testing::TempDir() + "lmo_exit_neg_seed.json";
  const RunResult r = run(std::string(LMO_TOOL_BIN) +
                          " make-cluster --seed -1 --out " + out);
  expect_named_failure(r, "--seed");
  EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find(".cpp"), std::string::npos) << r.output;
  EXPECT_FALSE(std::ifstream(out).good()) << "nothing may be written";
}

/// Write `text` to a file in the test's temp dir; returns its path.
std::string temp_file(const std::string& name, const std::string& text) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

TEST(LmoToolExitTest, MergeInputErrorsFailNamed) {
  // Each input check of `merge` is a plain named error, made before the
  // merged store is written: no --out, no store, --reports without
  // --report, an unreadable report, a store of another schema, a store
  // entry whose rank is out of range, a non-numeric report cost, and two
  // shard reports that disagree on the plan's size.
  const std::string store = temp_file(
      "lmo_exit_merge_in.json",
      R"({"schema": "lmo.measurements/1", "entries": []})");
  const std::string bad_schema =
      temp_file("lmo_exit_merge_schema.json", R"({"schema": "x", "entries": []})");
  const std::string bad_rank = temp_file(
      "lmo_exit_merge_rank.json",
      R"({"schema": "lmo.measurements/1", "entries": [{"kind": "roundtrip",)"
      R"( "a": 99999999999, "b": 1, "m": 0, "reply": 0, "value": 1e-5}]})");
  const std::string bad_report = temp_file(
      "lmo_exit_merge_report.json",
      R"({"estimation_cost": {"world_runs": "many"}})");
  const std::string plan_a = temp_file(
      "lmo_exit_merge_plan_a.json",
      R"({"estimation_cost": {"roundtrip_experiments": 120}})");
  const std::string plan_b = temp_file(
      "lmo_exit_merge_plan_b.json",
      R"({"estimation_cost": {"roundtrip_experiments": 121}})");
  const std::string out = testing::TempDir() + "lmo_exit_merge_out.json";
  std::remove(out.c_str());
  const std::string merge = std::string(LMO_TOOL_BIN) + " merge ";
  for (const auto& [args, flag] :
       {std::pair<std::string, std::string>{store, "--out"},
        {"--out " + out, "shard store path"},
        {store + " --out " + out + " --reports " + store, "--report"},
        {store + " --out " + out + " --reports /nonexistent/r.json --report " +
             out + ".report",
         "/nonexistent/r.json"},
        {bad_schema + " --out " + out, "field 'schema' = 'x'"},
        {bad_rank + " --out " + out, "entries[0]: field 'a' = 99999999999"},
        {store + " --out " + out + " --reports " + bad_report + " --report " +
             out + ".report",
         "field 'estimation_cost.world_runs' must be a number"},
        {store + " --out " + out + " --reports " + plan_a + "," + plan_b +
             " --report " + out + ".report",
         plan_b + ": field 'estimation_cost.roundtrip_experiments' is 121"}}) {
    const RunResult r = run(merge + args);
    expect_named_failure(r, flag);
    EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find(".cpp"), std::string::npos) << r.output;
    EXPECT_FALSE(std::ifstream(out).good()) << "nothing may be written";
    EXPECT_FALSE(std::ifstream(out + ".report").good())
        << "nothing may be written";
  }
  std::remove(out.c_str());
  for (const std::string& path :
       {store, bad_schema, bad_rank, bad_report, plan_a, plan_b})
    std::remove(path.c_str());
}

/// A two-rank JSON model with the given C row, escalation mode and t row.
std::string model_json(const std::string& c, const std::string& mode,
                       const std::string& t = "5e-8, 6e-8") {
  return R"({"schema": "lmo.model/1", "lmo": {"size": 2, "C": [)" + c +
         R"(], "t": [)" + t + R"(], "L": [[0, 1e-5], [1e-5, 0]], )"
         R"("inv_beta": [[0, 1e-8], [1e-8, 0]]}, "gather_empirical": )"
         R"({"m1": 4096, "m2": 65536, "escalation_modes": [)" +
         mode + R"(], "linear_prob_at_m1": 1, "linear_prob_at_m2": 1}})";
}

TEST(LmoToolExitTest, TextClusterFileFailsNamed) {
  const std::string path = temp_file(
      "lmo_exit_v1.cfg", "[cluster]\nnoise_rel = 1e999\nseed = 1\n");
  const RunResult r = run(std::string(LMO_TOOL_BIN) + " estimate --cluster " +
                          path + " --out /dev/null");
  expect_named_failure(r, path);
  EXPECT_NE(r.output.find("lmo_tool make-cluster"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(LmoToolExitTest, TextModelFileFailsNamed) {
  const std::string path =
      temp_file("lmo_exit_text_model.cfg", "[lmo]\nsize = abc\n");
  const RunResult r =
      run(std::string(LMO_TOOL_BIN) + " predict --model " + path);
  expect_named_failure(r, path);
  EXPECT_NE(r.output.find("lmo_tool estimate"), std::string::npos)
      << r.output;
  std::remove(path.c_str());
}

TEST(LmoToolExitTest, NegativeModelTermFailsNamed) {
  const std::string path = temp_file(
      "lmo_exit_neg_c.json",
      model_json("-1e-5, 2e-5",
                 R"({"value": 0.05, "count": 3, "frequency": 1})"));
  expect_named_failure(
      run(std::string(LMO_TOOL_BIN) + " tune --model " + path), "lmo.C[0]");
  std::remove(path.c_str());
}

TEST(LmoToolExitTest, OverflowingModelFailsNamed) {
  // Every term is finite, but their sums overflow: the price is named as
  // an error (op, size and the largest parameter), not printed as inf.
  const std::string path = temp_file(
      "lmo_exit_overflow.json",
      model_json("1e308, 2e-5",
                 R"({"value": 0.05, "count": 3, "frequency": 1})",
                 "1e308, 6e-8"));
  for (const auto& [command, op] :
       {std::pair<std::string, std::string>{"predict", "scatter"},
        {"tune", "bcast"}}) {
    const RunResult r = run(std::string(LMO_TOOL_BIN) + " " + command +
                            " --model " + path + " --op " + op +
                            " --size 65536");
    expect_named_failure(r, "C[0] = 1e+308");
    EXPECT_NE(r.output.find(op + " of 65536 bytes"), std::string::npos)
        << r.output;
    EXPECT_EQ(r.output.find("predicted"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
  }
  std::remove(path.c_str());
}

TEST(LmoToolExitTest, OutOfRangeRootFailsNamed) {
  // The tuner names the root and the processor count, not a source line.
  const std::string path = temp_file(
      "lmo_exit_root.json",
      model_json("1e-5, 2e-5",
                 R"({"value": 0.05, "count": 3, "frequency": 1})"));
  for (const auto& [command, root] :
       {std::pair<std::string, std::string>{"predict", "99"},
        {"tune", "-1"}}) {
    const RunResult r = run(std::string(LMO_TOOL_BIN) + " " + command +
                            " --model " + path + " --root " + root);
    expect_named_failure(r, "root " + root);
    EXPECT_NE(r.output.find("2 processors"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("check failed"), std::string::npos) << r.output;
    EXPECT_EQ(r.output.find("tuner.cpp"), std::string::npos) << r.output;
  }
  std::remove(path.c_str());
}

TEST(LmoToolExitTest, NegativeModeCountFailsNamed) {
  const std::string path = temp_file(
      "lmo_exit_neg_count.json",
      model_json("1e-5, 2e-5",
                 R"({"value": 0.05, "count": -5, "frequency": 1})"));
  expect_named_failure(
      run(std::string(LMO_TOOL_BIN) + " predict --op gather --model " + path),
      "gather_empirical.escalation_modes[0].count");
  std::remove(path.c_str());
}

TEST(LmoToolExitTest, HugeProfileRunFailsNamed) {
  // A valid profile-form cluster whose one run claims 4e12 ranks: must
  // fail by name before allocating, not die of std::bad_alloc.
  const std::string path = temp_file(
      "lmo_exit_huge_run.json",
      R"({"schema": "lmo.cluster/2",
          "cluster": {"switch_latency_s": 1e-5, "noise_rel": 0.01,
                      "seed": 1},
          "quirks": {"enabled": true, "rendezvous_threshold": 65536,
                     "escalation_min": 4096, "escalation_peak_prob": 0.12,
                     "escalation_values_s": [0.05], "escalation_weights": [1],
                     "frag_threshold": 65536, "frag_leap_s": 0.0008,
                     "send_buffer": 131072},
          "profiles": [{"name": "core", "label": "core", "type": 0,
                        "fixed_delay_s": 1e-5, "per_byte_s": 1e-9,
                        "link_rate_bps": 1.25e8, "latency_s": 1e-6}],
          "profile_of": [[0, 4000000000000]]})");
  expect_named_failure(run(std::string(LMO_TOOL_BIN) + " estimate --cluster " +
                           path + " --out /dev/null"),
                       "profile_of[0]");
  std::remove(path.c_str());
}

TEST(LmoToolExitTest, BadCollectiveNameFailsNamed) {
  // The model file must exist for the failure to be about the op name:
  // make a cluster + model first, in the test's temp dir.
  const std::string dir = testing::TempDir();
  const std::string cluster = dir + "lmo_exit_cluster.json";
  const std::string model = dir + "lmo_exit_model.json";
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " make-cluster --nodes 4 --out " +
                cluster)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " estimate --cluster " + cluster +
                " --out " + model + " --jobs 2")
                .exit_code,
            0);
  expect_named_failure(run(std::string(LMO_TOOL_BIN) + " predict --model " +
                           model + " --op allgather"),
                       "allgather");
  std::remove(cluster.c_str());
  std::remove(model.c_str());
}

TEST(LmoToolExitTest, ForeignSeedMeasurementsFailNamed) {
  // Same node count, different cluster seed: the store describes another
  // platform, so estimate must refuse it rather than fit a model of the
  // wrong cluster from cached measurements.
  const std::string dir = testing::TempDir();
  const std::string c1 = dir + "lmo_exit_cluster_seed1.json";
  const std::string c2 = dir + "lmo_exit_cluster_seed2.json";
  const std::string store = dir + "lmo_exit_seed1.json";
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) +
                " make-cluster --nodes 4 --seed 1 --out " + c1)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) +
                " make-cluster --nodes 4 --seed 2 --out " + c2)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " estimate --cluster " + c1 +
                " --measurements-save " + store + " --out /dev/null --jobs 2")
                .exit_code,
            0);
  expect_named_failure(run(std::string(LMO_TOOL_BIN) + " estimate --cluster " +
                           c2 + " --measurements-load " + store +
                           " --out /dev/null"),
                       "cluster seed 1, not 2");
  std::remove(c1.c_str());
  std::remove(c2.c_str());
  std::remove(store.c_str());
}

// ---------------------------------------------------------- lmo_served --

TEST(LmoServedExitTest, MissingClusterFlagIsUsage) {
  EXPECT_EQ(run(LMO_SERVED_BIN).exit_code, 2);
}

TEST(LmoServedExitTest, MissingClusterFileFailsNamed) {
  expect_named_failure(run(std::string(LMO_SERVED_BIN) +
                           " --cluster /nonexistent/cluster.cfg"),
                       "/nonexistent/cluster.cfg");
}

TEST(LmoServedExitTest, UnknownFlagFailsNamed) {
  expect_named_failure(
      run(std::string(LMO_SERVED_BIN) + " --cluster x --no-such-flag y"),
      "--no-such-flag");
}

TEST(LmoServedExitTest, ForeignMeasurementsFailNamed) {
  // A store from a different cluster must refuse at startup (exit 1), not
  // silently serve a mixed-platform model.
  const std::string dir = testing::TempDir();
  const std::string cluster = dir + "lmo_exit_served.json";
  const std::string other = dir + "lmo_exit_other.json";
  const std::string store = dir + "lmo_exit_store.json";
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " make-cluster --nodes 4 --out " +
                cluster)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) +
                " make-cluster --nodes 5 --seed 9 --out " + other)
                .exit_code,
            0);
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " estimate --cluster " + other +
                " --measurements-save " + store + " --out /dev/null --jobs 2")
                .exit_code,
            0);
  expect_named_failure(run(std::string(LMO_SERVED_BIN) + " --cluster " +
                           cluster + " --measurements-load " + store),
                       "5-node");
  std::remove(cluster.c_str());
  std::remove(other.c_str());
  std::remove(store.c_str());
}

TEST(LmoServedExitTest, ShutdownRequestExitsZeroAndBadLinesDoNot) {
  const std::string dir = testing::TempDir();
  const std::string cluster = dir + "lmo_exit_daemon.json";
  ASSERT_EQ(run(std::string(LMO_TOOL_BIN) + " make-cluster --nodes 4 --out " +
                cluster)
                .exit_code,
            0);
  // Garbage lines produce error responses; the daemon survives them and
  // the shutdown request still exits 0.
  const RunResult r =
      run("printf '%s\\n' 'garbage' '{\"op\":\"stats\"}' "
          "'{\"op\":\"shutdown\"}' | " +
          std::string(LMO_SERVED_BIN) + " --cluster " + cluster + " --jobs 2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("bad request"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("\"ok\":true"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("shutdown requested"), std::string::npos)
      << r.output;
  std::remove(cluster.c_str());
}

// ------------------------------------------------------ bench binaries --

TEST(BenchExitTest, UnknownFlagFailsNamedNotAborts) {
  expect_named_failure(
      run(std::string(LMO_BENCH_TABLE1_BIN) + " --no-such-flag 3"),
      "--no-such-flag");
  // No bench shards its campaign: --shard is lmo_tool's flag only.
  expect_named_failure(run(std::string(LMO_BENCH_TABLE1_BIN) + " --shard 0/2"),
                       "--shard");
}

TEST(BenchExitTest, NonNumericSeedFailsNamed) {
  const RunResult r = run(std::string(LMO_BENCH_TABLE1_BIN) + " --seed abc");
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_NE(r.output.find("error: "), std::string::npos) << r.output;
}

TEST(BenchExitTest, BadServedKnobsFailNamed) {
  expect_named_failure(run(std::string(LMO_BENCH_SERVED_BIN) + " --batch -3"),
                       "positive");
  expect_named_failure(
      run(std::string(LMO_BENCH_SERVED_BIN) + " --out /nonexistent/dir/x.json"
          " --batch 8 --batches 1 --reader-iters 100 --threads 1 --jobs 2"
          " --min-qps 0"),
      "/nonexistent/dir/x.json");
}

}  // namespace
