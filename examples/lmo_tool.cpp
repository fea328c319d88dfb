// lmo_tool — the command-line workflow of the paper's software tool [13]:
//
//   lmo_tool make-cluster --out cluster.json [--nodes N] [--seed S]
//            [--switches S --nodes N --cores C]
//       write a JSON cluster description (default: the Table-I cluster;
//       --switches makes a hierarchical S x N x C multi-core cluster);
//   lmo_tool estimate --cluster cluster.json --out model.json
//       run the LMO estimation experiments on the (simulated) cluster and
//       persist the point-to-point + empirical parameters as a JSON model
//       (--report/--trace/--fidelity-*/--flight-dump/--metrics-out write
//       the run's artifact files, obs::RunArtifacts);
//   lmo_tool predict --model model.json --op scatter|gather|bcast|reduce
//            [--size BYTES] [--root R]
//       predict the collective's execution time from the saved model;
//   lmo_tool tune --model model.json --op ... --size BYTES
//       print the tuned algorithm decision for one invocation;
//   lmo_tool estimate ... --shard i/k --measurements-save shard_i.json
//       measure only shard i of k of the experiments (no fit): run all k
//       shards (any machines, any order), merge, then estimate with
//       --measurements-load merged.json for the model a single process
//       would fit (each pass writes its own artifact files);
//   lmo_tool merge shard_0.json shard_1.json ... --out merged.json
//       fold shard measurement stores into one (optionally folding the
//       shards' run reports via --reports r0.json,r1.json --report out).
//
// Byte sizes (--size) accept k/M/G suffixes (powers of 1024).
#include <iostream>
#include <sstream>
#include <string>

#include "core/params_io.hpp"
#include "core/tuner.hpp"
#include "obs/metrics.hpp"
#include "obs/run_artifacts.hpp"
#include "obs/trace.hpp"
#include "estimate/empirical_estimator.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "simnet/config_io.hpp"
#include "simnet/fault.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"
#include "vmpi/world.hpp"

namespace {

using namespace lmo;

int usage() {
  std::cerr << "usage: lmo_tool <make-cluster|estimate|predict|tune|merge> "
               "[options]\n  see the header comment of examples/lmo_tool.cpp\n";
  return 2;
}

int cmd_make_cluster(const Cli& cli) {
  const std::string out = cli.get("out", "cluster.json");
  // The config stores the seed as a JSON integer, which holds 0..2^63-1.
  const std::int64_t seed_arg = cli.get_int("seed", 1);
  if (seed_arg < 0)
    throw Error("option --seed: " + std::to_string(seed_arg) +
                " is negative; a cluster seed is 0 .. 2^63-1");
  const auto seed = std::uint64_t(seed_arg);
  const int switches = int(cli.get_int("switches", 0));
  const int nodes = int(cli.get_int("nodes", 0));
  // --switches S --nodes N --cores C: a hierarchical multi-core cluster
  // (S*N*C ranks, v2 config with the resource tree — profile-compact, so
  // even a 4096-rank file stays KB-sized). --nodes alone: a flat random
  // heterogeneous cluster. Neither: the Table-I paper cluster.
  const auto cfg =
      switches > 0
          ? sim::make_multicore_cluster(switches, std::max(nodes, 1),
                                        int(cli.get_int("cores", 1)), seed)
          : nodes > 0 ? sim::make_random_cluster(nodes, seed)
                      : sim::make_paper_cluster(seed);
  sim::save_cluster(cfg, out);
  std::cout << "wrote " << cfg.size() << "-node cluster to " << out << "\n";
  return 0;
}

int cmd_estimate(const Cli& cli) {
  const std::string cluster_path = cli.get("cluster", "cluster.json");
  const auto cfg = sim::load_cluster(cluster_path);
  const std::string out = cli.get("out", "model.json");
  obs::RunArtifacts art(cli, "lmo_tool");
  obs::ReportBuilder* report = art.report();
  if (report) {
    report->provenance("seed", std::int64_t(cfg.seed));
    report->provenance("jobs", cli.get_int("jobs", 0));
    report->set("cluster", cluster_path);
  }
  vmpi::World world(cfg);
  world.set_trace_sink(obs::global_sink());
  // --fault-* rates (default 0 = off) exercise the recovery pipeline:
  // retries, timeouts, MAD trimming, and store quarantine.
  mpib::MeasureOptions measure;
  measure.fault = sim::fault_spec_from_cli(cli);
  estimate::SimExperimenter ex(world, measure);
  ex.set_flight_recorder(art.flight());

  // A warm store (--measurements-load) skips every experiment it already
  // holds; --measurements-save persists the campaign for later refits.
  const std::string load_path = cli.get("measurements-load", "");
  estimate::MeasurementStore store;
  if (!load_path.empty()) {
    store = estimate::MeasurementStore::load(load_path);
    std::cout << "loaded " << store.size() << " measurements from "
              << load_path << "\n";
  }
  store.bind_cluster(cfg.size(), cfg.seed);

  // --shard i/k: measure-only mode. estimate_lmo executes this process's
  // slice of the measured rounds (seeds pinned to the single-process round
  // indices) and the slice is persisted. A cold k-shard campaign is two
  // passes (stage 2 plans from the merged stage 1); then a final estimate
  // --measurements-load runs entirely cached and fits the same model.
  const std::string shard_text = cli.get("shard", "");
  const std::string save_path = cli.get("measurements-save", "");
  estimate::ShardSpec shard;
  if (shard_text.empty()) {
    std::cout << "running estimation experiments on " << cfg.size()
              << " nodes...\n";
  } else {
    shard = estimate::ShardSpec::parse(shard_text);
    if (save_path.empty())
      throw Error(
          "--shard requires --measurements-save: the shard's slice must be "
          "persisted for merging");
  }
  const auto lmo = estimate::estimate_lmo(ex, store, {}, shard);
  if (shard_text.empty()) {
    const auto emp = estimate::estimate_gather_empirical(ex, store, lmo.params);
    core::save_params(lmo.params, emp.empirical, out);
    if (report)
      report->set("estimated_parameters",
                  core::model_json(lmo.params, emp.empirical));
    std::cout << "estimated from " << lmo.roundtrip_experiments
              << " round-trips + " << lmo.one_to_two_experiments
              << " one-to-two experiments ("
              << format_time(lmo.estimation_cost)
              << " simulated); wrote model to " << out << "\n"
              << "gather band: M1 = " << format_bytes(emp.empirical.m1)
              << ", M2 = " << format_bytes(emp.empirical.m2) << "\n";
  } else if (lmo.one_to_two_experiments > 0) {
    // The gather sweep is raw observations on the anchor session —
    // identical in every process (measured rounds never touch the
    // anchor), so it runs unsharded and merges bit-equal.
    estimate::PlanBuilder sweep(ex.topology());
    estimate::plan_gather_sweep(sweep);
    (void)estimate::execute_plan(sweep.build(true), ex, store);
  } else {
    std::cout << "shard " << shard_text
              << ": stage-1 round-trips incomplete; merge the shard stores "
                 "and re-run each shard on the merged store\n";
  }
  if (!save_path.empty()) {
    store.save(save_path);
    std::cout << (shard_text.empty() ? "" : "shard " + shard_text + ": ")
              << "saved " << store.size() << " measurements to " << save_path
              << "\n";
  }
  if (report) {
    obs::Json cost = obs::Json::object();
    cost["roundtrip_experiments"] = lmo.roundtrip_experiments;
    cost["one_to_two_experiments"] = lmo.one_to_two_experiments;
    cost["world_runs"] = lmo.world_runs;
    cost["cost_seconds"] = lmo.estimation_cost.seconds();
    cost["store_entries"] = store.size();
    cost["store_hits"] = store.hits();
    report->set("estimation_cost", std::move(cost));
  }
  // The anchor session publishes before the artifacts snapshot the
  // registry.
  vmpi::publish_metrics(world.metrics(), obs::Registry::global());
  return art.finish();
}

/// Fold shard measurement stores (positional paths) into --out. With
/// --reports r0.json,r1.json and --report out.json, the shards' run
/// reports are folded too: provenance listed, work summed, the plan's
/// experiment counts agreed on, store_entries the merged store's size.
int cmd_merge(const Cli& cli) {
  // Every input is read and checked before anything is written.
  const std::vector<std::string>& inputs = cli.positional();
  if (inputs.empty()) throw Error("merge needs at least one shard store path");
  const std::string out = cli.get("out", "");
  if (out.empty()) throw Error("merge requires --out");
  const std::string reports = cli.get("reports", "");
  const std::string report_out = cli.get("report", "");
  if (!reports.empty() && report_out.empty())
    throw Error("merge --reports requires --report for the folded output");
  estimate::MeasurementStore merged =
      estimate::MeasurementStore::load(inputs[0]);
  for (std::size_t i = 1; i < inputs.size(); ++i)
    merged.merge_from(estimate::MeasurementStore::load(inputs[i]));

  obs::Json shards = obs::Json::array();
  obs::Json cost = obs::Json::object();
  std::istringstream report_list(reports);
  for (std::string path; std::getline(report_list, path, ',');) {
    if (path.empty()) continue;
    obs::Json report;
    try {
      report = obs::Json::parse(obs::read_file(path));
    } catch (const Error& e) {
      throw Error("run report " + path + ": " + e.what());
    }
    obs::Json entry = obs::Json::object();
    entry["path"] = path;
    if (const obs::Json* prov = report.find("provenance"))
      entry["provenance"] = *prov;
    shards.push_back(std::move(entry));
    const std::string doc = "run report " + path;
    const obs::JsonField root(report, doc.c_str());
    if (root.find("estimation_cost")) {
      const obs::JsonField c = root["estimation_cost"];
      for (const std::string& key : c.keys()) {
        const double v = c[key].number();
        const obs::Json* prior = cost.find(key);
        const bool plan = key == "roundtrip_experiments" ||
                          key == "one_to_two_experiments";
        if (plan && prior && prior->as_double() != v)
          c[key].fail("is " + obs::Json(v).dump() + ", an earlier report's " +
                      prior->dump() + ": the shards ran different plans");
        cost[key] = plan || !prior ? v : prior->as_double() + v;
      }
    }
  }
  if (cost.find("store_entries")) cost["store_entries"] = merged.size();

  merged.save(out);
  std::cout << "merged " << inputs.size() << " shard stores ("
            << merged.size() << " entries, " << merged.quarantined_count()
            << " quarantined) into " << out << "\n";
  if (!reports.empty()) {
    obs::ReportBuilder folded("lmo_tool merge");
    folded.set("shards", std::move(shards));
    folded.set("estimation_cost", std::move(cost));
    folded.set("merged_store", out);
    folded.set("entries", std::int64_t(merged.size()));
    folded.write(report_out);
    std::cout << "report: " << report_out << "\n";
  }
  return 0;
}

/// predict: the linear algorithm's price; tune: the tuner's decision. Both
/// price through core::Tuner, the path lmo_served answers with.
int cmd_price(const Cli& cli, bool tune) {
  const auto loaded = core::load_params(cli.get("model", "model.json"));
  const std::string op = cli.get("op", "scatter");
  core::TunedDecision d;
  d.kind = core::parse_collective(op);
  d.message = cli.get_bytes("size", 65536);
  d.root = int(cli.get_int("root", 0));
  const core::Tuner tuner(loaded.params, loaded.empirical);
  if (!tune) {
    const double seconds = tuner.price(d);
    std::cout << op << " of " << format_bytes(d.message) << " from root "
              << d.root << ": predicted " << format_seconds(seconds)
              << " (linear algorithm)\n";
    return 0;
  }
  d = tuner.decide(d.kind, d.root, d.message);
  std::cout << op << " of " << format_bytes(d.message) << ": "
            << d.describe() << ", predicted "
            << format_seconds(d.predicted_seconds) << "\n";
  if (!d.mapping.empty()) {
    std::cout << "mapping (virtual -> physical):";
    for (const int p : d.mapping) std::cout << " " << p;
    std::cout << "\n";
  }
  return 0;
}

int run(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::vector<std::string> known = {
      "out", "cluster", "model", "op", "size", "root", "nodes", "switches",
      "cores", "seed", "jobs", "measurements-load", "measurements-save",
      "shard", "reports"};
  known.insert(known.end(), obs::RunArtifacts::kOptions.begin(),
               obs::RunArtifacts::kOptions.end());
  for (const std::string& f : sim::fault_cli_options()) known.push_back(f);
  const Cli cli(argc - 1, argv + 1, std::move(known));
  // --jobs N: parallel experiment sessions (default: hardware
  // concurrency). Estimates are bit-identical for any value.
  set_default_jobs(int(cli.get_int("jobs", 0)));
  // The artifact flags are estimate's (merge's --report is the folded
  // report); elsewhere they would be dropped without a word.
  for (const std::string f : obs::RunArtifacts::kOptions)
    if (cli.has(f) && command != "estimate" &&
        !(command == "merge" && f == "report"))
      throw Error("option --" + f + " applies to estimate only");
  if (command == "make-cluster") return cmd_make_cluster(cli);
  if (command == "estimate") return cmd_estimate(cli);
  if (command == "predict" || command == "tune")
    return cmd_price(cli, command == "tune");
  if (command == "merge") return cmd_merge(cli);
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  return lmo::guarded_main([&] { return run(argc, argv); });
}
