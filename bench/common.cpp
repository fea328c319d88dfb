#include "common.hpp"

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/run_artifacts.hpp"
#include "obs/trace.hpp"
#include "simnet/fault.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

namespace lmo::bench {

namespace {
/// Per-process run state. Benches are single-run binaries, so one static
/// slot (written once during CLI parsing, before any parallelism starts)
/// is enough.
struct RunState {
  std::unique_ptr<obs::RunArtifacts> artifacts;
  mpib::MeasureOptions measure;  ///< defaults + the --fault-* spec
  /// Live BenchEnvs whose anchor session has not published its metrics.
  std::vector<BenchEnv*> unpublished;
};
RunState& run_state() {
  static RunState s;
  return s;
}

obs::RunArtifacts& artifacts() {
  LMO_CHECK_MSG(run_state().artifacts, "parse_bench_cli has not run");
  return *run_state().artifacts;
}

/// {"title": ..., "columns": [...], "rows": [[...], ...]} — the JSON shape
/// of a bench table, shared by --json and the run report.
obs::Json table_json(const Table& table, const std::string& title) {
  obs::Json out = obs::Json::object();
  out["title"] = title;
  obs::Json columns = obs::Json::array();
  for (const std::string& h : table.header()) columns.push_back(h);
  out["columns"] = std::move(columns);
  obs::Json rows = obs::Json::array();
  for (std::size_t i = 0; i < table.rows(); ++i) {
    obs::Json row = obs::Json::array();
    for (const std::string& cell : table.row(i)) row.push_back(cell);
    rows.push_back(std::move(row));
  }
  out["rows"] = std::move(rows);
  return out;
}
}  // namespace

double observe_mean(estimate::SimExperimenter& ex,
                    const std::function<vmpi::Task(vmpi::Comm&)>& body,
                    int reps) {
  stats::RunningStats s;
  for (const double x : ex.observe_global_samples(body, reps)) s.add(x);
  return s.mean();
}

std::string ms(double seconds) { return format_fixed(seconds * 1e3, 3); }

BenchEnv::BenchEnv(std::uint64_t seed)
    : BenchEnv(sim::make_paper_cluster(seed)) {}

BenchEnv::BenchEnv(sim::ClusterConfig cluster)
    : cfg(std::move(cluster)), world(cfg), ex(world, bench_measure_options()) {
  world.set_trace_sink(obs::global_sink());
  ex.set_flight_recorder(artifacts().flight());
  run_state().unpublished.push_back(this);
}

mpib::MeasureOptions bench_measure_options() { return run_state().measure; }

BenchEnv::~BenchEnv() { publish(); }

void BenchEnv::publish() {
  std::vector<BenchEnv*>& live = run_state().unpublished;
  const auto it = std::find(live.begin(), live.end(), this);
  if (it == live.end()) return;
  live.erase(it);
  vmpi::publish_metrics(world.metrics(), obs::Registry::global());
}

void emit(const Table& table, const Cli& cli, const std::string& title) {
  std::cout << "\n== " << title << " ==\n";
  table.print(std::cout);
  if (cli.get_flag("csv")) {
    std::cout << "\n-- csv --\n";
    table.print_csv(std::cout);
  }
  if (cli.get_flag("json")) {
    std::cout << "\n-- json --\n";
    std::cout << table_json(table, title).dump(2) << "\n";
  }
  if (reporting()) artifacts().report()->add_table(table_json(table, title));
}

bool reporting() { return artifacts().report() != nullptr; }

void report_set(const std::string& key, obs::Json value) {
  if (reporting()) artifacts().report()->set(key, std::move(value));
}

void record_residual(const std::string& model, const std::string& op, Bytes m,
                     double predicted, double observed) {
  obs::record_residual(model, op, obs::ResidualScope::kCollective,
                       /*level=*/-1, std::uint64_t(m), predicted, observed);
}

int finish_run() {
  // The anchor sessions of the BenchEnvs still alive count too.
  while (!run_state().unpublished.empty())
    run_state().unpublished.back()->publish();
  return artifacts().finish();
}

Cli parse_bench_cli(int argc, const char* const* argv,
                    std::vector<std::string> extra) {
  std::vector<std::string> known = {"seed", "reps", "csv", "json", "points",
                                    "jobs", "measurements-load",
                                    "measurements-save"};
  known.insert(known.end(), obs::RunArtifacts::kOptions.begin(),
               obs::RunArtifacts::kOptions.end());
  for (const std::string& f : sim::fault_cli_options()) known.push_back(f);
  for (std::string& f : extra) known.push_back(std::move(f));
  Cli cli(argc, argv, std::move(known));
  // 0 = auto (hardware concurrency); results are jobs-independent.
  set_default_jobs(int(cli.get_int("jobs", 0)));
  RunState& s = run_state();
  s.measure.fault = sim::fault_spec_from_cli(cli);
  s.artifacts = std::make_unique<obs::RunArtifacts>(
      cli, std::filesystem::path(argc > 0 ? argv[0] : "bench").filename());
  if (obs::ReportBuilder* report = s.artifacts->report()) {
    report->provenance("seed", cli.get_int("seed", 1));
    report->provenance("jobs", cli.get_int("jobs", 0));
  }
  return cli;
}

estimate::MeasurementStore open_measurements(const Cli& cli, int cluster_size,
                                             std::uint64_t seed) {
  const std::string path = cli.get("measurements-load", "");
  estimate::MeasurementStore store;
  if (!path.empty()) {
    store = estimate::MeasurementStore::load(path);
    std::cout << "measurements: loaded " << store.size() << " entries from "
              << path << "\n";
  }
  store.bind_cluster(cluster_size, seed);
  return store;
}

void save_measurements(const Cli& cli,
                       const estimate::MeasurementStore& store) {
  const std::string path = cli.get("measurements-save", "");
  if (path.empty()) return;
  store.save(path);
  std::cout << "measurements: saved " << store.size() << " entries to " << path
            << "\n";
}

}  // namespace lmo::bench
