#include "common.hpp"

#include <cmath>
#include <iostream>
#include <memory>

#include "obs/exposition.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "simnet/fault.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/thread_pool.hpp"

namespace lmo::bench {

namespace {
/// Per-process run state for the --report/--trace flags. Benches are
/// single-run binaries, so one static slot (written once during CLI
/// parsing, before any parallelism starts) is enough.
struct RunState {
  std::unique_ptr<obs::ReportBuilder> report;
  std::string report_path;
  std::string trace_path;
  mpib::MeasureOptions measure;  ///< defaults + the --fault-* spec
  /// Fidelity tracking: installed as the process-global tracker when any
  /// of --report/--fidelity-save/--fidelity-baseline asked for it.
  std::unique_ptr<obs::ResidualTracker> residuals;
  std::string fidelity_save_path;
  std::string fidelity_baseline_path;
  /// Flight recorder: armed by --flight-dump, attached to every BenchEnv.
  std::unique_ptr<obs::FlightRecorder> flight;
  std::string flight_path;
  std::string metrics_path;  ///< --metrics-out Prometheus text target
};
RunState& run_state() {
  static RunState s;
  return s;
}

std::string tool_name(const char* argv0) {
  std::string name = argv0 ? argv0 : "bench";
  const auto slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name;
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
  if (run_state().flight) ex.set_flight_recorder(run_state().flight.get());
}

mpib::MeasureOptions bench_measure_options() { return run_state().measure; }

BenchEnv::~BenchEnv() {
  vmpi::publish_metrics(world.metrics(), obs::Registry::global());
}

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
  if (run_state().report) run_state().report->add_table(table_json(table, title));
}

bool reporting() { return run_state().report != nullptr; }

void report_set(const std::string& key, obs::Json value) {
  if (run_state().report) run_state().report->set(key, std::move(value));
}

void record_residual(const std::string& model, const std::string& op, Bytes m,
                     double predicted, double observed) {
  obs::record_residual(model, op, obs::ResidualScope::kCollective,
                       /*level=*/-1, std::uint64_t(m), predicted, observed);
}

namespace {
/// Accuracy gate: ranking equality plus bounded per-model MRE drift
/// (obs::fidelity_drift defaults). Both bounds are generous against the
/// deterministic simulator — a trip means the models genuinely changed.
int check_fidelity_baseline(const obs::ResidualTracker& residuals,
                            const std::string& path) {
  const obs::Json baseline = obs::load_fidelity(path);
  const obs::Json current = residuals.to_json();
  const std::vector<std::string> failures =
      obs::fidelity_drift(baseline, current);
  for (const std::string& f : failures)
    std::cout << "fidelity-baseline: FAIL " << f << "\n";
  if (failures.empty())
    std::cout << "fidelity-baseline: OK (" << current.at("ranking").size()
              << " models, ranking unchanged, accuracy within bounds)\n";
  return failures.empty() ? 0 : 1;
}
}  // namespace

int finish_run() {
  RunState& s = run_state();
  int rc = 0;
  if (s.report) {
    if (s.residuals && s.residuals->recorded() > 0)
      s.report->set("fidelity", s.residuals->to_json());
    if (s.flight && s.flight->has_dump())
      s.report->set("flight", s.flight->to_json());
    s.report->set("degradation",
                  obs::degradation_json(obs::Registry::global().snapshot()));
    s.report->write(s.report_path);
    std::cout << "\nreport: " << s.report_path << "\n";
  }
  if (!s.fidelity_save_path.empty() && s.residuals) {
    s.residuals->save(s.fidelity_save_path);
    std::cout << "fidelity: " << s.fidelity_save_path << "\n";
  }
  if (!s.fidelity_baseline_path.empty() && s.residuals)
    rc = check_fidelity_baseline(*s.residuals, s.fidelity_baseline_path);
  if (!s.flight_path.empty() && s.flight) {
    s.flight->save(s.flight_path);
    std::cout << "flight: " << s.flight_path
              << (s.flight->degraded() ? " (degraded)" : "") << "\n";
  }
  if (!s.metrics_path.empty()) {
    obs::write_prometheus(s.metrics_path);
    std::cout << "metrics: " << s.metrics_path << "\n";
  }
  if (!s.trace_path.empty()) {
    obs::TraceSink* sink = obs::global_sink();
    if (sink) {
      sink->save(s.trace_path);
      std::cout << "trace: " << s.trace_path << "\n";
    }
  }
  return rc;
}

Cli parse_bench_cli(int argc, const char* const* argv,
                    std::vector<std::string> extra) {
  std::vector<std::string> known = {
      "seed", "reps", "csv", "json", "points", "jobs", "report",
      "trace", "measurements-load", "measurements-save", "fidelity-save",
      "fidelity-baseline", "flight-dump", "metrics-out"};
  for (const std::string& f : sim::fault_cli_options()) known.push_back(f);
  for (std::string& f : extra) known.push_back(std::move(f));
  Cli cli(argc, argv, std::move(known));
  // 0 = auto (hardware concurrency); results are jobs-independent.
  set_default_jobs(int(cli.get_int("jobs", 0)));
  RunState& s = run_state();
  s.measure.fault = sim::fault_spec_from_cli(cli);
  s.trace_path = cli.get("trace", "");
  if (!s.trace_path.empty()) obs::set_global_trace_enabled(true);
  s.report_path = cli.get("report", "");
  if (!s.report_path.empty()) {
    s.report = std::make_unique<obs::ReportBuilder>(
        tool_name(argc > 0 ? argv[0] : nullptr));
    s.report->provenance("seed", cli.get_int("seed", 1));
    s.report->provenance("jobs", cli.get_int("jobs", 0));
  }
  s.fidelity_save_path = cli.get("fidelity-save", "");
  s.fidelity_baseline_path = cli.get("fidelity-baseline", "");
  if (s.report || !s.fidelity_save_path.empty() ||
      !s.fidelity_baseline_path.empty()) {
    s.residuals = std::make_unique<obs::ResidualTracker>();
    obs::set_global_residuals(s.residuals.get());
  }
  s.flight_path = cli.get("flight-dump", "");
  if (!s.flight_path.empty())
    s.flight = std::make_unique<obs::FlightRecorder>();
  s.metrics_path = cli.get("metrics-out", "");
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

int guarded_main(const std::function<int()>& body) {
  try {
    return body();
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace lmo::bench
