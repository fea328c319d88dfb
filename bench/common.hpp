// Shared harness for the figure/table reproduction benches.
//
// Every bench binary builds the Table-I cluster, estimates the models it
// needs through timed experiments only (never from ground truth), sweeps
// message sizes, and prints the series the corresponding figure plots,
// plus mean relative errors against the simulated observation.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "estimate/experimenter.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/suite.hpp"
#include "obs/json.hpp"
#include "simnet/cluster.hpp"
#include "util/cli.hpp"
#include "util/sweep.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "vmpi/world.hpp"

namespace lmo::bench {

/// Message-size sweeps: re-exported from util/sweep.hpp.
using lmo::geometric_sizes;
using lmo::linear_sizes;
using lmo::mean_relative_error;

/// Mean of `reps` global observations of an SPMD collective. Observations
/// run in independent sessions, concurrently up to --jobs; the result does
/// not depend on the degree of parallelism.
[[nodiscard]] double observe_mean(
    estimate::SimExperimenter& ex,
    const std::function<vmpi::Task(vmpi::Comm&)>& body, int reps = 8);

/// ms with 3 decimals — the unit the paper's figures use.
[[nodiscard]] std::string ms(double seconds);

struct BenchEnv {
  sim::ClusterConfig cfg;
  vmpi::World world;
  estimate::SimExperimenter ex;

  /// Attaches the world to the global trace sink when --trace is active.
  /// The experimenter picks up the --fault-* spec parse_bench_cli recorded
  /// (inert when no fault flag was given).
  explicit BenchEnv(std::uint64_t seed = 1);
  /// Same harness on a caller-supplied cluster (e.g. a hierarchical
  /// multi-core cluster) instead of the Table-I paper cluster.
  explicit BenchEnv(sim::ClusterConfig cluster);
  /// Publishes the world's session metrics into the global registry.
  ~BenchEnv();
};

/// The measurement options parse_bench_cli assembled for this run:
/// defaults plus the --fault-* spec. BenchEnv applies them automatically;
/// benches constructing their own SimExperimenter should start from this.
[[nodiscard]] mpib::MeasureOptions bench_measure_options();

/// {"title": ..., "columns": [...], "rows": [[...], ...]} — the JSON shape
/// of a bench table, shared by --json and the run report.
[[nodiscard]] obs::Json table_json(const Table& table,
                                   const std::string& title);

/// Print a table; --csv appends its CSV form, --json its JSON form. When a
/// run report is active the table is also recorded in it.
void emit(const Table& table, const Cli& cli, const std::string& title);

/// True when --report made this run collect a report.
[[nodiscard]] bool reporting();
/// Record a top-level report section; no-op without --report.
void report_set(const std::string& key, obs::Json value);

/// Record one collective-scope prediction residual into the fidelity
/// tracker (no-op unless --report/--fidelity-save/--fidelity-baseline
/// installed one). Benches use this to score every model's collective
/// predictions against the simulated observation — the data the fidelity
/// ranking (paper Table 2) is computed from.
void record_residual(const std::string& model, const std::string& op, Bytes m,
                     double predicted, double observed);

/// Write the --report / --trace / --fidelity-save / --flight-dump /
/// --metrics-out output files, if requested, and check
/// --fidelity-baseline. Call once at the end of every bench main() and
/// return its value: 0 on success, 1 when the fidelity baseline check
/// failed (model ranking changed or per-model accuracy drifted).
[[nodiscard]] int finish_run();

/// Wrap a bench main body in the CLI error contract every binary in the
/// repo follows: an uncaught lmo::Error becomes "error: <message>" on
/// stderr and exit code 1 — never an unexplained SIGABRT. Usage:
///   int run(int argc, char** argv) { ... }
///   int main(int argc, char** argv) {
///     return lmo::bench::guarded_main([&] { return run(argc, argv); });
///   }
[[nodiscard]] int guarded_main(const std::function<int()>& body);

/// Standard bench CLI: --seed N --reps N --csv --json --jobs N
/// --report out.json --trace out.trace.json
/// --measurements-load in.json --measurements-save out.json
/// --fidelity-save out.json --fidelity-baseline baseline.json
/// --flight-dump out.json --metrics-out out.prom, plus the
/// fault-injection knobs --fault-spike-rate/--fault-drop-rate/
/// --fault-hang-rate/--fault-slow-rate (all default 0 = off) with
/// --fault-spike-scale/--fault-hang-delay/--fault-slow-factor/
/// --fault-seed shaping them (see sim::FaultSpec). Parsing
/// applies --jobs (default: hardware concurrency) as the process-wide
/// default parallelism for session fan-out (util::set_default_jobs),
/// enables the global trace sink when --trace is given, opens the run
/// report when --report is, installs the global residual tracker when any
/// of --report/--fidelity-save/--fidelity-baseline is, and arms the
/// flight recorder (attached to every BenchEnv experimenter) when
/// --flight-dump is. `extra` names bench-specific flags (e.g. --switches)
/// accepted on top of the standard set.
[[nodiscard]] Cli parse_bench_cli(int argc, const char* const* argv,
                                  std::vector<std::string> extra = {});

/// The measurement store this run estimates through: a fresh store stamped
/// with the cluster's provenance, or — with --measurements-load — a warm
/// store reloaded from disk (its recorded cluster size/seed must match;
/// estimating against a different world would silently mix platforms).
[[nodiscard]] estimate::MeasurementStore open_measurements(
    const Cli& cli, int cluster_size, std::uint64_t seed);

/// Honor --measurements-save: persist the store (bit-exact doubles) for
/// later warm runs or offline refits. No-op without the flag.
void save_measurements(const Cli& cli, const estimate::MeasurementStore& store);

}  // namespace lmo::bench
