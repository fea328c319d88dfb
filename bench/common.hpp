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

  /// Attaches the world to the global trace sink when --trace is active
  /// and the experimenter to the --flight-dump recorder. The experimenter
  /// picks up the --fault-* spec parse_bench_cli recorded (inert when no
  /// fault flag was given).
  explicit BenchEnv(std::uint64_t seed = 1);
  /// Same harness on a caller-supplied cluster (e.g. a hierarchical
  /// multi-core cluster) instead of the Table-I paper cluster.
  explicit BenchEnv(sim::ClusterConfig cluster);
  ~BenchEnv();  ///< publish()
  BenchEnv(const BenchEnv&) = delete;  // the run state holds its address
  BenchEnv& operator=(const BenchEnv&) = delete;

  /// Publish the world's (anchor session's) metrics into the global
  /// registry, once: finish_run() calls it for every BenchEnv still alive,
  /// the destructor for the rest.
  void publish();
};

/// The measurement options parse_bench_cli assembled for this run:
/// defaults plus the --fault-* spec. BenchEnv applies them automatically;
/// benches constructing their own SimExperimenter should start from this.
[[nodiscard]] mpib::MeasureOptions bench_measure_options();

/// Print a table; --csv appends its CSV form, --json its JSON form. When a
/// run report is active the table is also recorded in it.
void emit(const Table& table, const Cli& cli, const std::string& title);

/// True when --report made this run collect a report.
[[nodiscard]] bool reporting();
/// Record a top-level report section; no-op without --report.
void report_set(const std::string& key, obs::Json value);

/// Score one model's collective prediction against the simulated
/// observation in the fidelity tracker (the paper's Table 2 ranking);
/// no-op unless an artifact flag installed the tracker.
void record_residual(const std::string& model, const std::string& op, Bytes m,
                     double predicted, double observed);

/// Publish the anchor session of every BenchEnv still alive, then
/// obs::RunArtifacts::finish(). Call once at the end of every bench main()
/// and return its value: 1 when --fidelity-baseline failed, else 0.
[[nodiscard]] int finish_run();

/// The CLI error contract (util/cli.hpp): return guarded_main(...) from
/// every bench main().
using lmo::guarded_main;

/// Standard bench CLI: --seed --reps --csv --json --points --jobs
/// --measurements-load/-save, the artifact flags of obs::RunArtifacts and
/// the --fault-* knobs (sim::fault_cli_options; all rates default to 0).
/// Applies --jobs (default: hardware concurrency) as the process-wide
/// default parallelism (util::set_default_jobs) and opens the process's
/// RunArtifacts, with seed and jobs as report provenance. `extra` names
/// bench-specific flags (e.g. --switches) accepted on top.
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
