// Scale benchmark: the SoA hot state and the sampled estimator at large N.
//
// For N in {16, 256, 1024, 4096} (multicore shapes, block placement):
//  * setup   — wall time to construct the simulation world and its
//              experimenter (config validation, fabric SoA arrays) — paid
//              by the anchor and by each of the experimenter's jobs pooled
//              sessions, not per repetition (those reset() a pooled
//              session),
//  * micro   — engine events/s over a binomial broadcast observed on the
//              anchor session,
//  * macro   — wall time of the sampled LMO scale fit (estimate_scale_lmo:
//              a few triplets per tree level instead of O(N^3) experiments),
//  * peak RSS — getrusage high water (run in ascending N so each row's
//              value is attributable to its N; sub-quadratic growth here is
//              the acceptance bar for the profile/SoA refactor).
// Writes the series to --out (default BENCH_scale.json) for CI to diff,
// with the machine it ran on (CPUs, build type, compiler, load average).
#include <sys/resource.h>

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "coll/zoo.hpp"
#include "common.hpp"
#include "estimate/scale_estimator.hpp"
#include "util/thread_pool.hpp"

using namespace lmo;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

/// Where the timings came from: they mean little without it.
obs::Json machine_json() {
  obs::Json m = obs::Json::object();
  m["cpus"] = hardware_jobs();
#if defined(NDEBUG)
  m["build"] = "release";
#else
  m["build"] = "debug";
#endif
  m["compiler"] = std::string(__VERSION__);
  double load = 0.0;
  m["load_1m"] = getloadavg(&load, 1) == 1 ? load : -1.0;
  return m;
}

struct Shape {
  int switches, nodes, cores;
  [[nodiscard]] int ranks() const { return switches * nodes * cores; }
};

}  // namespace

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv, {"max-ranks", "out"});
  const int max_ranks = int(cli.get_int("max-ranks", 4096));
  const std::string out = cli.get("out", "BENCH_scale.json");
  const auto seed = std::uint64_t(cli.get_int("seed", 1));
  const Bytes bcast_bytes = 4 * 1024;

  const Shape shapes[] = {
      {1, 4, 4}, {4, 8, 8}, {4, 16, 16}, {8, 32, 16}};  // 16..4096 ranks

  Table table({"ranks", "setup [ms]", "events", "events/s [M]",
               "scale fit [ms]", "triplets", "peak RSS [MB]"});
  obs::Json series = obs::Json::array();
  for (const Shape& shape : shapes) {
    const int n = shape.ranks();
    if (n > max_ranks) continue;

    const auto t_setup = std::chrono::steady_clock::now();
    bench::BenchEnv env(sim::make_multicore_cluster(
        shape.switches, shape.nodes, shape.cores, seed));
    const double setup_s = seconds_since(t_setup);

    // Micro: one anchor-session broadcast; events/s from the session's own
    // engine accounting (host_ns counts time inside engine runs only).
    const vmpi::SessionMetrics before = env.world.metrics();
    (void)env.ex.observe_global([bcast_bytes](vmpi::Comm& c) {
      return coll::tree_bcast(c, trees::TreeKind::kBinomial, 0, bcast_bytes);
    });
    const vmpi::SessionMetrics after = env.world.metrics();
    const double events = double(after.events - before.events);
    const double engine_s = double(after.host_ns - before.host_ns) * 1e-9;
    const double events_per_s = engine_s > 0 ? events / engine_s : 0.0;

    // Macro: the sampled scale fit end to end (two experiment stages plus
    // the per-level/per-profile aggregation).
    estimate::MeasurementStore store;
    store.set_cluster(env.cfg.size(), env.cfg.seed);
    estimate::ScaleOptions sopts;
    sopts.cluster = &env.cfg;
    const auto t_fit = std::chrono::steady_clock::now();
    const auto fit = estimate::estimate_scale_lmo(env.ex, store, sopts);
    const double fit_s = seconds_since(t_fit);

    const long rss_kb = peak_rss_kb();
    table.add_row({std::to_string(n), format_fixed(setup_s * 1e3, 2),
                   format_fixed(events, 0),
                   format_fixed(events_per_s * 1e-6, 2),
                   format_fixed(fit_s * 1e3, 2),
                   std::to_string(fit.triplets.size()),
                   format_fixed(double(rss_kb) / 1024.0, 1)});
    obs::Json row = obs::Json::object();
    row["ranks"] = n;
    row["setup_s"] = setup_s;
    row["events"] = std::int64_t(events);
    row["events_per_s"] = events_per_s;
    row["scale_fit_s"] = fit_s;
    row["triplets"] = std::int64_t(fit.triplets.size());
    row["roundtrip_experiments"] = std::int64_t(fit.roundtrip_experiments);
    row["one_to_two_experiments"] = std::int64_t(fit.one_to_two_experiments);
    row["store_entries"] = std::int64_t(store.size());
    row["peak_rss_kb"] = std::int64_t(rss_kb);
    series.push_back(std::move(row));
  }
  bench::emit(table, cli, "Scale — SoA state and sampled fit, N up to 4096");

  obs::Json doc = obs::Json::object();
  doc["schema"] = "lmo.bench_scale/1";
  doc["seed"] = std::int64_t(seed);
  doc["machine"] = machine_json();
  doc["series"] = std::move(series);
  obs::save_json(doc, out);
  std::cout << "\nscale series: " << out << "\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
