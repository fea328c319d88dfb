// Extension: tuner validation — the model-driven auto-tuner's decisions
// replayed against simulated ground truth.
//
// On the Table-I paper cluster and on a hierarchical multi-core cluster,
// estimate the LMO model and its empirical gather band through timed
// experiments only, then for every (collective, message size) in the
// sweep price the full candidate zoo (algorithm x segment x mapping),
// execute *every* candidate through vmpi::SimSession via
// coll::run_decision, and report the regret of the tuner's choice: how
// much slower the chosen plan runs than the best simulated candidate.
// --max-regret gates the run (CI uses 0.10); the "tuner_validation"
// report section records every case and the fidelity residuals of each
// chosen plan. Every case also checks that Tuner::decide, which prunes
// candidates by a lower bound, returns exactly the candidates() argmin;
// any difference fails the run.
//
// By default both clusters run deterministic (noise and TCP escalation
// quirks off) so the --max-regret gate scores the model's schedule
// fidelity; pass --noisy to restore the realistic paper cluster.
#include <iostream>

#include "coll/zoo.hpp"
#include "common.hpp"
#include "core/tuner.hpp"

using namespace lmo;

namespace {

struct RegretStats {
  double max_regret = 0.0;
  double sum_regret = 0.0;
  double sum_abs_pred_err = 0.0;
  int cases = 0;
  int decide_mismatches = 0;  ///< decide() differs from the argmin below
};

/// Sweep one cluster: decisions, per-candidate replay, regret rows.
void sweep_cluster(bench::BenchEnv& env, const std::string& label,
                   const std::vector<core::CollectiveKind>& kinds,
                   const std::vector<Bytes>& sizes, int reps, Table& table,
                   RegretStats& stats, obs::Json& section) {
  std::cout << "[" << label << "] estimating LMO and the gather band...\n";
  const auto lmo = estimate::estimate_lmo(env.ex);
  const auto emp = estimate::estimate_gather_empirical(env.ex, lmo.params);

  core::TunerOptions opts;
  opts.topology = &env.cfg.topology;
  const core::Tuner tuner(lmo.params, emp.empirical, opts);

  obs::Json rows = obs::Json::array();
  for (const core::CollectiveKind kind : kinds)
    for (const Bytes m : sizes) {
      const auto all = tuner.candidates(kind, 0, m);
      double best_obs = 0.0, chosen_obs = 0.0;
      std::string best_name;
      const core::TunedDecision* chosen = &all.front();
      for (const auto& d : all)
        if (d.predicted_seconds < chosen->predicted_seconds) chosen = &d;
      // decide() prunes candidates by a lower bound; it must still pick
      // exactly this argmin, on fitted parameters too.
      const core::TunedDecision decided = tuner.decide(kind, 0, m);
      if (decided.algorithm != chosen->algorithm ||
          decided.segment != chosen->segment ||
          decided.mapping != chosen->mapping ||
          decided.predicted_seconds != chosen->predicted_seconds) {
        std::cout << "MISMATCH [" << label << "] "
                  << core::collective_name(kind) << " " << format_bytes(m)
                  << ": decide() chose " << decided.describe()
                  << ", candidates() argmin is " << chosen->describe() << "\n";
        ++stats.decide_mismatches;
      }
      for (const auto& d : all) {
        const double obs = bench::observe_mean(
            env.ex,
            [d](vmpi::Comm& c) -> vmpi::Task {
              co_await coll::run_decision(c, d);
            },
            reps);
        if (best_obs == 0.0 || obs < best_obs) {
          best_obs = obs;
          best_name = d.describe();
        }
        if (&d == chosen) chosen_obs = obs;
      }
      const double regret = chosen_obs / best_obs - 1.0;
      stats.max_regret = std::max(stats.max_regret, regret);
      stats.sum_regret += regret;
      stats.sum_abs_pred_err +=
          std::abs(chosen->predicted_seconds - chosen_obs) / chosen_obs;
      ++stats.cases;
      bench::record_residual("tuner", core::collective_name(kind), m,
                             chosen->predicted_seconds, chosen_obs);
      table.add_row({label, core::collective_name(kind), format_bytes(m),
                     chosen->describe(), bench::ms(chosen->predicted_seconds),
                     bench::ms(chosen_obs), best_name, bench::ms(best_obs),
                     format_fixed(100.0 * regret, 1) + "%"});
      obs::Json row = obs::Json::object();
      row["op"] = core::collective_name(kind);
      row["message"] = double(m);
      row["chosen"] = chosen->describe();
      row["predicted_seconds"] = chosen->predicted_seconds;
      row["chosen_seconds"] = chosen_obs;
      row["best"] = best_name;
      row["best_seconds"] = best_obs;
      row["regret"] = regret;
      rows.push_back(std::move(row));
    }
  section[label] = std::move(rows);
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(
      argc, argv,
      {"points", "switches", "nodes", "cores", "max-regret", "noisy"});
  const int reps = int(cli.get_int("reps", 4));
  const int points = int(cli.get_int("points", 4));
  // 0 disables the in-binary gate; CI passes the acceptance threshold.
  const double max_regret = cli.get_double("max-regret", 0.0);
  const std::uint64_t seed = std::uint64_t(cli.get_int("seed", 1));

  const auto sizes = bench::geometric_sizes(1024, 256 * 1024, points);
  Table table({"cluster", "op", "M", "chosen", "pred [ms]", "chosen obs [ms]",
               "best candidate", "best obs [ms]", "regret"});
  RegretStats stats;
  obs::Json section = obs::Json::object();

  {
    // The regret gate runs the deterministic acceptance setup (same as the
    // TunerRegret tests): noise and TCP escalation quirks off, so the bar
    // scores model-vs-schedule fidelity, not escalation forecasting, which
    // only the gather band models. --noisy restores the realistic cluster
    // for exploration.
    auto cfg = sim::make_paper_cluster(seed);
    if (!cli.has("noisy")) {
      cfg.noise_rel = 0.0;
      cfg.quirks.enabled = false;
    }
    bench::BenchEnv env(std::move(cfg));
    sweep_cluster(env, "paper-16",
                  {core::CollectiveKind::kScatter, core::CollectiveKind::kGather,
                   core::CollectiveKind::kBcast, core::CollectiveKind::kReduce},
                  sizes, reps, table, stats, section);
  }
  {
    const int switches = int(cli.get_int("switches", 1));
    const int nodes = int(cli.get_int("nodes", 4));
    const int cores = int(cli.get_int("cores", 4));
    bench::BenchEnv env(sim::make_multicore_cluster(switches, nodes, cores,
                                                    seed));
    sweep_cluster(env,
                  "multicore-" + std::to_string(switches * nodes * cores),
                  {core::CollectiveKind::kScatter, core::CollectiveKind::kBcast},
                  sizes, reps, table, stats, section);
  }

  bench::emit(table, cli, "Extension — tuner decisions vs simulated best");

  const double mean_regret =
      stats.cases > 0 ? stats.sum_regret / double(stats.cases) : 0.0;
  const double mean_pred_err =
      stats.cases > 0 ? stats.sum_abs_pred_err / double(stats.cases) : 0.0;
  section["cases"] = double(stats.cases);
  section["max_regret"] = stats.max_regret;
  section["mean_regret"] = mean_regret;
  section["mean_abs_prediction_error"] = mean_pred_err;
  bench::report_set("tuner_validation", std::move(section));

  std::cout << "\ncases: " << stats.cases
            << ", max regret: " << format_fixed(100.0 * stats.max_regret, 1)
            << "%, mean regret: " << format_fixed(100.0 * mean_regret, 1)
            << "%, mean |pred err|: "
            << format_fixed(100.0 * mean_pred_err, 1) << "%\n";

  const int rc = bench::finish_run();
  if (stats.decide_mismatches > 0) {
    std::cout << "FAIL: decide() differs from the candidates() argmin in "
              << stats.decide_mismatches << " case(s)\n";
    return 1;
  }
  if (max_regret > 0.0 && stats.max_regret > max_regret) {
    std::cout << "FAIL: max regret " << format_fixed(stats.max_regret, 3)
              << " exceeds --max-regret " << format_fixed(max_regret, 3)
              << "\n";
    return 1;
  }
  return rc;
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
