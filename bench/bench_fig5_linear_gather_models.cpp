// Fig. 5: linear gather on the 16-node cluster — observation (two-slope
// with non-deterministic escalations in the (M1, M2) band) vs the LMO
// two-branch prediction (eq. 5) and the single-formula traditional models.
// Only LMO reflects the regime switch and the escalation statistics.
#include <iostream>

#include "coll/collectives.hpp"
#include "common.hpp"
#include "core/predictions.hpp"
#include "stats/summary.hpp"

using namespace lmo;

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv);
  bench::BenchEnv env(std::uint64_t(cli.get_int("seed", 1)));
  const int reps = int(cli.get_int("reps", 10));
  const int root = 0;
  const int n = env.cfg.size();

  std::cout << "estimating models from communication experiments...\n";
  const auto hockney = estimate::estimate_hockney(env.ex);
  const auto loggp = estimate::estimate_loggp(env.ex);
  const auto plogp = estimate::estimate_plogp(env.ex);
  const auto lmo = estimate::estimate_lmo(env.ex);
  const auto gather_emp = estimate::estimate_gather_empirical(env.ex, lmo.params);
  const auto& emp = gather_emp.empirical;

  std::cout << "detected M1 = " << format_bytes(emp.m1)
            << ", M2 = " << format_bytes(emp.m2) << "\n";

  const auto sizes = bench::geometric_sizes(1024, 256 * 1024,
                                            int(cli.get_int("points", 16)));

  Table t({"M", "obs median [ms]", "obs max [ms]", "LMO line [ms]",
           "LMO worst [ms]", "LMO regime", "hetHockney [ms]",
           "LogGP [ms]", "PLogP [ms]"});
  // Clean regimes (below M1, above M2): point-prediction errors.
  std::vector<double> clean_obs, c_lmo, c_hock, c_loggp, c_plogp;
  // Medium band: distributional scoring — fraction of samples each model's
  // prediction covers within a +/-15% corridor (LMO's corridor spans its
  // analytic line to line + max escalation; single-line models have only
  // their line).
  int band_samples = 0, cover_lmo = 0, cover_hock = 0, cover_loggp = 0,
      cover_plogp = 0;
  for (const Bytes m : sizes) {
    const auto samples = env.ex.observe_global_samples(
        [m](vmpi::Comm& c) { return coll::linear_gather(c, 0, m); }, reps);
    stats::RunningStats s;
    s.add_all(samples);
    const double med = stats::median_of(samples);

    const auto pred = core::linear_gather_time(lmo.params, emp, root, m);
    const double hock = hockney.hetero.flat_collective(
        root, m, models::FlatAssumption::kSequential);
    const double lg = loggp.averaged.flat_collective(n, m);
    const double pl = plogp.averaged.flat_collective(n, m);
    const char* regime = pred.regime == core::GatherRegime::kSmall ? "small"
                         : pred.regime == core::GatherRegime::kMedium
                             ? "medium"
                             : "large";
    if (pred.regime == core::GatherRegime::kMedium) {
      auto covers_line = [](double obs_v, double line) {
        return obs_v >= 0.85 * line && obs_v <= 1.15 * line;
      };
      for (const double obs_v : samples) {
        ++band_samples;
        cover_lmo += obs_v >= 0.85 * pred.base &&
                     obs_v <= 1.15 * pred.worst_case();
        cover_hock += covers_line(obs_v, hock);
        cover_loggp += covers_line(obs_v, lg);
        cover_plogp += covers_line(obs_v, pl);
      }
    } else {
      clean_obs.push_back(med);
      c_lmo.push_back(pred.base);
      c_hock.push_back(hock);
      c_loggp.push_back(lg);
      c_plogp.push_back(pl);
    }
    t.add_row({format_bytes(m), bench::ms(med), bench::ms(s.max()),
               bench::ms(pred.base), bench::ms(pred.worst_case()), regime,
               bench::ms(hock), bench::ms(lg), bench::ms(pl)});
  }
  bench::emit(t, cli, "Fig. 5 — linear gather vs all models");

  Table err({"model", "clean-regime error (M<M1, M>M2)",
             "medium-band sample coverage"});
  auto cov = [&](int covered) {
    return band_samples == 0
               ? std::string("-")
               : format_percent(double(covered) / double(band_samples));
  };
  err.add_row({"LMO (eq. 5 + empirical band)",
               format_percent(bench::mean_relative_error(clean_obs, c_lmo)),
               cov(cover_lmo)});
  err.add_row({"heterogeneous Hockney (sum)",
               format_percent(bench::mean_relative_error(clean_obs, c_hock)),
               cov(cover_hock)});
  err.add_row({"LogGP",
               format_percent(bench::mean_relative_error(clean_obs, c_loggp)),
               cov(cover_loggp)});
  err.add_row({"PLogP",
               format_percent(bench::mean_relative_error(clean_obs, c_plogp)),
               cov(cover_plogp)});
  bench::emit(err, cli,
              "Fig. 5 — prediction quality (point error where the behaviour "
              "is deterministic, sample coverage inside the band)");

  Table esc({"escalation mode [s]", "frequency"});
  for (const auto& mode : emp.escalation_modes)
    esc.add_row({format_seconds(mode.value), format_percent(mode.frequency)});
  if (emp.escalation_modes.empty()) esc.add_row({"(none observed)", "-"});
  bench::emit(esc, cli, "Fig. 5 — escalation statistics in (M1, M2)");

  std::cout << "\nlinear-fit probability: at M1 "
            << format_percent(emp.linear_prob_at_m1) << ", at M2 "
            << format_percent(emp.linear_prob_at_m2)
            << " (decreasing with size: "
            << (emp.linear_prob_at_m2 <= emp.linear_prob_at_m1 ? "yes" : "NO")
            << ")\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
