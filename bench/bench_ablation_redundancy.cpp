// Ablation: the eq. (12) redundancy averaging — each LMO parameter is
// estimated independently from every triplet it appears in; averaging the
// redundant values reduces estimation error under measurement noise.
#include <cmath>
#include <iostream>

#include "common.hpp"

using namespace lmo;

namespace {
double parameter_error(const core::LmoParams& p, const sim::GroundTruth& gt) {
  double total = 0;
  std::size_t count = 0;
  const int n = p.size();
  for (int i = 0; i < n; ++i) {
    total += std::fabs(p.C[std::size_t(i)] - gt.C[std::size_t(i)]) /
             gt.C[std::size_t(i)];
    total += std::fabs(p.t[std::size_t(i)] - gt.t[std::size_t(i)]) /
             gt.t[std::size_t(i)];
    count += 2;
  }
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) {
      total += std::fabs(p.inv_beta(i, j) -
                         gt.inv_beta(i, j)) /
               gt.inv_beta(i, j);
      ++count;
    }
  return total / double(count);
}
}  // namespace

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv);

  Table t({"noise", "avg (eq. 12) error", "first-triplet error", "gain"});
  for (const double noise : {0.01, 0.02, 0.04, 0.08}) {
    double err_avg = 0, err_first = 0;
    const int seeds = 3;
    for (int s = 0; s < seeds; ++s) {
      auto cfg = sim::make_paper_cluster(std::uint64_t(100 + s));
      cfg.noise_rel = noise;
      const auto gt = sim::ground_truth(cfg);
      for (const bool averaging : {true, false}) {
        bench::BenchEnv env(cfg);
        estimate::LmoOptions opts;
        opts.redundancy_averaging = averaging;
        const auto rep = estimate::estimate_lmo(env.ex, opts);
        (averaging ? err_avg : err_first) +=
            parameter_error(rep.params, gt) / seeds;
      }
    }
    t.add_row({format_percent(noise), format_percent(err_avg),
               format_percent(err_first),
               format_fixed(err_first / err_avg, 2) + "x"});
  }
  bench::emit(t, cli, "Ablation — redundancy averaging (eq. 12) under noise");
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
