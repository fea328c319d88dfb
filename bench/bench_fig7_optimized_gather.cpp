// Fig. 7: the LMO model-based optimization of linear gather — messages in
// the escalation band are split into a series of gathers with chunks at
// most M1, dodging the escalations. The paper reports ~10x better
// performance in the band.
#include <iostream>

#include "coll/collectives.hpp"
#include "common.hpp"
#include "core/optimize.hpp"
#include "stats/summary.hpp"

using namespace lmo;

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv);
  bench::BenchEnv env(std::uint64_t(cli.get_int("seed", 1)));
  const int reps = int(cli.get_int("reps", 24));
  const int root = 0;

  std::cout << "estimating LMO and its empirical gather parameters...\n";
  const auto lmo = estimate::estimate_lmo(env.ex);
  const auto emp_rep = estimate::estimate_gather_empirical(env.ex, lmo.params);
  const auto& emp = emp_rep.empirical;
  std::cout << "M1 = " << format_bytes(emp.m1)
            << ", M2 = " << format_bytes(emp.m2) << "\n";

  const auto sizes = bench::geometric_sizes(2 * 1024, 192 * 1024,
                                            int(cli.get_int("points", 10)));

  Table t({"M", "plan", "native mean [ms]", "native max [ms]",
           "optimized mean [ms]", "speedup (mean)", "speedup (max)"});
  double best_speedup = 0;
  for (const Bytes m : sizes) {
    const auto plan = core::plan_optimized_gather(lmo.params, emp, root, m);
    const auto native = env.ex.observe_global_samples(
        [m](vmpi::Comm& c) { return coll::linear_gather(c, 0, m); }, reps);
    stats::RunningStats ns;
    ns.add_all(native);

    std::function<vmpi::Task(vmpi::Comm&)> optimized;
    std::string plan_str;
    if (plan.split) {
      const Bytes chunk = plan.chunk;
      optimized = [m, chunk](vmpi::Comm& c) {
        return coll::split_gather(c, 0, m, chunk);
      };
      plan_str = "split x" + std::to_string(plan.series) + " @ " +
                 format_bytes(plan.chunk);
    } else {
      optimized = [m](vmpi::Comm& c) { return coll::linear_gather(c, 0, m); };
      plan_str = "native";
    }
    const auto opt = env.ex.observe_global_samples(optimized, reps);
    stats::RunningStats os;
    os.add_all(opt);

    const double speedup_mean = ns.mean() / os.mean();
    const double speedup_max = ns.max() / os.max();
    best_speedup = std::max(best_speedup, speedup_mean);
    t.add_row({format_bytes(m), plan_str, bench::ms(ns.mean()),
               bench::ms(ns.max()), bench::ms(os.mean()),
               format_fixed(speedup_mean, 2) + "x",
               format_fixed(speedup_max, 2) + "x"});
  }
  bench::emit(t, cli, "Fig. 7 — LMO-based optimized gather vs native");
  std::cout << "\nbest in-band mean speedup: " << format_fixed(best_speedup, 2)
            << "x (paper reports ~10x at the escalation peak)\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
