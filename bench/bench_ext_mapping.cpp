// Extension: LMO-guided processor-to-tree-node mapping for binomial
// scatter (the Hatta & Shibusawa application cited in the paper's
// introduction). Homogeneous models predict the same time for every
// mapping, so they cannot drive this optimization at all; the LMO model's
// hill climb finds a better placement for the slow processors, validated
// against the simulator.
#include <iostream>

#include "coll/collectives.hpp"
#include "common.hpp"
#include "core/tuner.hpp"

using namespace lmo;

namespace {
/// The binomial scatter from root 0 among the tuner's candidates: its
/// default-mapping price, and the climbed mapping with its price.
struct ClimbedMapping {
  std::vector<int> mapping;
  double predicted_default = 0.0;
  double predicted_optimized = 0.0;
};
ClimbedMapping climbed_binomial_scatter(const core::Tuner& tuner, Bytes m) {
  ClimbedMapping plan;
  for (const core::TunedDecision& d :
       tuner.candidates(core::CollectiveKind::kScatter, 0, m)) {
    if (d.algorithm != core::AlgorithmId::kBinomial || d.segment != 0)
      continue;
    if (d.mapping.empty()) {
      plan.predicted_default = d.predicted_seconds;
    } else {
      plan.mapping = d.mapping;
      plan.predicted_optimized = d.predicted_seconds;
    }
  }
  return plan;
}
}  // namespace

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv);
  bench::BenchEnv env(std::uint64_t(cli.get_int("seed", 1)));
  const int reps = int(cli.get_int("reps", 6));

  std::cout << "estimating the LMO model...\n";
  const auto lmo = estimate::estimate_lmo(env.ex);
  const core::Tuner tuner(lmo.params, core::GatherEmpirical{});

  const auto sizes = bench::geometric_sizes(1024, 64 * 1024,
                                            int(cli.get_int("points", 6)));
  Table t({"M", "default obs [ms]", "optimized obs [ms]", "gain",
           "predicted default [ms]", "predicted optimized [ms]"});
  for (const Bytes m : sizes) {
    const auto plan = climbed_binomial_scatter(tuner, m);
    const double obs_default = bench::observe_mean(
        env.ex,
        [m](vmpi::Comm& c) { return coll::binomial_scatter(c, 0, m); }, reps);
    const auto mapping = plan.mapping;
    const double obs_opt = bench::observe_mean(
        env.ex,
        [m, mapping](vmpi::Comm& c) {
          return coll::binomial_scatter(c, 0, m, mapping);
        },
        reps);
    t.add_row({format_bytes(m), bench::ms(obs_default), bench::ms(obs_opt),
               format_fixed(obs_default / obs_opt, 2) + "x",
               bench::ms(plan.predicted_default),
               bench::ms(plan.predicted_optimized)});
  }
  bench::emit(t, cli, "Extension — LMO-guided binomial scatter mapping");

  const auto plan = climbed_binomial_scatter(tuner, 16 * 1024);
  std::cout << "\noptimized mapping at 16 KB (virtual -> physical):";
  for (int v = 0; v < int(plan.mapping.size()); ++v)
    std::cout << " " << plan.mapping[std::size_t(v)];
  std::cout << "\n(the Celeron, physical 12, should sit at a light leaf)\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
