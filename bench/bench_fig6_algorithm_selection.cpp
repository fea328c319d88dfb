// Fig. 6: linear vs binomial scatter for 100 KB <= M <= 200 KB — the
// observations, the heterogeneous Hockney and LMO predictions, and the
// algorithm-selection decision each model makes. Hockney (homogeneous
// closed forms, as used by practical selectors) mispredicts that binomial
// wins; LMO selects correctly.
#include <iostream>

#include "coll/zoo.hpp"
#include "common.hpp"
#include "core/optimize.hpp"
#include "core/tuner.hpp"

using namespace lmo;

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv);
  bench::BenchEnv env(std::uint64_t(cli.get_int("seed", 1)));
  const int reps = int(cli.get_int("reps", 6));
  const int root = 0;

  std::cout << "estimating models from communication experiments...\n";
  const auto hockney = estimate::estimate_hockney(env.ex);
  const auto lmo = estimate::estimate_lmo(env.ex);

  const auto sizes = bench::linear_sizes(100 * 1024, 200 * 1024,
                                         int(cli.get_int("points", 6)));
  const core::Tuner tuner(lmo.params, core::GatherEmpirical{});
  auto lmo_price = [&](core::AlgorithmId id, Bytes m) {
    core::TunedDecision d;
    d.kind = core::CollectiveKind::kScatter;
    d.algorithm = id;
    d.root = root;
    d.message = m;
    return tuner.price(d);
  };

  Table t({"M", "obs linear [ms]", "obs binomial [ms]", "LMO lin [ms]",
           "LMO bin [ms]", "Hockney choice", "LMO choice", "actual winner"});
  int hockney_correct = 0, lmo_correct = 0;
  for (const Bytes m : sizes) {
    const double obs_lin = bench::observe_mean(
        env.ex,
        [m](vmpi::Comm& c) { return coll::linear_scatter(c, 0, m); }, reps);
    const double obs_bin = bench::observe_mean(
        env.ex,
        [m](vmpi::Comm& c) {
          return coll::tree_scatter(c, trees::TreeKind::kBinomial, 0, m);
        },
        reps);
    const auto hockney_pick =
        core::choose_scatter_algorithm_hockney(hockney.hetero, root, m);
    const double lmo_lin = lmo_price(core::AlgorithmId::kLinear, m);
    const double lmo_bin = lmo_price(core::AlgorithmId::kBinomial, m);
    const auto lmo_pick = lmo_lin <= lmo_bin ? core::ScatterAlgorithm::kLinear
                                             : core::ScatterAlgorithm::kBinomial;
    const auto actual = obs_lin <= obs_bin ? core::ScatterAlgorithm::kLinear
                                           : core::ScatterAlgorithm::kBinomial;
    hockney_correct += hockney_pick == actual;
    lmo_correct += lmo_pick == actual;
    auto name = [](core::ScatterAlgorithm a) {
      return a == core::ScatterAlgorithm::kLinear ? "linear" : "binomial";
    };
    t.add_row({format_bytes(m), bench::ms(obs_lin), bench::ms(obs_bin),
               bench::ms(lmo_lin), bench::ms(lmo_bin),
               name(hockney_pick), name(lmo_pick), name(actual)});
  }
  bench::emit(t, cli, "Fig. 6 — algorithm selection, 100-200 KB scatter");

  std::cout << "\ncorrect decisions: Hockney " << hockney_correct << "/"
            << sizes.size() << ", LMO " << lmo_correct << "/" << sizes.size()
            << "\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
