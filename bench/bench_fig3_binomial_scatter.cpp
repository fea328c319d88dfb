// Fig. 3: binomial scatter on the 16-node heterogeneous cluster — the
// observation vs the homogeneous Hockney closed form (eq. 3) and the
// recursive heterogeneous formula (eqs. 1-2). The heterogeneous model
// approximates the operation much better.
#include <iostream>

#include "coll/zoo.hpp"
#include "common.hpp"

using namespace lmo;

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv);
  bench::BenchEnv env(std::uint64_t(cli.get_int("seed", 1)));
  const int reps = int(cli.get_int("reps", 8));

  const auto hockney = estimate::estimate_hockney(env.ex);
  const auto sizes = bench::geometric_sizes(1024, 128 * 1024,
                                            int(cli.get_int("points", 12)));

  Table t({"M", "observed [ms]", "hetero eq.(1-2) [ms]", "homo eq.(3) [ms]"});
  std::vector<double> obs, het, hom;
  for (const Bytes m : sizes) {
    const double o = bench::observe_mean(
        env.ex,
        [m](vmpi::Comm& c) {
          return coll::tree_scatter(c, trees::TreeKind::kBinomial, 0, m);
        },
        reps);
    obs.push_back(o);
    het.push_back(hockney.hetero.binomial_collective(0, m));
    hom.push_back(hockney.homogeneous.binomial_collective(env.cfg.size(), m));
    t.add_row({format_bytes(m), bench::ms(o), bench::ms(het.back()),
               bench::ms(hom.back())});
  }
  bench::emit(t, cli, "Fig. 3 — binomial scatter vs Hockney predictions");

  const double err_het = bench::mean_relative_error(obs, het);
  const double err_hom = bench::mean_relative_error(obs, hom);
  Table err({"prediction", "mean relative error"});
  err.add_row({"heterogeneous Hockney (eqs. 1-2)", format_percent(err_het)});
  err.add_row({"homogeneous Hockney (eq. 3)", format_percent(err_hom)});
  bench::emit(err, cli, "Fig. 3 — prediction errors");
  std::cout << "\nheterogeneous model closer: "
            << (err_het < err_hom ? "yes" : "NO") << "\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
