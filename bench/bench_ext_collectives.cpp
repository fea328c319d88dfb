// Extension: the paper argues an intuitive model expresses "the execution
// time of any collective communication operation" as sums and maxima of
// the separated point-to-point parameters. This bench applies the
// estimated LMO model to collectives beyond the paper's scatter/gather —
// broadcast, reduce, ring allgather — and scores it against the averaged
// Hockney readings.
#include <iostream>

#include "coll/zoo.hpp"
#include "common.hpp"
#include "core/predictions.hpp"
#include "core/tuner.hpp"

using namespace lmo;

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(argc, argv);
  bench::BenchEnv env(std::uint64_t(cli.get_int("seed", 1)));
  const int reps = int(cli.get_int("reps", 6));
  const int n = env.cfg.size();
  const int root = 0;

  std::cout << "estimating models from communication experiments...\n";
  const auto hockney = estimate::estimate_hockney(env.ex);
  const auto lmo = estimate::estimate_lmo(env.ex);

  struct Op {
    const char* name;
    std::function<vmpi::Task(vmpi::Comm&, Bytes)> run;
    std::function<double(Bytes)> lmo_pred;
    std::function<double(Bytes)> hockney_pred;
  };
  const models::Hockney avg = hockney.homogeneous;
  const core::Tuner tuner(lmo.params, core::GatherEmpirical{});
  // The tuner's price of one (kind, algorithm) from the root.
  auto price = [&](core::CollectiveKind kind, core::AlgorithmId id) {
    return [&tuner, kind, id, root](Bytes m) {
      core::TunedDecision d;
      d.kind = kind;
      d.algorithm = id;
      d.root = root;
      d.message = m;
      return tuner.price(d);
    };
  };
  using core::AlgorithmId;
  using core::CollectiveKind;
  const std::vector<Op> ops = {
      {"linear bcast",
       [root](vmpi::Comm& c, Bytes m) {
         return coll::tree_bcast(c, trees::TreeKind::kFlat, root, m);
       },
       price(CollectiveKind::kBcast, AlgorithmId::kLinear),
       [&](Bytes m) {
         return avg.flat_collective(n, m, models::FlatAssumption::kSequential);
       }},
      {"binomial bcast",
       [root](vmpi::Comm& c, Bytes m) {
         return coll::tree_bcast(c, trees::TreeKind::kBinomial, root, m);
       },
       price(CollectiveKind::kBcast, AlgorithmId::kBinomial),
       [&](Bytes m) {
         // log2(n) rounds of one pt2pt each under homogeneous Hockney.
         return double(trees::binomial_rounds(n)) * avg.pt2pt(m);
       }},
      {"linear reduce",
       [root](vmpi::Comm& c, Bytes m) {
         return coll::tree_reduce(c, trees::TreeKind::kFlat, root, m);
       },
       price(CollectiveKind::kReduce, AlgorithmId::kLinear),
       [&](Bytes m) {
         return avg.flat_collective(n, m, models::FlatAssumption::kSequential);
       }},
      {"binomial reduce",
       [root](vmpi::Comm& c, Bytes m) {
         return coll::tree_reduce(c, trees::TreeKind::kBinomial, root, m);
       },
       price(CollectiveKind::kReduce, AlgorithmId::kBinomial),
       [&](Bytes m) {
         return double(trees::binomial_rounds(n)) * avg.pt2pt(m);
       }},
      {"ring allgather",
       [](vmpi::Comm& c, Bytes m) { return coll::ring_allgather(c, m); },
       [&](Bytes m) { return core::ring_allgather_time(lmo.params, m); },
       [&](Bytes m) { return double(n - 1) * avg.pt2pt(m); }},
  };

  const auto sizes = bench::geometric_sizes(1024, 64 * 1024,
                                            int(cli.get_int("points", 6)));
  Table summary({"collective", "LMO mean rel err", "Hockney mean rel err"});
  for (const auto& op : ops) {
    Table t({"M", "observed [ms]", "LMO [ms]", "Hockney [ms]"});
    std::vector<double> obs, v_lmo, v_h;
    for (const Bytes m : sizes) {
      const double o = bench::observe_mean(
          env.ex, [&op, m](vmpi::Comm& c) { return op.run(c, m); }, reps);
      obs.push_back(o);
      v_lmo.push_back(op.lmo_pred(m));
      v_h.push_back(op.hockney_pred(m));
      t.add_row({format_bytes(m), bench::ms(o), bench::ms(v_lmo.back()),
                 bench::ms(v_h.back())});
    }
    bench::emit(t, cli, std::string("Extension — ") + op.name);
    summary.add_row(
        {op.name, format_percent(bench::mean_relative_error(obs, v_lmo)),
         format_percent(bench::mean_relative_error(obs, v_h))});
  }
  bench::emit(summary, cli, "Extension — model accuracy across collectives");
  std::cout
      << "\nnote: linear reduce and ring allgather are many-to-one/converging"
         " patterns,\nso medium sizes hit the same TCP escalation band as"
         " linear gather (Fig. 5);\ntheir analytical predictions would need"
         " the empirical band parameters too —\nexactly the paper's argument"
         " for augmenting analytical models empirically.\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
