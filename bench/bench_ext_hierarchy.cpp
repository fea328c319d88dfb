// Extension: hierarchical resource-tree cluster — per-level LMO fit and
// topology-aware broadcast mapping.
//
// Builds a multi-core cluster (switches x nodes x cores, cyclically
// placed), estimates the LMO model through timed experiments only, and
// reports (a) the fitted per-level link parameters against the ground
// truth the simulator was built from, and (b) binomial broadcast under
// the flat (v + root) mod n mapping vs the hierarchy-aware mapping,
// predicted by the fitted model and observed on the contended fabric.
#include <iostream>

#include "coll/zoo.hpp"
#include "common.hpp"
#include "core/tuner.hpp"
#include "trees/mapping.hpp"

using namespace lmo;

int run(int argc, char** argv) {
  const Cli cli =
      bench::parse_bench_cli(argc, argv, {"switches", "nodes", "cores"});
  const int switches = int(cli.get_int("switches", 2));
  const int nodes = int(cli.get_int("nodes", 3));
  const int cores = int(cli.get_int("cores", 2));
  const int reps = int(cli.get_int("reps", 6));
  const int root = 0;

  bench::BenchEnv env(sim::make_multicore_cluster(
      switches, nodes, cores, std::uint64_t(cli.get_int("seed", 1)),
      sim::Placement::kCyclic));
  std::cout << "cluster: " << switches << " switches x " << nodes
            << " nodes x " << cores << " cores = " << env.cfg.size()
            << " ranks (cyclic placement)\n";

  std::cout << "estimating the LMO model...\n";
  const auto lmo = estimate::estimate_lmo(env.ex);

  // Per-level fit vs ground truth. The fitted L absorbs the minimal
  // Ethernet frame's wire time (64 B at the level's rate), same as the
  // flat estimator; the "true L+frame" column is the comparable value.
  const auto gt = sim::ground_truth_per_level(env.cfg);
  Table levels({"level", "pairs", "fitted L [us]", "true L+frame [us]",
                "fitted 1/beta [ns/B]", "true 1/beta [ns/B]"});
  for (std::size_t lv = 0; lv < lmo.params.per_level.size(); ++lv) {
    const auto& fit = lmo.params.per_level[lv];
    const double true_L = gt[lv].L + 64.0 * gt[lv].inv_beta;
    levels.add_row({env.cfg.topology.level(int(lv) + 1).name,
                    std::to_string(fit.pairs), format_fixed(fit.L * 1e6, 2),
                    format_fixed(true_L * 1e6, 2),
                    format_fixed(fit.inv_beta * 1e9, 1),
                    format_fixed(gt[lv].inv_beta * 1e9, 1)});
  }
  bench::emit(levels, cli, "Extension — per-level LMO fit vs ground truth");

  // Broadcast: flat vs hierarchy-aware mapping.
  const auto mapping = trees::hierarchy_mapping(env.cfg.topology, root);
  // No topology: the closed form, blind to the uplink contention the
  // observed columns pay.
  const core::Tuner tuner(lmo.params, core::GatherEmpirical{});
  auto predict = [&](Bytes m, std::vector<int> map) {
    core::TunedDecision d;
    d.kind = core::CollectiveKind::kBcast;
    d.algorithm = core::AlgorithmId::kBinomial;
    d.root = root;
    d.message = m;
    d.mapping = std::move(map);
    return tuner.price(d);
  };
  const auto sizes = bench::geometric_sizes(
      4 * 1024, 64 * 1024, int(cli.get_int("points", 5)));
  Table bcast({"M", "flat obs [ms]", "topo obs [ms]", "gain",
               "predicted flat [ms]", "predicted topo [ms]"});
  for (const Bytes m : sizes) {
    const double obs_flat = bench::observe_mean(
        env.ex,
        [m, root](vmpi::Comm& c) {
          return coll::tree_bcast(c, trees::TreeKind::kBinomial, root, m);
        },
        reps);
    const double obs_topo = bench::observe_mean(
        env.ex,
        [m, root, mapping](vmpi::Comm& c) {
          return coll::tree_bcast(c, trees::TreeKind::kBinomial, root, m,
                                  mapping);
        },
        reps);
    const double pred_flat = predict(m, {});
    const double pred_topo = predict(m, mapping);
    bcast.add_row({format_bytes(m), bench::ms(obs_flat), bench::ms(obs_topo),
                   format_fixed(obs_flat / obs_topo, 2) + "x",
                   bench::ms(pred_flat), bench::ms(pred_topo)});
  }
  bench::emit(bcast, cli,
              "Extension — binomial bcast, flat vs hierarchy mapping");

  std::cout << "\nhierarchy mapping (virtual -> physical):";
  for (const int r : mapping) std::cout << " " << r;
  std::cout << "\n(subtrees stay inside nodes and switches; the flat cyclic"
               "\nplacement crosses the oversubscribed uplink instead)\n";
  return bench::finish_run();
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
