// Fixtures many tests share and no product needs: a homogeneous cluster,
// the explicit single-switch tree, every oriented triplet, and a
// rank-timed SPMD run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "coll/collectives.hpp"
#include "estimate/schedule.hpp"
#include "simnet/cluster.hpp"
#include "simnet/topology.hpp"
#include "util/error.hpp"
#include "vmpi/session.hpp"

namespace lmo::test_support {

/// n identical nodes; useful for testing that heterogeneous machinery
/// degenerates to the homogeneous case.
inline sim::ClusterConfig make_homogeneous_cluster(int n,
                                                   const sim::NodeParams& node,
                                                   std::uint64_t seed = 1) {
  LMO_CHECK(n >= 2);
  sim::ClusterConfig cfg;
  cfg.seed = seed;
  cfg.nodes.assign(std::size_t(n), node);
  for (int i = 0; i < n; ++i)
    cfg.nodes[std::size_t(i)].label = "node-" + std::to_string(i);
  cfg.validate();
  return cfg;
}

/// The degenerate one-level tree equivalent to a flat single-switch
/// cluster of n ranks.
inline sim::Topology single_switch(int n, double switch_latency_s) {
  sim::TopologyLevel sw;
  sw.name = "switch";
  sw.forward_latency_s = switch_latency_s;
  return sim::Topology::balanced({n}, {sw});
}

/// All oriented triplets: for each {i<j<k}, the three root choices.
inline std::vector<estimate::Triplet> all_oriented_triplets(int n) {
  LMO_CHECK(n >= 3);
  std::vector<estimate::Triplet> out;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      for (int k = j + 1; k < n; ++k) {
        out.push_back({i, j, k});
        out.push_back({j, i, k});
        out.push_back({k, i, j});
      }
  return out;
}

/// Run `body` on all ranks of `sess` and return the completion time of
/// `timed_rank` (sender-side timing when timed_rank == root, per MPIBlib).
inline SimTime run_timed(vmpi::SimSession& sess, int timed_rank,
                         std::function<vmpi::Task(vmpi::Comm&)> body) {
  LMO_CHECK(timed_rank >= 0 && timed_rank < sess.size());
  SimTime elapsed;
  auto programs = coll::spmd(sess.size(), std::move(body));
  auto timed_body = programs[std::size_t(timed_rank)];
  programs[std::size_t(timed_rank)] =
      [&elapsed, timed_body](vmpi::Comm& c) -> vmpi::Task {
        const SimTime t0 = c.now();
        co_await timed_body(c);
        elapsed = c.now() - t0;
      };
  sess.run(programs);
  return elapsed;
}

}  // namespace lmo::test_support
