// The collective algorithm zoo: generic tree collectives over any
// trees::TreeKind with segmented pipelining, the scatter+ring-allgather
// composite broadcast, and the dispatch that executes a core::TunedDecision.
//
// Segmentation is a pipelined series of the base algorithm over chunks of
// at most `segment` bytes (generalizing split_gather): each rank runs
// round s+1 as soon as its own round-s operations complete, so chunk s+1
// flows down the upper tree while chunk s drains below. A segmented chain
// broadcast is therefore the classic pipelined broadcast. For bcast and
// reduce the segment chunks the message; for scatter and gather it chunks
// the per-rank block.
//
// Every algorithm takes the same `mapping` its core:: predictor prices —
// the tuner/simulation parity contract bench_ext_tuner enforces.
#pragma once

#include "coll/collectives.hpp"
#include "core/tuner.hpp"
#include "trees/shapes.hpp"

namespace lmo::coll {

/// Tree broadcast: recv from parent, forward to children (send order),
/// chunk by chunk.
vmpi::Task tree_bcast(vmpi::Comm& c, trees::TreeKind kind, int root,
                      Bytes bytes, std::vector<int> mapping = {},
                      Bytes segment = 0);

/// Tree scatter: the arc into virtual rank v carries
/// tree_subtree_size(v) * block bytes, store-and-forward.
vmpi::Task tree_scatter(vmpi::Comm& c, trees::TreeKind kind, int root,
                        Bytes block, std::vector<int> mapping = {},
                        Bytes segment = 0);

/// Tree gather: mirror of tree_scatter (children received in
/// tree_recv_order, subtree data forwarded up).
vmpi::Task tree_gather(vmpi::Comm& c, trees::TreeKind kind, int root,
                       Bytes block, std::vector<int> mapping = {},
                       Bytes segment = 0);

/// Tree reduce: gather direction with one combine per received block;
/// every arc carries `bytes` (partial reductions keep the full size).
vmpi::Task tree_reduce(vmpi::Comm& c, trees::TreeKind kind, int root,
                       Bytes bytes, std::vector<int> mapping = {},
                       Bytes segment = 0);

/// Composite broadcast: binomial scatter of ceil(m/n)-byte blocks, then a
/// ring allgather of the same block (van-de-Geijn style — turns the
/// broadcast into bandwidth-balanced point-to-point traffic).
vmpi::Task scatter_allgather_bcast(vmpi::Comm& c, int root, Bytes bytes);

/// Execute one tuner decision exactly as priced: the decision's
/// (algorithm, segment, mapping) triple picks the zoo member. Every
/// AlgorithmId is executable for every CollectiveKind it is offered for.
vmpi::Task run_decision(vmpi::Comm& c, core::TunedDecision d);

}  // namespace lmo::coll
