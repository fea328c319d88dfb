// Collective communication algorithms over the vmpi layer.
//
// Every algorithm is a coroutine executed SPMD-style: each participating
// rank co_awaits the same function with the same arguments (like an MPI
// collective call). Message *sizes* follow the paper:
//  * scatter/gather move one `block` per non-root processor; a binomial
//    arc carries subtree_blocks * block bytes,
//  * the "native" linear algorithms mirror what LAM/MPICH run for these
//    operations (rank-ordered flat tree), which is where the paper's
//    irregularities live,
//  * split_gather is the paper's Fig. 7 optimization: a series of gathers
//    with chunks small enough to stay out of the escalation band.
#pragma once

#include "trees/binomial.hpp"
#include "util/bytes.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/task.hpp"
#include "vmpi/session.hpp"

namespace lmo::coll {

/// Flat-tree scatter: the root sends one block to every other rank in rank
/// order (the paper's "linear scatter").
vmpi::Task linear_scatter(vmpi::Comm& c, int root, Bytes block);

/// Flat-tree gather: the root receives one block from every other rank in
/// rank order (the paper's "linear gather"). With rendezvous-size blocks
/// the whole chain serializes — eq. (5)'s M > M2 branch.
vmpi::Task linear_gather(vmpi::Comm& c, int root, Bytes block);

/// Binomial-tree scatter (paper Fig. 2), largest subtree first. `mapping`
/// assigns physical ranks to virtual tree nodes; empty = MPI default
/// (v + root) mod n.
vmpi::Task binomial_scatter(vmpi::Comm& c, int root, Bytes block,
                            std::vector<int> mapping = {});

/// Fig. 7 optimized gather: split `block` into chunks of at most
/// `chunk` bytes and run a series of linear gathers, dodging the
/// escalation band.
vmpi::Task split_gather(vmpi::Comm& c, int root, Bytes block, Bytes chunk);

/// Flat-tree broadcast (same message to everyone) — extension beyond the
/// paper's scatter/gather focus.
vmpi::Task linear_bcast(vmpi::Comm& c, int root, Bytes bytes);

/// Binomial-tree broadcast. `mapping` assigns physical ranks to virtual
/// tree nodes (e.g. trees::hierarchy_mapping to keep late subtrees
/// intra-node); empty = MPI default (v + root) mod n.
vmpi::Task binomial_bcast(vmpi::Comm& c, int root, Bytes bytes,
                          std::vector<int> mapping = {});

/// Flat-tree reduce: the root receives one block per rank and combines it
/// (a compute() of the block size per message).
vmpi::Task linear_reduce(vmpi::Comm& c, int root, Bytes bytes);

/// Binomial-tree reduce (reverse broadcast with a combine at each parent).
/// `mapping` assigns physical ranks to virtual tree nodes — the same
/// parameter core::Tuner prices a binomial reduce under, so a tuner's
/// mapping-optimized reduce decision is executable.
vmpi::Task binomial_reduce(vmpi::Comm& c, int root, Bytes bytes,
                           std::vector<int> mapping = {});

/// Ring allgather: n-1 steps, each rank forwards the next block around the
/// ring (isend to the right, recv from the left).
vmpi::Task ring_allgather(vmpi::Comm& c, Bytes block);

/// Wrap one SPMD body into a full program vector (all ranks participate).
[[nodiscard]] std::vector<vmpi::RankProgram> spmd(
    int n, std::function<vmpi::Task(vmpi::Comm&)> body);

}  // namespace lmo::coll
