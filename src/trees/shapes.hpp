// Generic communication-tree shapes for the collective algorithm zoo.
//
// Every shape is defined over *virtual* ranks 0..n-1 with virtual rank 0
// at the root, exactly like trees/binomial.hpp: a mapping vector (or the
// MPI (v + root) mod n convention) assigns physical processors to virtual
// nodes. The four shapes cover the classic intra-cluster algorithm space
// (Barchet-Estefanel & Mounié, "Fast Tuning of Intra-Cluster Collective
// Communications"):
//  * kFlat     — the root talks to everyone directly (linear algorithms);
//  * kChain    — a pipeline 0 -> 1 -> ... -> n-1 (with segmentation, the
//                classic pipelined broadcast);
//  * kBinary   — a complete binary tree in heap order (children 2v+1,
//                2v+2): depth log2 n with bounded fan-out 2;
//  * kBinomial — the paper's Fig. 2 recursion (trees/binomial.hpp).
//
// For all shapes, parents numerically precede their children, so virtual
// rank order is a topological order — schedule evaluators can walk
// 0..n-1 (down the tree) or n-1..0 (up).
#pragma once

#include <vector>

namespace lmo::trees {

enum class TreeKind { kFlat, kChain, kBinary, kBinomial };

/// Virtual parent of virtual rank v (v > 0).
[[nodiscard]] int tree_parent(TreeKind kind, int v);

/// Children of virtual rank v in send order — largest subtree first, the
/// order every store-and-forward collective issues its sends.
[[nodiscard]] std::vector<int> tree_children(TreeKind kind, int v, int n);

/// Receive order of v's children: the reverse of the send order (smallest
/// subtree first, so the largest has the most time to accumulate), except
/// kFlat where the paper's linear algorithms fix rank order.
[[nodiscard]] std::vector<int> tree_recv_order(TreeKind kind, int v, int n);

/// Number of virtual ranks in the subtree rooted at v (the blocks a
/// scatter pushes across the arc into v, including v's own block).
[[nodiscard]] int tree_subtree_size(TreeKind kind, int v, int n);

}  // namespace lmo::trees
