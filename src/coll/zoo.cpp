#include "coll/zoo.hpp"

#include <algorithm>

#include "trees/mapping.hpp"
#include "util/error.hpp"

namespace lmo::coll {

using trees::TreeKind;
using vmpi::Comm;
using vmpi::Task;

namespace {
/// Pipelined series chunks: the same split core::chunk-based predictors
/// price (one full-size chunk when segment is 0 or >= total).
std::vector<Bytes> chunk_list(Bytes total, Bytes segment) {
  if (total <= 0 || segment <= 0 || segment >= total)
    return {total > 0 ? total : 0};
  std::vector<Bytes> chunks;
  for (Bytes remaining = total; remaining > 0;) {
    const Bytes piece = std::min(remaining, segment);
    chunks.push_back(piece);
    remaining -= piece;
  }
  return chunks;
}

int resolve_virtual(const std::vector<int>& mapping, int rank, int root,
                    int n) {
  const std::vector<int> inverse = trees::inverse_mapping(mapping, n);
  return inverse.empty() ? (rank - root + n) % n : inverse[std::size_t(rank)];
}
}  // namespace

Task tree_bcast(Comm& c, TreeKind kind, int root, Bytes bytes,
                std::vector<int> mapping, Bytes segment) {
  const int n = c.size();
  LMO_CHECK(root >= 0 && root < n);
  LMO_CHECK(bytes >= 0);
  const int v = resolve_virtual(mapping, c.rank(), root, n);
  const int parent =
      v == 0 ? -1 : trees::map_rank(mapping, trees::tree_parent(kind, v),
                                    root, n);
  const auto kids = trees::tree_children(kind, v, n);
  for (const Bytes chunk : chunk_list(bytes, segment)) {
    if (v != 0) co_await c.recv(parent);
    for (const int child : kids)
      co_await c.send(trees::map_rank(mapping, child, root, n), chunk);
  }
}

Task tree_scatter(Comm& c, TreeKind kind, int root, Bytes block,
                  std::vector<int> mapping, Bytes segment) {
  const int n = c.size();
  LMO_CHECK(root >= 0 && root < n);
  LMO_CHECK(block >= 0);
  const int v = resolve_virtual(mapping, c.rank(), root, n);
  const int parent =
      v == 0 ? -1 : trees::map_rank(mapping, trees::tree_parent(kind, v),
                                    root, n);
  const auto kids = trees::tree_children(kind, v, n);
  for (const Bytes chunk : chunk_list(block, segment)) {
    if (v != 0) co_await c.recv(parent);
    for (const int child : kids) {
      const Bytes arc =
          Bytes(trees::tree_subtree_size(kind, child, n)) * chunk;
      co_await c.send(trees::map_rank(mapping, child, root, n), arc);
    }
  }
}

Task tree_gather(Comm& c, TreeKind kind, int root, Bytes block,
                 std::vector<int> mapping, Bytes segment) {
  const int n = c.size();
  LMO_CHECK(root >= 0 && root < n);
  LMO_CHECK(block >= 0);
  const int v = resolve_virtual(mapping, c.rank(), root, n);
  const int parent =
      v == 0 ? -1 : trees::map_rank(mapping, trees::tree_parent(kind, v),
                                    root, n);
  const auto order = trees::tree_recv_order(kind, v, n);
  const Bytes subtree = Bytes(trees::tree_subtree_size(kind, v, n));
  for (const Bytes chunk : chunk_list(block, segment)) {
    for (const int child : order)
      co_await c.recv(trees::map_rank(mapping, child, root, n));
    if (v != 0) co_await c.send(parent, subtree * chunk);
  }
}

Task tree_reduce(Comm& c, TreeKind kind, int root, Bytes bytes,
                 std::vector<int> mapping, Bytes segment) {
  const int n = c.size();
  LMO_CHECK(root >= 0 && root < n);
  LMO_CHECK(bytes >= 0);
  const int v = resolve_virtual(mapping, c.rank(), root, n);
  const int parent =
      v == 0 ? -1 : trees::map_rank(mapping, trees::tree_parent(kind, v),
                                    root, n);
  const auto order = trees::tree_recv_order(kind, v, n);
  for (const Bytes chunk : chunk_list(bytes, segment)) {
    for (const int child : order) {
      co_await c.recv(trees::map_rank(mapping, child, root, n));
      co_await c.compute(chunk);  // combine into the accumulator
    }
    if (v != 0) co_await c.send(parent, chunk);
  }
}

Task scatter_allgather_bcast(Comm& c, int root, Bytes bytes) {
  const int n = c.size();
  LMO_CHECK(root >= 0 && root < n);
  LMO_CHECK(bytes >= 0);
  if (n == 1) co_return;
  const Bytes block = (bytes + n - 1) / n;
  co_await tree_scatter(c, TreeKind::kBinomial, root, block);
  co_await ring_allgather(c, block);
}

Task run_decision(Comm& c, core::TunedDecision d) {
  using core::AlgorithmId;
  using core::CollectiveKind;
  TreeKind shape = TreeKind::kFlat;
  switch (d.algorithm) {
    case AlgorithmId::kLinear:
      shape = TreeKind::kFlat;
      break;
    case AlgorithmId::kBinomial:
      shape = TreeKind::kBinomial;
      break;
    case AlgorithmId::kChain:
      shape = TreeKind::kChain;
      break;
    case AlgorithmId::kBinaryTree:
      shape = TreeKind::kBinary;
      break;
    case AlgorithmId::kScatterAllgather:
      LMO_CHECK_MSG(d.kind == CollectiveKind::kBcast,
                    "scatter+allgather is a broadcast algorithm");
      co_await scatter_allgather_bcast(c, d.root, d.message);
      co_return;
  }
  switch (d.kind) {
    case CollectiveKind::kScatter:
      co_await tree_scatter(c, shape, d.root, d.message, d.mapping, d.segment);
      break;
    case CollectiveKind::kGather:
      co_await tree_gather(c, shape, d.root, d.message, d.mapping, d.segment);
      break;
    case CollectiveKind::kBcast:
      co_await tree_bcast(c, shape, d.root, d.message, d.mapping, d.segment);
      break;
    case CollectiveKind::kReduce:
      co_await tree_reduce(c, shape, d.root, d.message, d.mapping, d.segment);
      break;
  }
}

}  // namespace lmo::coll
