#include "coll/collectives.hpp"

#include <algorithm>

#include "trees/mapping.hpp"
#include "util/error.hpp"

namespace lmo::coll {

using vmpi::Comm;
using vmpi::Task;

namespace {
/// Virtual rank of `rank` in a tree rooted at `root`, given the inverse
/// mapping precomputed once per collective (empty = MPI convention).
int virtual_rank(const std::vector<int>& inverse, int rank, int root, int n) {
  if (inverse.empty()) return (rank - root + n) % n;
  return inverse[std::size_t(rank)];
}
}  // namespace

Task linear_scatter(Comm& c, int root, Bytes block) {
  LMO_CHECK(root >= 0 && root < c.size());
  LMO_CHECK(block >= 0);
  if (c.rank() == root) {
    for (int dst = 0; dst < c.size(); ++dst)
      if (dst != root) co_await c.send(dst, block);
  } else {
    co_await c.recv(root);
  }
}

Task linear_gather(Comm& c, int root, Bytes block) {
  LMO_CHECK(root >= 0 && root < c.size());
  LMO_CHECK(block >= 0);
  if (c.rank() == root) {
    for (int src = 0; src < c.size(); ++src)
      if (src != root) co_await c.recv(src);
  } else {
    co_await c.send(root, block);
  }
}

Task binomial_scatter(Comm& c, int root, Bytes block,
                      std::vector<int> mapping) {
  const int n = c.size();
  LMO_CHECK(root >= 0 && root < n);
  LMO_CHECK(block >= 0);
  const int v =
      virtual_rank(trees::inverse_mapping(mapping, n), c.rank(), root, n);
  if (v != 0) {
    const int parent = trees::map_rank(mapping, trees::binomial_parent(v),
                                       root, n);
    co_await c.recv(parent);
  }
  for (int child_v : trees::binomial_children(v, n)) {
    const Bytes bytes =
        Bytes(trees::binomial_subtree_blocks(child_v, n)) * block;
    co_await c.send(trees::map_rank(mapping, child_v, root, n), bytes);
  }
}

Task split_gather(Comm& c, int root, Bytes block, Bytes chunk) {
  LMO_CHECK(chunk > 0);
  LMO_CHECK(block >= 0);
  Bytes remaining = block;
  while (remaining > 0) {
    const Bytes piece = std::min(remaining, chunk);
    co_await linear_gather(c, root, piece);
    remaining -= piece;
  }
}

Task linear_bcast(Comm& c, int root, Bytes bytes) {
  LMO_CHECK(root >= 0 && root < c.size());
  if (c.rank() == root) {
    for (int dst = 0; dst < c.size(); ++dst)
      if (dst != root) co_await c.send(dst, bytes);
  } else {
    co_await c.recv(root);
  }
}

Task binomial_bcast(Comm& c, int root, Bytes bytes,
                    std::vector<int> mapping) {
  const int n = c.size();
  LMO_CHECK(root >= 0 && root < n);
  const int v =
      virtual_rank(trees::inverse_mapping(mapping, n), c.rank(), root, n);
  if (v != 0)
    co_await c.recv(trees::map_rank(mapping, trees::binomial_parent(v),
                                    root, n));
  for (int child_v : trees::binomial_children(v, n))
    co_await c.send(trees::map_rank(mapping, child_v, root, n), bytes);
}

Task linear_reduce(Comm& c, int root, Bytes bytes) {
  LMO_CHECK(root >= 0 && root < c.size());
  LMO_CHECK(bytes >= 0);
  if (c.rank() == root) {
    for (int src = 0; src < c.size(); ++src) {
      if (src == root) continue;
      co_await c.recv(src);
      co_await c.compute(bytes);  // combine into the accumulator
    }
  } else {
    co_await c.send(root, bytes);
  }
}

Task binomial_reduce(Comm& c, int root, Bytes bytes,
                     std::vector<int> mapping) {
  const int n = c.size();
  LMO_CHECK(root >= 0 && root < n);
  LMO_CHECK(bytes >= 0);
  const int v =
      virtual_rank(trees::inverse_mapping(mapping, n), c.rank(), root, n);
  auto children = trees::binomial_children(v, n);
  std::reverse(children.begin(), children.end());
  for (int child_v : children) {
    co_await c.recv(trees::map_rank(mapping, child_v, root, n));
    co_await c.compute(bytes);
  }
  if (v != 0)
    co_await c.send(trees::map_rank(mapping, trees::binomial_parent(v),
                                    root, n),
                    bytes);
}

Task ring_allgather(Comm& c, Bytes block) {
  const int n = c.size();
  LMO_CHECK(block >= 0);
  if (n == 1) co_return;
  const int right = (c.rank() + 1) % n;
  const int left = (c.rank() - 1 + n) % n;
  // Step s forwards the block originating at rank - s; sizes are uniform so
  // only the count matters. isend first to avoid cyclic blocking.
  for (int step = 0; step < n - 1; ++step) {
    vmpi::Request out = c.isend(right, block);
    co_await c.recv(left);
    co_await c.wait(out);
  }
}

std::vector<vmpi::RankProgram> spmd(int n,
                                    std::function<Task(Comm&)> body) {
  LMO_CHECK(n >= 1);
  std::vector<vmpi::RankProgram> programs;
  programs.reserve(std::size_t(n));
  for (int r = 0; r < n; ++r)
    programs.emplace_back([body](Comm& c) -> Task { co_await body(c); });
  return programs;
}

}  // namespace lmo::coll
