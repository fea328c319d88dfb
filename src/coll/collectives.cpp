#include "coll/collectives.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lmo::coll {

using vmpi::Comm;
using vmpi::Task;

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
