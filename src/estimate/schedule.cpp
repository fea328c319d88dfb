#include "estimate/schedule.hpp"

#include "util/error.hpp"

namespace lmo::estimate {

std::vector<Pair> all_pairs(int n) {
  LMO_CHECK(n >= 2);
  std::vector<Pair> out;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j) out.emplace_back(i, j);
  return out;
}

}  // namespace lmo::estimate
