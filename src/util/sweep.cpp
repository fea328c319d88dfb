#include "util/sweep.hpp"

#include <cmath>

#include "util/error.hpp"

namespace lmo {

std::vector<Bytes> geometric_sizes(Bytes lo, Bytes hi, int points) {
  LMO_CHECK(lo > 0 && hi > lo && points >= 2);
  std::vector<Bytes> sizes;
  const double ratio =
      std::pow(double(hi) / double(lo), 1.0 / double(points - 1));
  double v = double(lo);
  for (int s = 0; s < points; ++s) {
    sizes.push_back(Bytes(std::llround(v)));
    v *= ratio;
  }
  sizes.back() = hi;
  return sizes;
}

std::vector<Bytes> linear_sizes(Bytes lo, Bytes hi, int points) {
  LMO_CHECK(hi > lo && points >= 2);
  std::vector<Bytes> sizes;
  for (int s = 0; s < points; ++s)
    sizes.push_back(lo + (hi - lo) * Bytes(s) / Bytes(points - 1));
  return sizes;
}

double mean_relative_error(const std::vector<double>& observed,
                           const std::vector<double>& predicted) {
  LMO_CHECK(observed.size() == predicted.size());
  LMO_CHECK(!observed.empty());
  double total = 0;
  for (std::size_t s = 0; s < observed.size(); ++s)
    total += std::fabs(predicted[s] - observed[s]) / observed[s];
  return total / double(observed.size());
}

}  // namespace lmo
