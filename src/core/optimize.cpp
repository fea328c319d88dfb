#include "core/optimize.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lmo::core {

ScatterAlgorithm choose_scatter_algorithm_hockney(
    const models::HeteroHockney& h, int root, Bytes m) {
  // Practical Hockney-based selectors (Chan et al. [3], Thakur et al. [15])
  // compare the homogeneous closed forms: (n-1)(a + bM) for the flat tree
  // vs. eq. (3)'s ceil(log2 n) a + (n-1) bM for the binomial tree — the
  // same bM term, so the binomial tree always looks cheaper. That is the
  // misprediction Fig. 6 demonstrates.
  (void)root;
  const models::Hockney avg = h.averaged();
  const int n = h.size();
  const double linear =
      avg.flat_collective(n, m, models::FlatAssumption::kSequential);
  const double binomial = avg.binomial_collective(n, m);
  return linear <= binomial ? ScatterAlgorithm::kLinear
                            : ScatterAlgorithm::kBinomial;
}

SplitGatherPlan plan_optimized_gather(const LmoParams& p,
                                      const GatherEmpirical& emp, int root,
                                      Bytes m) {
  LMO_CHECK(m >= 0);
  SplitGatherPlan plan;
  const GatherPrediction native = linear_gather_time(p, emp, root, m);
  plan.predicted_native = native.expected();
  if (!emp.in_band(m) || emp.m1 <= 0) {
    plan.predicted_split = plan.predicted_native;
    return plan;  // nothing to dodge
  }
  // Chunks of m1 stay in the clean small-message regime.
  const Bytes chunk = emp.m1;
  const int series = int((m + chunk - 1) / chunk);
  double split_time = 0.0;
  Bytes remaining = m;
  for (int s = 0; s < series; ++s) {
    const Bytes piece = std::min(remaining, chunk);
    split_time += linear_gather_time(p, emp, root, piece).expected();
    remaining -= piece;
  }
  plan.predicted_split = split_time;
  if (split_time < plan.predicted_native) {
    plan.split = true;
    plan.chunk = chunk;
    plan.series = series;
  }
  return plan;
}

}  // namespace lmo::core
