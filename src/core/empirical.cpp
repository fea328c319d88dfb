#include "core/empirical.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lmo::core {

double GatherEmpirical::linear_probability(Bytes m) const {
  if (m <= m1) return 1.0;
  if (m >= m2) return 0.0;  // large messages follow the sum branch instead
  LMO_CHECK(m2 > m1);
  const double w = double(m - m1) / double(m2 - m1);
  return (1.0 - w) * linear_prob_at_m1 + w * linear_prob_at_m2;
}

double GatherEmpirical::expected_escalation(Bytes m) const {
  if (!in_band(m) || escalation_modes.empty()) return 0.0;
  double mean = 0.0, total_freq = 0.0;
  for (const auto& mode : escalation_modes) {
    mean += mode.value * mode.frequency;
    total_freq += mode.frequency;
  }
  if (total_freq > 0) mean /= total_freq;
  return (1.0 - linear_probability(m)) * mean;
}

double GatherEmpirical::max_escalation() const {
  double mx = 0.0;
  for (const auto& mode : escalation_modes) mx = std::max(mx, mode.value);
  return mx;
}

}  // namespace lmo::core
