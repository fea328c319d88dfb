// Empirical parameters of the LMO model (paper Sections III and V).
//
// The analytical point-to-point parameters cannot express TCP-layer
// irregularities of collectives on switched clusters; LMO therefore adds
// per-platform empirical parameters found from observations:
//  * M1, M2: the linear-gather thresholds of eq. (5) — below M1 the max
//    (parallel) branch holds, above M2 the sum (serialized) branch;
//  * the most frequent escalation magnitudes in (M1, M2) with their
//    empirical frequencies, and the probability that an observation still
//    fits the linear (small-message) model, decreasing with size;
//  * the scatter leap threshold and magnitude (Fig. 4) — fitted and
//    printed by bench_fig4, but added to no prediction: the paper's final
//    model omits the leap for simplicity.
#pragma once

#include <vector>

#include "stats/histogram.hpp"
#include "util/bytes.hpp"

namespace lmo::core {

struct GatherEmpirical {
  Bytes m1 = 0;  ///< upper bound of the clean small-message regime
  Bytes m2 = 0;  ///< lower bound of the clean large-message regime

  /// Most frequent escalation magnitudes [s] with frequencies, largest
  /// cluster first (only meaningful inside (m1, m2)).
  std::vector<stats::Mode> escalation_modes;

  /// Probability that a medium-size gather fits the linear model at m1 and
  /// at m2; interpolated linearly in between.
  double linear_prob_at_m1 = 1.0;
  double linear_prob_at_m2 = 1.0;

  [[nodiscard]] bool in_band(Bytes m) const { return m > m1 && m < m2; }

  /// P(observation fits the linear small-message model) at size m.
  [[nodiscard]] double linear_probability(Bytes m) const;

  /// Expected escalation delay per gather at size m: (1 - linear
  /// probability) times the frequency-weighted mean escalation magnitude.
  [[nodiscard]] double expected_escalation(Bytes m) const;

  /// Largest escalation magnitude seen (0.25 s in the paper).
  [[nodiscard]] double max_escalation() const;
};

struct ScatterEmpirical {
  Bytes leap_threshold = 0;  ///< message size at which the leap appears
  double leap_s = 0.0;       ///< magnitude of one leap for the collective
  bool detected = false;
};

}  // namespace lmo::core
