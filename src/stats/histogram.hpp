// Mode detection for the empirical part of the LMO model.
//
// Section V: for medium message sizes the LMO model records "the most
// frequent values of escalations and their probability" in the execution
// time of linear gather. We cluster observed escalation magnitudes within a
// tolerance and report the modes with their empirical frequencies.
#pragma once

#include <cstddef>
#include <vector>

namespace lmo::stats {

struct Mode {
  double value = 0.0;      ///< cluster centroid
  std::size_t count = 0;   ///< samples in the cluster
  double frequency = 0.0;  ///< count / total samples
};

/// Greedy 1-d clustering: samples within `tolerance` (relative to the
/// running centroid, absolute units) merge into one mode. Returned sorted
/// by descending count.
[[nodiscard]] std::vector<Mode> find_modes(std::vector<double> samples,
                                           double tolerance);

}  // namespace lmo::stats
