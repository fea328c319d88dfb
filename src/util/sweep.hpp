// Message-size sweeps and series scoring, shared by the bench harnesses
// and the examples.
#pragma once

#include <vector>

#include "util/bytes.hpp"

namespace lmo {

/// `points` sizes spaced geometrically in [lo, hi]; first is lo, last hi.
[[nodiscard]] std::vector<Bytes> geometric_sizes(Bytes lo, Bytes hi,
                                                 int points);

/// `points` sizes spaced linearly in [lo, hi].
[[nodiscard]] std::vector<Bytes> linear_sizes(Bytes lo, Bytes hi, int points);

/// Mean of |predicted - observed| / observed over a series.
[[nodiscard]] double mean_relative_error(const std::vector<double>& observed,
                                         const std::vector<double>& predicted);

}  // namespace lmo
