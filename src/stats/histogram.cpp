#include "stats/histogram.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lmo::stats {

std::vector<Mode> find_modes(std::vector<double> samples, double tolerance) {
  LMO_CHECK(tolerance > 0);
  std::sort(samples.begin(), samples.end());
  std::vector<Mode> modes;
  std::size_t i = 0;
  while (i < samples.size()) {
    double sum = samples[i];
    std::size_t count = 1;
    std::size_t j = i + 1;
    while (j < samples.size() && samples[j] - sum / double(count) <= tolerance) {
      sum += samples[j];
      ++count;
      ++j;
    }
    modes.push_back({sum / double(count), count, 0.0});
    i = j;
  }
  for (auto& m : modes) m.frequency = double(m.count) / double(samples.size());
  std::sort(modes.begin(), modes.end(),
            [](const Mode& a, const Mode& b) { return a.count > b.count; });
  return modes;
}

}  // namespace lmo::stats
