#include "mpib/measure_options.hpp"

#include <string>

#include "util/error.hpp"

namespace lmo::mpib {

void MeasureOptions::validate() const {
  LMO_CHECK_MSG(confidence > 0.0 && confidence < 1.0,
                "MeasureOptions.confidence must lie in (0, 1), got " +
                    std::to_string(confidence));
  LMO_CHECK_MSG(rel_err > 0.0,
                "MeasureOptions.rel_err must be positive, got " +
                    std::to_string(rel_err));
  LMO_CHECK_MSG(min_reps >= 2,
                "MeasureOptions.min_reps must be >= 2 (a confidence "
                "interval needs at least two samples), got " +
                    std::to_string(min_reps));
  LMO_CHECK_MSG(max_reps >= min_reps,
                "MeasureOptions.max_reps (" + std::to_string(max_reps) +
                    ") must be >= min_reps (" + std::to_string(min_reps) +
                    ")");
  LMO_CHECK_MSG(jobs >= 0,
                "MeasureOptions.jobs must be >= 0 (0 = auto), got " +
                    std::to_string(jobs));
  fault.validate();
}

}  // namespace lmo::mpib
