// MPIBlib-style measurement settings (paper ref [12]).
//
// A communication experiment is repeated until the Student-t confidence
// interval of the mean shrinks below rel_err * mean at the requested
// confidence level (the paper uses 95% / 2.5%), within [min_reps,
// max_reps]. estimate::SimExperimenter is the one implementation of that
// repetition; these options configure it.
#pragma once

#include "simnet/fault.hpp"

namespace lmo::mpib {

struct MeasureOptions {
  double confidence = 0.95;
  double rel_err = 0.025;
  int min_reps = 5;
  int max_reps = 100;
  /// Worker threads for session-isolated repetition (see
  /// util/parallel.hpp). 0 = the process default (util::default_jobs(),
  /// i.e. --jobs / hardware concurrency). Results are bit-identical for
  /// every value — only wall-clock changes.
  int jobs = 0;

  /// Deterministic fault injection applied to measured experiment
  /// durations. All rates default to 0 — disabled — and recovery then
  /// keeps every sample, so measurements are bit-identical to a build
  /// without fault injection. The recovery policy's constants live in
  /// estimate/experimenter.cpp.
  sim::FaultSpec fault;

  /// Throws lmo::Error on nonsensical settings: confidence outside (0, 1),
  /// non-positive rel_err, min_reps < 2 (no CI from one sample),
  /// max_reps < min_reps, negative jobs (0 means auto) or an invalid fault
  /// spec. SimExperimenter calls it on
  /// construction, so bad options fail loudly instead of silently
  /// misbehaving mid-estimation.
  void validate() const;
};

}  // namespace lmo::mpib
