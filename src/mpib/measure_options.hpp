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
  /// without fault injection.
  sim::FaultSpec fault;

  /// Recovery policy, inert when no fault is enabled.
  /// A repetition slower than `timeout_factor` times the round's own robust
  /// location estimate (median of the finite samples — the stand-in for "the
  /// model's own prediction" while no fitted model exists yet) is classified
  /// as timed out; the timeout never falls below `timeout_floor_s`.
  double timeout_factor = 8.0;
  double timeout_floor_s = 1e-3;
  /// Timed-out/dropped repetitions are retried in bounded deterministic
  /// waves, dropped single observations up to max_retries times; each
  /// wave or retry adds `retry_backoff_s` of (simulated) cost.
  int max_retries = 2;
  double retry_backoff_s = 0.05;
  /// MAD-based outlier trimming: finite samples farther than `mad_cutoff`
  /// scaled deviations from the median are excluded from the committed mean.
  double mad_cutoff = 6.0;

  /// Throws lmo::Error on nonsensical settings: confidence outside (0, 1),
  /// non-positive rel_err, min_reps < 2 (no CI from one sample),
  /// max_reps < min_reps, negative jobs (0 means auto), an invalid fault
  /// spec, or a nonsensical recovery policy. SimExperimenter calls it on
  /// construction, so bad options fail loudly instead of silently
  /// misbehaving mid-estimation.
  void validate() const;
};

}  // namespace lmo::mpib
