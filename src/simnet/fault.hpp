// Deterministic fault injection for the measurement pipeline.
//
// Real switched-Ethernet campaigns (Section IV of the paper, CommBench,
// bbThemis) are not Gaussian: they contain heavy-tailed latency spikes,
// experiments whose result never arrives, experiments that "hang" and
// complete only after a huge delay, and whole-node slowdown episodes
// (cron jobs, page cache pressure). A FaultSpec describes those failure
// shapes; the estimation layer injects them into measured experiment
// durations and must recover (see estimate::SimExperimenter).
//
// Determinism contract: every fault decision is a pure function of
// (spec.seed, round, repetition, slot | node) through SplitMix64 chaining —
// exactly like the per-session noise seeding — so serial and --jobs N runs
// inject identical faults and produce bit-identical estimates. With every
// rate at zero the injector is inert and the measurement pipeline is
// bit-identical to a build without it.
#pragma once

#include <cstdint>
#include <vector>

#include "util/cli.hpp"

namespace lmo::sim {

struct FaultSpec {
  /// Per-(round, rep, slot) probability of a heavy-tailed latency spike
  /// added to the measured duration.
  double spike_rate = 0.0;
  /// Pareto scale [s] of the spike magnitude (shape 1.5: heavy-tailed,
  /// occasional spikes dwarf the mean).
  double spike_scale_s = 0.02;

  /// Per-(round, rep, slot) probability that the result never arrives.
  double drop_rate = 0.0;

  /// Per-(round, rep, slot) probability that the result arrives only after
  /// `hang_delay_s` — far beyond any sane per-experiment timeout.
  double hang_rate = 0.0;
  double hang_delay_s = 30.0;

  /// Per-(round, rep, node) probability of a slowdown episode: every
  /// experiment touching the node during that repetition runs
  /// `slow_factor` times slower.
  double slow_rate = 0.0;
  double slow_factor = 4.0;

  /// Seed of the fault stream, decorrelated from the cluster noise seed.
  std::uint64_t seed = 1;

  /// True if any fault can ever fire. When false the injector must be a
  /// strict no-op (the bit-identical baseline).
  [[nodiscard]] bool enabled() const;

  /// Throws lmo::Error on nonsensical settings: rates outside [0, 1],
  /// non-positive magnitudes/factors.
  void validate() const;
};

/// What the injector did to one measured experiment duration.
struct FaultOutcome {
  double seconds = 0.0;  ///< transformed duration (+inf when dropped)
  bool spiked = false;
  bool dropped = false;
  bool hung = false;
  bool slowed = false;
};

/// Pure per-(round, rep, node) slowdown-episode decision.
[[nodiscard]] bool slow_episode(const FaultSpec& spec, std::uint64_t round,
                                std::uint64_t rep, int node);

/// Transform one measured duration. `slow_scale` is the multiplicative
/// slowdown already derived from the slot's participants (1.0 = none);
/// spike/drop/hang decisions draw from (spec.seed, round, rep, slot).
/// Dropped results are +infinity: they never arrive, and only the recovery
/// layer's timeout may classify them.
[[nodiscard]] FaultOutcome inject_fault(const FaultSpec& spec,
                                        std::uint64_t round,
                                        std::uint64_t rep, std::uint64_t slot,
                                        double measured_s, double slow_scale);

/// The multiplicative slowdown for an experiment occupying `participants`
/// during repetition (round, rep): spec.slow_factor if any participant is
/// in an episode, else 1.0.
[[nodiscard]] double slow_scale_for(const FaultSpec& spec, std::uint64_t round,
                                    std::uint64_t rep,
                                    const std::vector<int>& participants);

/// The --fault-* option names (for Cli known-option lists).
[[nodiscard]] const std::vector<std::string>& fault_cli_options();

/// Build a FaultSpec from --fault-spike-rate, --fault-drop-rate,
/// --fault-hang-rate, --fault-slow-rate, --fault-spike-scale,
/// --fault-hang-delay, --fault-slow-factor, --fault-seed. Validates.
[[nodiscard]] FaultSpec fault_spec_from_cli(const Cli& cli);

}  // namespace lmo::sim
