#include "simnet/fault.hpp"

#include <cmath>
#include <limits>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace lmo::sim {
namespace {

// Stream salts keeping slot-level and node-level decisions decorrelated
// even when a slot index happens to equal a node rank.
constexpr std::uint64_t kSlotStream = 0x5107f4a7c15e9e37ULL;
constexpr std::uint64_t kNodeStream = 0x0de5107f4a7c15e9ULL;

/// Pareto shape of the spike magnitude.
constexpr double kSpikeShape = 1.5;

void check_rate(double rate, const char* name) {
  LMO_CHECK_MSG(rate >= 0.0 && rate <= 1.0,
                std::string("fault ") + name + " must lie in [0, 1], got " +
                    std::to_string(rate));
}

}  // namespace

bool FaultSpec::enabled() const {
  return spike_rate > 0.0 || drop_rate > 0.0 || hang_rate > 0.0 ||
         slow_rate > 0.0;
}

void FaultSpec::validate() const {
  check_rate(spike_rate, "spike_rate");
  check_rate(drop_rate, "drop_rate");
  check_rate(hang_rate, "hang_rate");
  check_rate(slow_rate, "slow_rate");
  LMO_CHECK_MSG(spike_scale_s > 0.0, "fault spike_scale_s must be positive");
  LMO_CHECK_MSG(hang_delay_s > 0.0, "fault hang_delay_s must be positive");
  LMO_CHECK_MSG(slow_factor >= 1.0, "fault slow_factor must be >= 1");
}

bool slow_episode(const FaultSpec& spec, std::uint64_t round, std::uint64_t rep,
                  int node) {
  if (spec.slow_rate <= 0.0) return false;
  Rng rng(derive_seed(derive_seed(spec.seed, round, rep), kNodeStream,
                      static_cast<std::uint64_t>(node)));
  return rng.chance(spec.slow_rate);
}

double slow_scale_for(const FaultSpec& spec, std::uint64_t round,
                      std::uint64_t rep, const std::vector<int>& participants) {
  if (spec.slow_rate <= 0.0) return 1.0;
  for (int node : participants) {
    if (slow_episode(spec, round, rep, node)) return spec.slow_factor;
  }
  return 1.0;
}

FaultOutcome inject_fault(const FaultSpec& spec, std::uint64_t round,
                          std::uint64_t rep, std::uint64_t slot,
                          double measured_s, double slow_scale) {
  FaultOutcome out;
  out.slowed = slow_scale > 1.0;
  out.seconds = measured_s * slow_scale;
  if (!spec.enabled()) return out;
  // One decorrelated stream per (round, rep, slot); every decision draws
  // unconditionally so the outcome of one fault class never perturbs the
  // stream position of the next.
  Rng rng(derive_seed(derive_seed(spec.seed, round, rep), kSlotStream, slot));
  const bool drop = rng.chance(spec.drop_rate);
  const bool hang = rng.chance(spec.hang_rate);
  const bool spike = rng.chance(spec.spike_rate);
  const double u = rng.uniform();
  if (drop) {
    out.dropped = true;
    out.seconds = std::numeric_limits<double>::infinity();
    return out;
  }
  if (hang) {
    out.hung = true;
    out.seconds += spec.hang_delay_s;
    return out;
  }
  if (spike) {
    out.spiked = true;
    // Pareto(scale, shape) via inverse CDF; shape <= 2 keeps the tail heavy
    // enough that untrimmed means are visibly poisoned.
    out.seconds +=
        spec.spike_scale_s * std::pow(1.0 - u, -1.0 / kSpikeShape);
  }
  return out;
}

const std::vector<std::string>& fault_cli_options() {
  static const std::vector<std::string> kOptions = {
      "fault-spike-rate", "fault-drop-rate",  "fault-hang-rate",
      "fault-slow-rate",  "fault-spike-scale", "fault-hang-delay",
      "fault-slow-factor", "fault-seed"};
  return kOptions;
}

FaultSpec fault_spec_from_cli(const Cli& cli) {
  FaultSpec spec;
  spec.spike_rate = cli.get_double("fault-spike-rate", spec.spike_rate);
  spec.drop_rate = cli.get_double("fault-drop-rate", spec.drop_rate);
  spec.hang_rate = cli.get_double("fault-hang-rate", spec.hang_rate);
  spec.slow_rate = cli.get_double("fault-slow-rate", spec.slow_rate);
  spec.spike_scale_s = cli.get_double("fault-spike-scale", spec.spike_scale_s);
  spec.hang_delay_s = cli.get_double("fault-hang-delay", spec.hang_delay_s);
  spec.slow_factor = cli.get_double("fault-slow-factor", spec.slow_factor);
  spec.seed = static_cast<std::uint64_t>(
      cli.get_int("fault-seed", static_cast<std::int64_t>(spec.seed)));
  spec.validate();
  return spec;
}

}  // namespace lmo::sim
