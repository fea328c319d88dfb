// The switched-network fabric: resource accounting for message transfers.
//
// Resources modelled per node: NIC egress wire and NIC ingress wire (both
// FIFO Timelines). The switch adds fixed forwarding latency but no
// contention between disjoint port pairs — the single-switch property the
// paper's parallel-experiment optimization relies on. CPU processing costs
// are computed here too (they belong to the node, not to a Timeline: rank
// programs are sequential, so program order already serializes them).
//
// With a hierarchical ClusterConfig::topology, a transfer walks the LCA
// path: per-level forwarding latencies and bandwidth caps fold into
// latency/rate via the config, and every *contended* switch on the path
// (memory bus, oversubscribed uplink) additionally serializes the transfer
// on a shared per-group Timeline. A topology with no contended levels —
// including the degenerate single-switch tree — reserves nothing extra and
// produces bit-identical event streams to the flat configuration.
//
// TCP-layer quirks (Section III/V of the paper):
//  * fragmentation leap on pipelined bulk sends,
//  * non-deterministic escalations for many-to-one eager messages in the
//    (M1, M2] band,
//  * eager vs. rendezvous protocol switch at M2.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/cluster.hpp"
#include "simnet/timeline.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace lmo::sim {

struct WireTiming {
  SimTime egress_start;  ///< first byte leaves the sender NIC
  SimTime egress_end;    ///< last byte has left the sender NIC
  SimTime arrival;       ///< last byte received (incl. escalation delay)
  SimTime escalation;    ///< escalation component of `arrival` (zero if none)
};

class Fabric {
 public:
  /// `cfg` must outlive the fabric. Node noise RNGs seed from `seed`
  /// rather than cfg.seed — how session-isolated simulations get
  /// decorrelated noise streams from one shared cluster description.
  Fabric(const ClusterConfig& cfg, std::uint64_t seed);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] const ClusterConfig& config() const { return *cfg_; }
  [[nodiscard]] int size() const { return cfg_->size(); }

  /// CPU time to prepare and hand one n-byte message to the stack:
  /// C_src + n * t_src, plus the fragmentation leap when the send is
  /// pipelined behind other traffic (`pipelined`), with noise.
  [[nodiscard]] SimTime send_cpu_cost(int src, Bytes n, bool pipelined);

  /// CPU time to process one received n-byte message: C_dst + n * t_dst,
  /// with noise.
  [[nodiscard]] SimTime recv_cpu_cost(int dst, Bytes n);

  /// Reserve egress/ingress for an n-byte transfer ready at `ready`;
  /// applies the escalation quirk, which needs other traffic still
  /// converging on dst (`converging`; the caller knows the message order).
  /// Zero-byte messages still occupy the wire for one minimal frame.
  WireTiming transfer(int src, int dst, Bytes n, SimTime ready,
                      bool converging);

  /// True if the protocol switches to rendezvous for this size.
  [[nodiscard]] bool use_rendezvous(Bytes n) const;

  /// One-way network latency L_ij as SimTime.
  [[nodiscard]] SimTime wire_latency(int src, int dst) const;

  /// True if src's egress wire is still draining at `t` (a send issued now
  /// would be pipelined behind earlier traffic).
  [[nodiscard]] bool egress_busy(int src, SimTime t) const;

  /// How long an eager blocking send may return before its transmission
  /// completes: as long as the backlog fits the socket send buffer.
  [[nodiscard]] SimTime send_buffer_time(int src, int dst) const;

  /// Reset wire timelines between measurement runs.
  /// RNG state is preserved so repeated runs see fresh noise.
  void reset_timelines();

  /// Return to the state of a fabric freshly constructed with `seed`:
  /// node RNGs re-split from it, counters zeroed, timelines reset. Keeps
  /// every buffer, so a reused fabric costs O(ranks) instead of a
  /// re-validated rebuild.
  void reseed(std::uint64_t seed);

  struct Counters {
    std::uint64_t transfers = 0;
    std::uint64_t escalations = 0;
    std::uint64_t leaps = 0;
    std::uint64_t bytes = 0;  ///< frame bytes on the wire (min-frame padded)
  };
  [[nodiscard]] const Counters& counters() const { return counters_; }

 private:
  [[nodiscard]] SimTime noised(double seconds, Rng& rng);
  [[nodiscard]] double escalation_seconds(int dst, Bytes n, bool converging);
  /// L_ij / beta_ij priced from the SoA arrays + the topology's per-level
  /// caches; bit-identical to ClusterConfig::latency()/rate().
  [[nodiscard]] double pair_latency(int src, int dst) const;
  [[nodiscard]] double pair_rate(int src, int dst) const;

  const ClusterConfig* cfg_;
  // SoA copies of the per-rank hot scalars, indexed by rank: transfer
  // pricing walks flat contiguous arrays instead of chasing NodeParams
  // structs (strings and all) — the difference that keeps the per-event
  // cost flat at 4096 ranks.
  std::vector<double> fixed_delay_;
  std::vector<double> per_byte_;
  std::vector<double> link_rate_;
  std::vector<double> node_latency_;
  std::vector<Timeline> egress_;
  std::vector<Timeline> ingress_;
  /// shared_[l-1][g]: serialization Timeline of group g at contended level
  /// l. Empty (never touched) for non-contended levels and flat configs.
  std::vector<std::vector<Timeline>> shared_;
  std::vector<Rng> node_rng_;
  Counters counters_;
};

}  // namespace lmo::sim
