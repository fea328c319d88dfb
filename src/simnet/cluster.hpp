// Cluster configuration: the ground truth the simulator runs on.
//
// Each node carries the four physically distinct contributions the paper's
// extended LMO model separates: a fixed per-message processing delay (C_i),
// a per-byte processing delay (t_i), a NIC line rate, and a propagation
// latency to the switch. Pairwise LMO ground truth derives from these:
//
//   L_ij     = latency_i + switch_latency + latency_j
//   beta_ij  = min(rate_i, rate_j)             (single switch => symmetric)
//
// TcpQuirks configures the TCP-layer irregularities the paper observes on
// switched Ethernet clusters (Section III and V).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/topology.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace lmo::sim {

struct NodeParams {
  std::string label;           ///< e.g. "Dell Poweredge 750 / 3.4 Xeon"
  int type = 0;                ///< node type id (Table I rows)
  double fixed_delay_s = 0.0;  ///< C_i: per-message processing delay [s]
  double per_byte_s = 0.0;     ///< t_i: per-byte processing delay [s/B]
  double link_rate_bps = 0.0;  ///< NIC line rate [bytes/s]
  double latency_s = 0.0;      ///< propagation to the switch [s]
};

[[nodiscard]] bool operator==(const NodeParams& a, const NodeParams& b);

/// A named parameter class shared by many ranks. At 4096 ranks a cluster
/// has a handful of machine models, not 4096 distinct nodes: the profile
/// table plus a per-rank profile index is the compact description config
/// v2 serializes, while `ClusterConfig::nodes` stays the materialized
/// per-rank view every hot path indexes by rank.
struct NodeProfile {
  std::string name;   ///< short key, e.g. "core" or the Table-I model name
  NodeParams params;  ///< parameters every member rank starts from
};

/// TCP-layer irregularities injected by the fabric.
struct TcpQuirks {
  bool enabled = true;

  /// Rendezvous threshold: messages strictly larger switch from eager to
  /// rendezvous protocol. This is the physical origin of the paper's M2
  /// (65 KB for LAM 7.1.3, 125 KB for MPICH 1.2.7).
  Bytes rendezvous_threshold = 64 * 1024;

  /// Escalation band: many-to-one eager messages with size in
  /// (escalation_min, rendezvous_threshold] may suffer non-deterministic
  /// delayed-ACK/retransmit escalations (the paper's M1..M2 band).
  Bytes escalation_min = 4 * 1024;
  /// Per-message escalation probability at the top of the band. TCP incast
  /// hits almost the whole band once message bursts exceed the switch
  /// buffers, so the probability ramps only mildly: from 40% of the peak
  /// just above escalation_min to the full peak at the rendezvous
  /// threshold.
  double escalation_peak_prob = 0.12;
  /// The discrete escalation magnitudes (retransmission timer quanta) and
  /// their relative weights. Paper: escalations reach 0.25 s.
  std::vector<double> escalation_values_s = {0.05, 0.10, 0.20, 0.25};
  std::vector<double> escalation_weights = {0.45, 0.30, 0.15, 0.10};

  /// Fragmentation leap: a pipelined (back-to-back) send pays this extra
  /// delay once per full `frag_threshold` contained in the message — the
  /// repeated leaps of Fig. 4 that "converge to the line with the same
  /// slope".
  Bytes frag_threshold = 64 * 1024;
  double frag_leap_s = 0.0008;

  /// Socket send-buffer: a blocking eager send returns early (buffered) as
  /// long as the NIC backlog is below this many bytes.
  Bytes send_buffer = 128 * 1024;
};

struct ClusterConfig {
  std::vector<NodeParams> nodes;

  /// Optional profile table (empty = legacy per-rank description). When
  /// non-empty, profile_of maps every rank to its profile and `nodes`
  /// holds the materialized parameters — equal to the profile's except
  /// where a per-node override was applied. Serialization writes the
  /// profiles plus only the overriding nodes, keeping a 4096-rank file
  /// KB-sized.
  std::vector<NodeProfile> profiles;
  std::vector<int> profile_of;  ///< rank -> index into profiles

  TcpQuirks quirks;
  double switch_latency_s = 10e-6;  ///< fixed forwarding delay in the switch
  double noise_rel = 0.01;          ///< relative measurement/OS noise
  std::uint64_t seed = 1;

  /// Resource tree above the ranks. Empty = the flat single-switch cluster
  /// (every pair one switch_latency_s hop, contention-free) — v1 semantics.
  /// A non-empty topology routes every pair over its LCA path; the
  /// degenerate one-level tree (one uncontended level forwarding in
  /// switch_latency_s) produces bit-identical event streams to the empty
  /// case.
  Topology topology;

  [[nodiscard]] int size() const { return int(nodes.size()); }

  /// Ground-truth L_ij [s]; throws lmo::Error naming (i, j, size) on an
  /// invalid pair.
  [[nodiscard]] double latency(int i, int j) const;

  /// Ground-truth beta_ij [bytes/s]; throws lmo::Error naming (i, j, size)
  /// on an invalid pair.
  [[nodiscard]] double rate(int i, int j) const;

  /// LCA level of the pair in the resource tree; 1 on a flat cluster.
  [[nodiscard]] int lca_level(int i, int j) const;

  [[nodiscard]] bool has_profiles() const { return !profiles.empty(); }

  /// True when `rank`'s materialized parameters differ from its profile's
  /// (a per-node override); always false on legacy configs.
  [[nodiscard]] bool overrides_profile(int rank) const;

  /// Rebuild `nodes` from profiles + profile_of (overrides are applied
  /// afterwards by the caller, e.g. the config loader).
  void materialize_profiles();

  /// Throws lmo::Error naming the offending node/field on inconsistent
  /// configuration (empty cluster, zero rates, negative or non-finite
  /// parameters, mismatched quirks vectors, malformed profile table,
  /// malformed topology).
  void validate() const;
};

/// Ground-truth extended-LMO parameters of a config, for validating that
/// estimators recover what the simulator was built from. Per-node
/// parameters stay O(N) vectors; pair parameters are priced on demand
/// from the held config instead of materializing two N x N matrices —
/// at 4096 ranks the dense pair tables alone would cost 256 MB.
class GroundTruth {
 public:
  std::vector<double> C;  ///< fixed processing delay per node [s]
  std::vector<double> t;  ///< per-byte delay per node [s/B]

  /// Ground-truth L_ij [s]; 0 on the diagonal (matching the dense-matrix
  /// convention this accessor replaced).
  [[nodiscard]] double L(int i, int j) const;
  /// Ground-truth 1/beta_ij [s/B]; 0 on the diagonal.
  [[nodiscard]] double inv_beta(int i, int j) const;

  struct PairTruth {
    double L = 0.0;         ///< pair latency [s]
    double inv_beta = 0.0;  ///< inverse pair rate [s/B]
  };
  /// Both pair parameters in one pricing walk.
  [[nodiscard]] PairTruth pair(int i, int j) const;

 private:
  friend GroundTruth ground_truth(const ClusterConfig& cfg);
  ClusterConfig cfg_;
};

[[nodiscard]] GroundTruth ground_truth(const ClusterConfig& cfg);

/// Ground-truth LMO link parameters aggregated per topology level: the
/// mean L_ij and 1/beta_ij over all pairs whose LCA sits at that level —
/// what a per-level fit should recover. Empty for a flat cluster.
struct LevelGroundTruth {
  double L = 0.0;         ///< mean pair latency [s]
  double inv_beta = 0.0;  ///< mean inverse rate [s/B]
  int pairs = 0;          ///< pairs with their LCA at this level
};

[[nodiscard]] std::vector<LevelGroundTruth> ground_truth_per_level(
    const ClusterConfig& cfg);

/// The 16-node heterogeneous cluster of Table I: seven node types with
/// heterogeneous processing delays (derived from CPU class) on a single
/// switch. Rates are 100 Mbit/s Fast Ethernet across the board except the
/// three newer HP DL140 nodes which have gigabit NICs (beta_ij still clamps
/// to the slower endpoint, as on a real switch).
[[nodiscard]] ClusterConfig make_paper_cluster(std::uint64_t seed = 1);

/// Randomized heterogeneous cluster for property tests. Parameters are
/// drawn from realistic ranges (fixed delays 30..120 us, per-byte delays
/// 40..160 ns/B, 100 Mbit or 1 Gbit NICs).
[[nodiscard]] ClusterConfig make_random_cluster(int n, std::uint64_t seed);

/// How make_multicore_cluster assigns ranks to cores.
enum class Placement {
  kBlock,   ///< rank r on node r / cores (consecutive ranks share a node)
  kCyclic,  ///< rank r on node r % nodes (round-robin — the placement a
            ///< topology-unaware scheduler produces)
};

/// Hierarchical multi-core cluster: `switches` switches x
/// `nodes_per_switch` nodes x `cores_per_node` cores (one rank per core).
/// Intra-node transfers run over a contended memory bus; inter-node
/// transfers are capped by the Fast-Ethernet switch level; inter-switch
/// transfers additionally cross a contended, 2:1-oversubscribed uplink.
/// Per-byte processing dominates every wire (the paper's CPU-bound
/// regime), so the LMO fit formulas apply at every level. TCP quirks are
/// disabled (they model the flat Ethernet path). With `switches` == 1 the
/// uplink level is omitted (a 2-level tree).
[[nodiscard]] ClusterConfig make_multicore_cluster(
    int switches, int nodes_per_switch, int cores_per_node,
    std::uint64_t seed = 1, Placement placement = Placement::kBlock);

}  // namespace lmo::sim
