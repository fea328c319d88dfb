#include "simnet/cluster.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace lmo::sim {

namespace {
constexpr double kFastEthernet = 100e6 / 8.0;  // bytes/s
constexpr double kGigabit = 1000e6 / 8.0;      // bytes/s

[[noreturn]] void bad_pair(const char* what, int i, int j, int size) {
  throw Error(std::string("ClusterConfig::") + what + ": invalid pair (i=" +
              std::to_string(i) + ", j=" + std::to_string(j) +
              ") for a cluster of size " + std::to_string(size) +
              (i == j ? " — a rank does not talk to itself through the fabric"
                      : ""));
}

void check_pair(const char* what, int i, int j, int size) {
  if (i == j || i < 0 || j < 0 || i >= size || j >= size)
    bad_pair(what, i, j, size);
}

/// Throws unless v is finite and >= 0. `field()` names the value; it runs
/// only on failure, so validating a 4096-rank config builds no strings.
template <class Field>
void check_finite_nonneg(double v, const Field& field) {
  if (!(std::isfinite(v) && v >= 0.0))
    throw Error("ClusterConfig: " + std::string(field()) + " = " +
                std::to_string(v) + " must be finite and non-negative");
}

/// Range checks of one NodeParams; `at()` is the field-name prefix (e.g.
/// "nodes[3]."), built only on failure.
template <class Prefix>
void check_node_params(const NodeParams& n, const Prefix& at) {
  check_finite_nonneg(n.fixed_delay_s, [&] { return at() + "fixed_delay_s"; });
  check_finite_nonneg(n.per_byte_s, [&] { return at() + "per_byte_s"; });
  check_finite_nonneg(n.latency_s, [&] { return at() + "latency_s"; });
  if (!(std::isfinite(n.link_rate_bps) && n.link_rate_bps > 0.0))
    throw Error("ClusterConfig: " + at() + "link_rate_bps = " +
                std::to_string(n.link_rate_bps) +
                " must be finite and positive");
}
}  // namespace

double ClusterConfig::latency(int i, int j) const {
  check_pair("latency", i, j, size());
  if (topology.empty())
    return nodes[std::size_t(i)].latency_s + switch_latency_s +
           nodes[std::size_t(j)].latency_s;
  return nodes[std::size_t(i)].latency_s +
         topology.path_forward_latency(i, j) +
         nodes[std::size_t(j)].latency_s;
}

double ClusterConfig::rate(int i, int j) const {
  check_pair("rate", i, j, size());
  const double endpoint = std::min(nodes[std::size_t(i)].link_rate_bps,
                                   nodes[std::size_t(j)].link_rate_bps);
  if (topology.empty()) return endpoint;
  return topology.path_rate_cap(endpoint, i, j);
}

int ClusterConfig::lca_level(int i, int j) const {
  check_pair("lca_level", i, j, size());
  return topology.empty() ? 1 : topology.lca_level(i, j);
}

bool operator==(const NodeParams& a, const NodeParams& b) {
  return a.label == b.label && a.type == b.type &&
         a.fixed_delay_s == b.fixed_delay_s && a.per_byte_s == b.per_byte_s &&
         a.link_rate_bps == b.link_rate_bps && a.latency_s == b.latency_s;
}

bool ClusterConfig::overrides_profile(int rank) const {
  if (profiles.empty()) return false;
  LMO_CHECK_MSG(rank >= 0 && rank < size(),
                "overrides_profile: rank " + std::to_string(rank) +
                    " out of range for a cluster of size " +
                    std::to_string(size()));
  return !(nodes[std::size_t(rank)] ==
           profiles[std::size_t(profile_of[std::size_t(rank)])].params);
}

void ClusterConfig::materialize_profiles() {
  nodes.clear();
  nodes.reserve(profile_of.size());
  for (const int p : profile_of) {
    LMO_CHECK_MSG(p >= 0 && p < int(profiles.size()),
                  "profile_of[" + std::to_string(nodes.size()) +
                      "] = " + std::to_string(p) +
                      " out of range for " + std::to_string(profiles.size()) +
                      " profiles");
    nodes.push_back(profiles[std::size_t(p)].params);
  }
}

void ClusterConfig::validate() const {
  if (nodes.empty()) throw Error("ClusterConfig: cluster is empty (no nodes)");
  LMO_CHECK_MSG(size() >= 2, "a cluster needs at least two nodes (got " +
                                 std::to_string(size()) + ")");
  for (int i = 0; i < size(); ++i)
    check_node_params(nodes[std::size_t(i)], [i] {
      return "nodes[" + std::to_string(i) + "].";
    });
  if (!profiles.empty()) {
    LMO_CHECK_MSG(profile_of.size() == nodes.size(),
                  "ClusterConfig: profile_of has " +
                      std::to_string(profile_of.size()) +
                      " entries, cluster has " + std::to_string(size()) +
                      " nodes");
    for (int r = 0; r < size(); ++r) {
      const int p = profile_of[std::size_t(r)];
      LMO_CHECK_MSG(p >= 0 && p < int(profiles.size()),
                    "ClusterConfig: profile_of[" + std::to_string(r) +
                        "] = " + std::to_string(p) + " out of range for " +
                        std::to_string(profiles.size()) + " profiles");
    }
    for (std::size_t k = 0; k < profiles.size(); ++k)
      check_node_params(profiles[k].params, [k] {
        return "profiles[" + std::to_string(k) + "].params.";
      });
  } else {
    LMO_CHECK_MSG(profile_of.empty(),
                  "ClusterConfig: profile_of has " +
                      std::to_string(profile_of.size()) +
                      " entries but the profile table is empty");
  }
  check_finite_nonneg(switch_latency_s, [] { return "switch_latency_s"; });
  check_finite_nonneg(noise_rel, [] { return "noise_rel"; });
  // Mismatched quirks vectors corrupt the escalation draw even when the
  // quirks are currently disabled, so check them unconditionally.
  if (quirks.escalation_values_s.size() != quirks.escalation_weights.size())
    throw Error("ClusterConfig: quirks.escalation_values_s has " +
                std::to_string(quirks.escalation_values_s.size()) +
                " entries but quirks.escalation_weights has " +
                std::to_string(quirks.escalation_weights.size()));
  if (quirks.enabled)
    LMO_CHECK_MSG(quirks.escalation_min <= quirks.rendezvous_threshold,
                  "quirks.escalation_min exceeds rendezvous_threshold");
  topology.validate(size());
}

double GroundTruth::L(int i, int j) const {
  if (i == j) return 0.0;
  return cfg_.latency(i, j);
}

double GroundTruth::inv_beta(int i, int j) const {
  if (i == j) return 0.0;
  return 1.0 / cfg_.rate(i, j);
}

GroundTruth::PairTruth GroundTruth::pair(int i, int j) const {
  PairTruth p;
  if (i == j) return p;
  p.L = cfg_.latency(i, j);
  p.inv_beta = 1.0 / cfg_.rate(i, j);
  return p;
}

GroundTruth ground_truth(const ClusterConfig& cfg) {
  const int n = cfg.size();
  GroundTruth gt;
  gt.cfg_ = cfg;
  gt.C.resize(std::size_t(n));
  gt.t.resize(std::size_t(n));
  for (int i = 0; i < n; ++i) {
    gt.C[std::size_t(i)] = cfg.nodes[std::size_t(i)].fixed_delay_s;
    gt.t[std::size_t(i)] = cfg.nodes[std::size_t(i)].per_byte_s;
  }
  return gt;
}

std::vector<LevelGroundTruth> ground_truth_per_level(
    const ClusterConfig& cfg) {
  std::vector<LevelGroundTruth> out;
  if (cfg.topology.empty()) return out;
  out.resize(std::size_t(cfg.topology.depth()));
  const int n = cfg.size();
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      LevelGroundTruth& lv = out[std::size_t(cfg.lca_level(i, j) - 1)];
      lv.L += cfg.latency(i, j);
      lv.inv_beta += 1.0 / cfg.rate(i, j);
      ++lv.pairs;
    }
  }
  for (auto& lv : out) {
    if (lv.pairs == 0) continue;
    lv.L /= lv.pairs;
    lv.inv_beta /= lv.pairs;
  }
  return out;
}

ClusterConfig make_multicore_cluster(int switches, int nodes_per_switch,
                                     int cores_per_node, std::uint64_t seed,
                                     Placement placement) {
  LMO_CHECK_MSG(switches >= 1 && nodes_per_switch >= 1 && cores_per_node >= 1,
                "make_multicore_cluster: all shape arguments must be >= 1");
  const int total_nodes = switches * nodes_per_switch;
  const int n = total_nodes * cores_per_node;
  LMO_CHECK_MSG(n >= 2, "make_multicore_cluster: needs at least two ranks");

  ClusterConfig cfg;
  cfg.seed = seed;
  // The TCP quirks model the flat switched-Ethernet path; on the
  // hierarchical shared-memory/Ethernet mix they would blur the per-level
  // parameters this factory is designed to expose.
  cfg.quirks.enabled = false;
  cfg.noise_rel = 0.005;
  cfg.switch_latency_s = 0.0;  // all forwarding lives in the topology levels

  // Per-core endpoint parameters. Like the paper's measured nodes, the
  // per-byte processing delay (170 ns/B — a period TCP/IP stack doing two
  // copies plus a checksum) exceeds even the slowest wire below (160 ns/B
  // on the oversubscribed uplink), so the processor — not the NIC — is the
  // serialized resource. That is the regime the one-to-two recovery
  // formula (eq. 11) assumes: with a wire-bound source, back-to-back sends
  // would serialize on the egress port and the fitted t would absorb wire
  // time. The 25 MB/s core injection rate keeps intra-node transfers the
  // fastest level while staying within a factor the fit can resolve
  // against the processing terms.
  NodeParams core;
  core.fixed_delay_s = 12e-6;  // C_i
  core.per_byte_s = 170e-9;    // t_i
  core.link_rate_bps = 25e6;   // bytes/s
  core.latency_s = 0.5e-6;

  // Levels, leaf to root. The node level (memory bus) is contended but
  // uncapped; the switch level caps at Fast Ethernet and is contention-free
  // between disjoint port pairs; the uplink is both capped and contended.
  TopologyLevel node_lv;
  node_lv.name = "node";
  node_lv.forward_latency_s = 0.3e-6;
  node_lv.contended = true;

  TopologyLevel switch_lv;
  switch_lv.name = "switch";
  switch_lv.forward_latency_s = 10e-6;
  switch_lv.bandwidth_bps = kFastEthernet;

  // The uplink is 2:1 oversubscribed relative to the switch ports — the
  // classic cheap-cluster build — which is what makes hierarchy-aware
  // placement measurably better than flat placement.
  TopologyLevel uplink_lv;
  uplink_lv.name = "uplink";
  uplink_lv.forward_latency_s = 15e-6;
  uplink_lv.bandwidth_bps = kFastEthernet / 2;
  uplink_lv.contended = true;

  std::vector<TopologyLevel> levels{node_lv, switch_lv};
  if (switches > 1) levels.push_back(uplink_lv);

  if (placement == Placement::kBlock) {
    std::vector<int> fanout{cores_per_node, nodes_per_switch};
    if (switches > 1) fanout.push_back(switches);
    cfg.topology = Topology::balanced(fanout, std::move(levels));
  } else {
    // Round-robin: rank r runs on node r % total_nodes — the placement a
    // topology-unaware scheduler produces. Consecutive ranks land on
    // different nodes (and different switches), which is exactly what a
    // hierarchy-aware mapping should undo.
    std::vector<std::vector<int>> group_of;
    std::vector<int> node_of(std::size_t(n), 0);
    for (int r = 0; r < n; ++r) node_of[std::size_t(r)] = r % total_nodes;
    group_of.push_back(node_of);
    if (switches > 1) {
      std::vector<int> switch_of(std::size_t(n), 0);
      for (int r = 0; r < n; ++r)
        switch_of[std::size_t(r)] = node_of[std::size_t(r)] / nodes_per_switch;
      group_of.push_back(std::move(switch_of));
    }
    group_of.emplace_back(std::size_t(n), 0);
    cfg.topology = Topology::custom(std::move(levels), std::move(group_of));
  }

  // Every core is the same machine; the placement lives in the topology,
  // not in per-rank labels. One profile row + a rank->profile index is the
  // whole parameter description — what keeps a 4096-rank config file (and
  // this factory) O(1) in N instead of O(N).
  core.label = "core";
  NodeProfile prof;
  prof.name = "core";
  prof.params = core;
  cfg.profiles.push_back(std::move(prof));
  cfg.profile_of.assign(std::size_t(n), 0);
  cfg.materialize_profiles();
  cfg.validate();
  return cfg;
}

ClusterConfig make_paper_cluster(std::uint64_t seed) {
  // Table I: node type, model, count. Processing delays are chosen to be
  // plausible for the listed CPUs running a 2009-era TCP stack: faster
  // Xeons have lower per-message and per-byte costs; the Celeron is the
  // slowest; the Opterons sit in between. Perfectly heterogeneous: no two
  // types share parameters.
  struct TypeSpec {
    const char* label;
    double fixed_us;   // C_i in microseconds
    double per_b_ns;   // t_i in ns/byte
    double rate;       // bytes/s
    double lat_us;     // node-to-switch latency in microseconds
    int count;
  };
  // Per-byte delays exceed the 100 Mbit wire cost (80 ns/B): the TCP stack
  // (two copies + checksum) was the bottleneck on these CPUs, which is also
  // what makes the root processor — not the switch — the serialized
  // resource in the paper's collective formulas.
  const TypeSpec types[] = {
      {"Dell Poweredge SC1425 / 3.6 Xeon", 32, 88, kFastEthernet, 4, 2},
      {"Dell Poweredge 750 / 3.4 Xeon", 36, 95, kFastEthernet, 5, 6},
      {"IBM E-server 326 / 1.8 Opteron", 48, 118, kFastEthernet, 7, 2},
      {"IBM X-Series 306 / 3.2 P4", 42, 105, kFastEthernet, 6, 1},
      {"HP Proliant DL320 G3 / 3.4 P4", 40, 100, kFastEthernet, 6, 1},
      {"HP Proliant DL320 G3 / 2.9 Celeron", 75, 155, kFastEthernet, 8, 1},
      {"HP Proliant DL140 G2 / 3.4 Xeon", 34, 90, kGigabit, 3, 3},
  };
  ClusterConfig cfg;
  cfg.seed = seed;
  int type_id = 1;
  for (const auto& t : types) {
    NodeParams n;
    n.label = t.label;
    n.type = type_id;
    n.fixed_delay_s = t.fixed_us * 1e-6;
    n.per_byte_s = t.per_b_ns * 1e-9;
    n.link_rate_bps = t.rate;
    n.latency_s = t.lat_us * 1e-6;
    NodeProfile prof;
    prof.name = t.label;
    prof.params = n;
    cfg.profiles.push_back(std::move(prof));
    for (int c = 0; c < t.count; ++c)
      cfg.profile_of.push_back(type_id - 1);
    ++type_id;
  }
  cfg.materialize_profiles();
  cfg.validate();
  return cfg;
}

ClusterConfig make_random_cluster(int n, std::uint64_t seed) {
  LMO_CHECK(n >= 2);
  Rng rng(seed);
  ClusterConfig cfg;
  cfg.seed = seed;
  for (int i = 0; i < n; ++i) {
    NodeParams node;
    node.label = "rand-" + std::to_string(i);
    node.type = i;
    node.fixed_delay_s = rng.uniform(30e-6, 120e-6);
    // Keep t_i above the slowest wire's per-byte cost (80 ns/B) so the
    // processor, not the NIC, is the serialized resource — the regime the
    // paper's formulas (and its cluster) live in.
    node.per_byte_s = rng.uniform(85e-9, 160e-9);
    node.link_rate_bps = rng.chance(0.25) ? kGigabit : kFastEthernet;
    node.latency_s = rng.uniform(3e-6, 10e-6);
    cfg.nodes.push_back(std::move(node));
  }
  cfg.validate();
  return cfg;
}

}  // namespace lmo::sim
