// Serialization of cluster configurations.
//
// The paper's software tool [13] persists what it learns about a cluster;
// we do the same for both the simulated cluster description and (in
// core/params_io) the estimated model parameters. A config is one JSON
// document ("lmo.cluster/2"): the cluster constants, the TCP quirks, the
// nodes (per rank, or as a profile table plus a run-length rank -> profile
// index) and, for hierarchical clusters, a `topology` section (levels and
// per-level group placement). No topology is the degenerate flat tree.
// Doubles print with the shortest round-tripping representation, so
// save/load is bit-exact.
#pragma once

#include <string>

#include "obs/json.hpp"
#include "simnet/cluster.hpp"

namespace lmo::sim {

/// Serialize as an "lmo.cluster/2" JSON document, including the topology
/// section when the config has one. Bit-exact round trip through
/// cluster_from_json.
[[nodiscard]] obs::Json to_json(const ClusterConfig& cfg);

/// Parse a document; throws lmo::Error naming the offending field path
/// (e.g. "topology.levels[1].bandwidth_bps") on malformed, negative or
/// non-finite values. The result is validate()d.
[[nodiscard]] ClusterConfig cluster_from_json(const obs::Json& root);

/// File helpers. load_cluster prefixes errors with the file path and
/// refuses a file that is not JSON (the removed `key = value` format),
/// naming `lmo_tool make-cluster` as the way to regenerate it.
void save_cluster(const ClusterConfig& cfg, const std::string& path);
[[nodiscard]] ClusterConfig load_cluster(const std::string& path);

}  // namespace lmo::sim
