#include "simnet/config_io.hpp"

#include <limits>

#include "util/error.hpp"

namespace lmo::sim {

namespace {
using obs::Json;
using obs::JsonField;

// The six NodeParams fields, shared by the "nodes", "profiles" and
// "overrides" sections.

void node_params_to_json(Json& jn, const NodeParams& n) {
  jn["label"] = n.label;
  jn["type"] = n.type;
  jn["fixed_delay_s"] = n.fixed_delay_s;
  jn["per_byte_s"] = n.per_byte_s;
  jn["link_rate_bps"] = n.link_rate_bps;
  jn["latency_s"] = n.latency_s;
}

NodeParams node_params_from_json(const JsonField& jn) {
  NodeParams n;
  n.label = jn["label"].string();
  n.type = int(jn["type"].integer(std::numeric_limits<int>::min(),
                                  std::numeric_limits<int>::max()));
  n.fixed_delay_s = jn["fixed_delay_s"].number();
  n.per_byte_s = jn["per_byte_s"].number();
  n.link_rate_bps = jn["link_rate_bps"].number();
  n.latency_s = jn["latency_s"].number();
  return n;
}
}  // namespace

Json to_json(const ClusterConfig& cfg) {
  Json root = Json::object();
  root["schema"] = "lmo.cluster/2";

  Json cluster = Json::object();
  cluster["switch_latency_s"] = cfg.switch_latency_s;
  cluster["noise_rel"] = cfg.noise_rel;
  cluster["seed"] = cfg.seed;
  root["cluster"] = std::move(cluster);

  const TcpQuirks& q = cfg.quirks;
  Json quirks = Json::object();
  quirks["enabled"] = q.enabled;
  quirks["rendezvous_threshold"] = q.rendezvous_threshold;
  quirks["escalation_min"] = q.escalation_min;
  quirks["escalation_peak_prob"] = q.escalation_peak_prob;
  Json values = Json::array();
  for (double v : q.escalation_values_s) values.push_back(v);
  quirks["escalation_values_s"] = std::move(values);
  Json weights = Json::array();
  for (double v : q.escalation_weights) weights.push_back(v);
  quirks["escalation_weights"] = std::move(weights);
  quirks["frag_threshold"] = q.frag_threshold;
  quirks["frag_leap_s"] = q.frag_leap_s;
  quirks["send_buffer"] = q.send_buffer;
  root["quirks"] = std::move(quirks);

  if (cfg.has_profiles()) {
    // Compact node description: the profile table, a run-length-encoded
    // rank -> profile index, and only the nodes that override their
    // profile. A 4096-rank single-profile cluster serializes its whole
    // parameter set in one profile row + one [index, count] pair.
    Json profiles = Json::array();
    for (const NodeProfile& p : cfg.profiles) {
      Json jp = Json::object();
      jp["name"] = p.name;
      node_params_to_json(jp, p.params);
      profiles.push_back(std::move(jp));
    }
    root["profiles"] = std::move(profiles);
    Json runs = Json::array();
    for (std::size_t r = 0; r < cfg.profile_of.size();) {
      std::size_t end = r + 1;
      while (end < cfg.profile_of.size() &&
             cfg.profile_of[end] == cfg.profile_of[r])
        ++end;
      Json run = Json::array();
      run.push_back(cfg.profile_of[r]);
      run.push_back(std::int64_t(end - r));
      runs.push_back(std::move(run));
      r = end;
    }
    root["profile_of"] = std::move(runs);
    Json overrides = Json::array();
    for (int r = 0; r < cfg.size(); ++r) {
      if (!cfg.overrides_profile(r)) continue;
      Json jn = Json::object();
      jn["rank"] = r;
      node_params_to_json(jn, cfg.nodes[std::size_t(r)]);
      overrides.push_back(std::move(jn));
    }
    if (overrides.size() > 0) root["overrides"] = std::move(overrides);
  } else {
    Json nodes = Json::array();
    for (const NodeParams& n : cfg.nodes) {
      Json jn = Json::object();
      node_params_to_json(jn, n);
      nodes.push_back(std::move(jn));
    }
    root["nodes"] = std::move(nodes);
  }

  if (!cfg.topology.empty()) {
    const Topology& t = cfg.topology;
    Json topo = Json::object();
    Json levels = Json::array();
    for (int l = 1; l <= t.depth(); ++l) {
      const TopologyLevel& lv = t.level(l);
      Json jl = Json::object();
      jl["name"] = lv.name;
      jl["forward_latency_s"] = lv.forward_latency_s;
      jl["bandwidth_bps"] = lv.bandwidth_bps;
      jl["contended"] = lv.contended;
      levels.push_back(std::move(jl));
    }
    topo["levels"] = std::move(levels);
    if (!t.balanced_fanout().empty()) {
      // A balanced tree is fully described by its fanout — depth() ints
      // instead of depth() * N group ids.
      Json fanout = Json::array();
      for (const int f : t.balanced_fanout()) fanout.push_back(f);
      topo["fanout"] = std::move(fanout);
    } else {
      Json groups = Json::array();
      for (int l = 1; l <= t.depth(); ++l) {
        Json row = Json::array();
        for (int r = 0; r < t.ranks(); ++r) row.push_back(t.group(l, r));
        groups.push_back(std::move(row));
      }
      topo["groups"] = std::move(groups);
    }
    root["topology"] = std::move(topo);
  }
  return root;
}

ClusterConfig cluster_from_json(const Json& doc) {
  const JsonField root(doc, "cluster config");
  const std::string_view schema = root["schema"].string();
  if (schema != "lmo.cluster/2")
    root["schema"].fail("= '" + std::string(schema) +
                        "', expected 'lmo.cluster/2'");

  ClusterConfig cfg;
  const JsonField cl = root["cluster"];
  cfg.switch_latency_s = cl["switch_latency_s"].number();
  cfg.noise_rel = cl["noise_rel"].number();
  cfg.seed = std::uint64_t(cl["seed"].integer());

  const JsonField qj = root["quirks"];
  TcpQuirks& q = cfg.quirks;
  q.enabled = qj["enabled"].boolean();
  q.rendezvous_threshold = qj["rendezvous_threshold"].integer();
  q.escalation_min = qj["escalation_min"].integer();
  q.escalation_peak_prob = qj["escalation_peak_prob"].number();
  q.escalation_values_s = qj["escalation_values_s"].numbers();
  q.escalation_weights = qj["escalation_weights"].numbers();
  q.frag_threshold = qj["frag_threshold"].integer();
  q.frag_leap_s = qj["frag_leap_s"].number();
  q.send_buffer = qj["send_buffer"].integer();

  if (root.find("profiles")) {
    const JsonField profiles = root["profiles"];
    for (std::size_t k = 0; k < profiles.size(); ++k) {
      NodeProfile p;
      p.name = profiles[k]["name"].string();
      p.params = node_params_from_json(profiles[k]);
      cfg.profiles.push_back(std::move(p));
    }
    // [index, count] runs. Counts are checked against the rank ceiling
    // before anything is inserted: a hostile count must fail by name, not
    // exhaust memory.
    const JsonField runs = root["profile_of"];
    std::int64_t ranks = 0;
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const JsonField run = runs[k];
      run.expect_size(2);  // [index, count]
      const auto idx = int(
          run[0].integer(0, std::int64_t(cfg.profiles.size()) - 1));
      const std::int64_t count = run[1].integer(1, kMaxRanks - ranks);
      ranks += count;
      cfg.profile_of.insert(cfg.profile_of.end(), std::size_t(count), idx);
    }
    cfg.materialize_profiles();
    if (root.find("overrides")) {
      const JsonField overrides = root["overrides"];
      for (std::size_t k = 0; k < overrides.size(); ++k) {
        const auto rank = overrides[k]["rank"].integer(0, cfg.size() - 1);
        cfg.nodes[std::size_t(rank)] = node_params_from_json(overrides[k]);
      }
    }
  } else {
    const JsonField nodes = root["nodes"];
    for (std::size_t i = 0; i < nodes.size(); ++i)
      cfg.nodes.push_back(node_params_from_json(nodes[i]));
  }

  if (root.find("topology")) {
    const JsonField topo = root["topology"];
    const JsonField levels = topo["levels"];
    std::vector<TopologyLevel> specs;
    for (std::size_t l = 0; l < levels.size(); ++l) {
      const JsonField level = levels[l];
      TopologyLevel lv;
      lv.name = level["name"].string();
      lv.forward_latency_s = level["forward_latency_s"].number();
      lv.bandwidth_bps = level["bandwidth_bps"].number();
      lv.contended = level["contended"].boolean();
      specs.push_back(std::move(lv));
    }
    const bool balanced = topo.find("fanout").has_value();
    const JsonField places = topo[balanced ? "fanout" : "groups"];
    places.expect_size(specs.size());  // one entry per level
    if (balanced) {
      std::vector<int> counts;
      std::int64_t ranks = 1;
      for (std::size_t l = 0; l < places.size(); ++l) {
        counts.push_back(int(places[l].integer(1, kMaxRanks)));
        ranks *= counts.back();  // both factors <= 2^22: no overflow
        if (ranks > kMaxRanks)
          places.fail("describes more than " + std::to_string(kMaxRanks) +
                      " ranks");
      }
      // Rebuilding through balanced() reproduces the exact placement (and
      // the fanout hint), so a fanout-form config round-trips bit-exactly.
      cfg.topology = Topology::balanced(counts, std::move(specs));
    } else {
      std::vector<std::vector<int>> group_of(places.size());
      for (std::size_t l = 0; l < places.size(); ++l) {
        const JsonField row = places[l];
        for (std::size_t r = 0; r < row.size(); ++r)
          group_of[l].push_back(int(row[r].integer(0, kMaxRanks - 1)));
      }
      cfg.topology = Topology::custom(std::move(specs), std::move(group_of));
    }
  }

  cfg.validate();
  return cfg;
}

void save_cluster(const ClusterConfig& cfg, const std::string& path) {
  obs::save_json(to_json(cfg), path);
}

ClusterConfig load_cluster(const std::string& path) {
  const Json doc = obs::load_json(path, "lmo_tool make-cluster");
  try {
    return cluster_from_json(doc);
  } catch (const Error& e) {
    throw Error(path + ": " + e.what());
  }
}

}  // namespace lmo::sim
