#include "simnet/fabric.hpp"

#include <cmath>

namespace lmo::sim {

namespace {
/// A zero-byte MPI message still costs one minimal Ethernet frame.
constexpr Bytes kMinFrame = 64;
}  // namespace

Fabric::Fabric(const ClusterConfig& cfg, std::uint64_t seed) : cfg_(&cfg) {
  cfg.validate();
  const auto n = std::size_t(cfg.size());
  fixed_delay_.resize(n);
  per_byte_.resize(n);
  link_rate_.resize(n);
  node_latency_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeParams& node = cfg.nodes[i];
    fixed_delay_[i] = node.fixed_delay_s;
    per_byte_[i] = node.per_byte_s;
    link_rate_[i] = node.link_rate_bps;
    node_latency_[i] = node.latency_s;
  }
  egress_.resize(n);
  ingress_.resize(n);
  inflows_.assign(n, 0);
  node_rng_.resize(n);
  const Topology& topo = cfg.topology;
  if (!topo.empty() && topo.any_contended()) {
    shared_.resize(std::size_t(topo.depth()));
    for (int l = 1; l <= topo.depth(); ++l)
      if (topo.level(l).contended)
        shared_[std::size_t(l - 1)].resize(std::size_t(topo.group_count(l)));
  }
  reseed(seed);
}

SimTime Fabric::noised(double seconds, Rng& rng) {
  if (cfg_->noise_rel <= 0) return SimTime::from_seconds_clamped(seconds);
  // One-sided noise: OS jitter and cache effects only ever add time.
  const double jitter = std::fabs(rng.normal()) * cfg_->noise_rel;
  return SimTime::from_seconds_clamped(seconds * (1.0 + jitter));
}

SimTime Fabric::send_cpu_cost(int src, Bytes n, bool pipelined) {
  LMO_CHECK(src >= 0 && src < size());
  LMO_CHECK(n >= 0);
  double cost =
      fixed_delay_[std::size_t(src)] + double(n) * per_byte_[std::size_t(src)];
  const TcpQuirks& q = cfg_->quirks;
  if (q.enabled && pipelined && n >= q.frag_threshold) {
    const auto crossings = n / q.frag_threshold;
    cost += q.frag_leap_s * double(crossings);
    counters_.leaps += std::uint64_t(crossings);
  }
  return noised(cost, node_rng_[std::size_t(src)]);
}

SimTime Fabric::recv_cpu_cost(int dst, Bytes n) {
  LMO_CHECK(dst >= 0 && dst < size());
  LMO_CHECK(n >= 0);
  return noised(fixed_delay_[std::size_t(dst)] +
                    double(n) * per_byte_[std::size_t(dst)],
                node_rng_[std::size_t(dst)]);
}

double Fabric::pair_latency(int src, int dst) const {
  // Same accumulation order as ClusterConfig::latency — the cached
  // per-LCA-level price makes it a flat-array read, not a path walk.
  const Topology& topo = cfg_->topology;
  const double forward =
      topo.empty() ? cfg_->switch_latency_s
                   : topo.level_path_latency(topo.lca_level(src, dst));
  return node_latency_[std::size_t(src)] + forward +
         node_latency_[std::size_t(dst)];
}

double Fabric::pair_rate(int src, int dst) const {
  const double endpoint = std::min(link_rate_[std::size_t(src)],
                                   link_rate_[std::size_t(dst)]);
  const Topology& topo = cfg_->topology;
  if (topo.empty()) return endpoint;
  const double cap = topo.cumulative_rate_cap(topo.lca_level(src, dst));
  return cap > 0.0 ? std::min(endpoint, cap) : endpoint;
}

double Fabric::escalation_seconds(int dst, Bytes n) {
  const TcpQuirks& q = cfg_->quirks;
  if (!q.enabled) return 0.0;
  if (n <= q.escalation_min || n > q.rendezvous_threshold) return 0.0;
  if (inflows_[std::size_t(dst)] < 1) return 0.0;  // needs converging traffic
  const double band =
      double(n - q.escalation_min) /
      double(q.rendezvous_threshold - q.escalation_min);
  const double p = q.escalation_peak_prob * (0.4 + 0.6 * band);
  Rng& rng = node_rng_[std::size_t(dst)];
  if (!rng.chance(p)) return 0.0;
  // Draw one of the discrete retransmission-timeout magnitudes.
  double total_w = 0.0;
  for (double w : q.escalation_weights) total_w += w;
  double pick = rng.uniform() * total_w;
  for (std::size_t i = 0; i < q.escalation_values_s.size(); ++i) {
    pick -= q.escalation_weights[i];
    if (pick <= 0) return q.escalation_values_s[i];
  }
  return q.escalation_values_s.back();
}

WireTiming Fabric::transfer(int src, int dst, Bytes n, SimTime ready) {
  LMO_CHECK(src >= 0 && src < size());
  LMO_CHECK(dst >= 0 && dst < size());
  LMO_CHECK_MSG(src != dst, "self-transfer does not touch the fabric");
  LMO_CHECK(n >= 0);
  ++counters_.transfers;

  const Bytes frame_bytes = n < kMinFrame ? kMinFrame : n;
  counters_.bytes += std::uint64_t(frame_bytes);
  const double rate = pair_rate(src, dst);
  const SimTime wire_time =
      noised(double(frame_bytes) / rate, node_rng_[std::size_t(src)]);
  const SimTime latency = wire_latency(src, dst);

  WireTiming w;
  w.egress_start = egress_[std::size_t(src)].reserve(ready, wire_time);
  w.egress_end = w.egress_start + wire_time;
  // Every contended switch on the LCA path (memory bus, oversubscribed
  // uplink) serializes the transfer on its group's shared Timeline, in
  // path order. Contention-free levels and flat configs skip this loop
  // entirely, so degenerate trees reserve exactly what the flat code did.
  SimTime avail = w.egress_start;
  if (!shared_.empty())
    cfg_->topology.for_each_contended_segment(src, dst, [&](int l, int g) {
      avail = shared_[std::size_t(l - 1)][std::size_t(g)].reserve(avail,
                                                                  wire_time);
    });
  // Cut-through at the switch: the ingress port starts receiving one
  // latency after the first byte left, and is occupied for the same wire
  // time (both ports run at beta_ij = min of the two line rates).
  const SimTime ingress_start =
      ingress_[std::size_t(dst)].reserve(avail + latency, wire_time);
  w.escalation = SimTime::from_seconds_clamped(escalation_seconds(dst, n));
  if (w.escalation > SimTime::zero()) ++counters_.escalations;
  w.arrival = ingress_start + wire_time + w.escalation;
  return w;
}

bool Fabric::use_rendezvous(Bytes n) const {
  const TcpQuirks& q = cfg_->quirks;
  return q.enabled && n > q.rendezvous_threshold;
}

SimTime Fabric::wire_latency(int src, int dst) const {
  LMO_CHECK(src >= 0 && src < size());
  LMO_CHECK(dst >= 0 && dst < size());
  LMO_CHECK_MSG(src != dst, "self-transfer does not touch the fabric");
  return SimTime::from_seconds(pair_latency(src, dst));
}

bool Fabric::egress_busy(int src, SimTime t) const {
  LMO_CHECK(src >= 0 && src < size());
  return egress_[std::size_t(src)].busy_at(t);
}

SimTime Fabric::send_buffer_time(int src, int dst) const {
  LMO_CHECK(src >= 0 && src < size());
  LMO_CHECK(dst >= 0 && dst < size());
  LMO_CHECK_MSG(src != dst, "self-transfer does not touch the fabric");
  return SimTime::from_seconds(double(cfg_->quirks.send_buffer) /
                               pair_rate(src, dst));
}

void Fabric::begin_inflow(int dst) {
  LMO_CHECK(dst >= 0 && dst < size());
  ++inflows_[std::size_t(dst)];
}

void Fabric::end_inflow(int dst) {
  LMO_CHECK(dst >= 0 && dst < size());
  LMO_CHECK(inflows_[std::size_t(dst)] > 0);
  --inflows_[std::size_t(dst)];
}

void Fabric::reset_timelines() {
  for (auto& t : egress_) t.reset();
  for (auto& t : ingress_) t.reset();
  for (auto& level : shared_)
    for (auto& t : level) t.reset();
  for (auto& c : inflows_) c = 0;
}

void Fabric::reseed(std::uint64_t seed) {
  Rng seeder(seed);
  for (Rng& rng : node_rng_) rng = seeder.split();
  counters_ = {};
  reset_timelines();
}

}  // namespace lmo::sim
