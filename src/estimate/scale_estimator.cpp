#include "estimate/scale_estimator.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <utility>

#include "estimate/measurement_store.hpp"
#include "obs/trace.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

namespace {

void check_options(int n, const ScaleOptions& opts) {
  LMO_CHECK_MSG(n >= 3, "scale estimation needs at least three processors");
  LMO_CHECK(opts.probe_size > 0);
  LMO_CHECK(opts.triplets_per_level >= 1);
}

double rt0(const MeasurementStore& s, int i, int j) {
  return s.at(ExperimentKey::roundtrip(i, j, 0, 0));
}
double rtm(const MeasurementStore& s, Bytes m, int i, int j) {
  return s.at(ExperimentKey::roundtrip(i, j, m, m));
}

// Same orientation rules as the exact LMO fit (lmo_estimator.cpp): the
// "far" child is sent last / received first, "far" agreeing with the max
// of the equation being solved, ties resolved on canonical node order.
Triplet orient_0(const MeasurementStore& s, int root, int x, int y) {
  if (x > y) std::swap(x, y);
  return rt0(s, root, x) >= rt0(s, root, y) ? Triplet{root, y, x}
                                            : Triplet{root, x, y};
}

Triplet orient_m(const MeasurementStore& s, Bytes m, int root, int x, int y) {
  if (x > y) std::swap(x, y);
  const double sx = rt0(s, root, x) + rtm(s, m, root, x);
  const double sy = rt0(s, root, y) + rtm(s, m, root, y);
  return sx >= sy ? Triplet{root, y, x} : Triplet{root, x, y};
}

/// The stage-2 keys, in deterministic triplet order. Orientation reads
/// the stored stage-1 round-trips.
std::vector<ExperimentKey> one_to_two_keys(const MeasurementStore& store,
                                           const std::vector<Triplet>& ts,
                                           Bytes m) {
  std::vector<ExperimentKey> keys;
  for (const Triplet& t : ts)
    for (int a = 0; a < 3; ++a) {
      const int root = t[std::size_t(a)];
      const int x = t[std::size_t((a + 1) % 3)];
      const int y = t[std::size_t((a + 2) % 3)];
      keys.push_back(
          ExperimentKey::one_to_two(orient_0(store, root, x, y), 0, 0));
      keys.push_back(
          ExperimentKey::one_to_two(orient_m(store, m, root, x, y), m, 0));
    }
  return keys;
}

bool have_roundtrips(const MeasurementStore& store,
                     const std::vector<Triplet>& ts, Bytes m) {
  for (const Triplet& t : ts)
    for (int a = 0; a < 3; ++a)
      for (int b = a + 1; b < 3; ++b) {
        const int u = t[std::size_t(a)], v = t[std::size_t(b)];
        if (!store.contains(ExperimentKey::roundtrip(u, v, 0, 0)) ||
            !store.contains(ExperimentKey::roundtrip(u, v, m, m)))
          return false;
      }
  return true;
}

bool have_one_to_two(const MeasurementStore& store,
                     const std::vector<Triplet>& ts, Bytes m) {
  for (const ExperimentKey& k : one_to_two_keys(store, ts, m))
    if (!store.contains(k)) return false;
  return true;
}

double clamped(const stats::RunningStats& s) {
  return std::max(0.0, s.mean());
}

}  // namespace

double ScaleLmoReport::C_of(int rank) const {
  const auto it =
      std::lower_bound(sampled_ranks.begin(), sampled_ranks.end(), rank);
  if (it != sampled_ranks.end() && *it == rank)
    return C[std::size_t(it - sampled_ranks.begin())];
  if (rank >= 0 && rank < int(profile_of.size())) {
    const ProfileParams& p = per_profile[std::size_t(
        profile_of[std::size_t(rank)])];
    if (p.sampled > 0) return p.C;
  }
  return C_mean;
}

double ScaleLmoReport::t_of(int rank) const {
  const auto it =
      std::lower_bound(sampled_ranks.begin(), sampled_ranks.end(), rank);
  if (it != sampled_ranks.end() && *it == rank)
    return t[std::size_t(it - sampled_ranks.begin())];
  if (rank >= 0 && rank < int(profile_of.size())) {
    const ProfileParams& p = per_profile[std::size_t(
        profile_of[std::size_t(rank)])];
    if (p.sampled > 0) return p.t;
  }
  return t_mean;
}

double ScaleLmoReport::pt2pt(int i, int j, int level, Bytes m) const {
  LMO_CHECK(level >= 1 && level <= int(per_level.size()));
  const core::LevelLink& link = per_level[std::size_t(level - 1)];
  return C_of(i) + link.L + C_of(j) +
         double(m) * (t_of(i) + link.inv_beta + t_of(j));
}

std::vector<Triplet> sample_scale_triplets(const sim::Topology* topo, int n,
                                           int triplets_per_level) {
  LMO_CHECK_MSG(n >= 3, "scale estimation needs at least three processors");
  LMO_CHECK(triplets_per_level >= 1);
  std::vector<Triplet> out;
  std::set<std::array<int, 3>> seen;
  const auto add = [&](int i, int j, int k) {
    std::array<int, 3> sorted{i, j, k};
    std::sort(sorted.begin(), sorted.end());
    if (seen.insert(sorted).second) out.push_back({i, j, k});
  };

  if (topo == nullptr || topo->empty()) {
    // Flat platform: disjoint consecutive triplets.
    for (int s = 0; s + 2 < n && int(out.size()) < triplets_per_level; s += 3)
      add(s, s + 1, s + 2);
    return out;
  }

  LMO_CHECK_MSG(topo->ranks() == n,
                "scale sampling: topology places " +
                    std::to_string(topo->ranks()) + " ranks, cluster has " +
                    std::to_string(n));
  for (int l = 1; l <= topo->depth(); ++l) {
    // Per group at level l: the first ranks of the first two distinct
    // child subgroups form a pair whose LCA is exactly this level; the
    // triplet is completed by the nearest neighbour available — a second
    // rank of the first subgroup, else a third subgroup's first rank —
    // so its other pairs cover the levels below.
    struct Cand {
      int sub1 = -1, i = -1, i2 = -1;
      int sub2 = -1, j = -1;
      int k3 = -1;
    };
    std::map<int, Cand> by_group;  // ordered by group id: deterministic
    for (int r = 0; r < n; ++r) {
      const int g = topo->group(l, r);
      const int sub = l == 1 ? r : topo->group(l - 1, r);
      Cand& c = by_group[g];
      if (c.sub1 < 0) {
        c.sub1 = sub;
        c.i = r;
      } else if (sub == c.sub1) {
        if (c.i2 < 0) c.i2 = r;
      } else if (c.sub2 < 0) {
        c.sub2 = sub;
        c.j = r;
      } else if (sub != c.sub2 && c.k3 < 0) {
        c.k3 = r;
      }
    }
    int added = 0;
    for (const auto& [g, c] : by_group) {
      (void)g;
      if (added >= triplets_per_level) break;
      if (c.j < 0) continue;  // group has no pair splitting at this level
      int k = c.i2 >= 0 ? c.i2 : c.k3;
      if (k < 0)  // two-rank group: any outside rank completes the triplet
        for (int r = 0; r < n && k < 0; ++r)
          if (r != c.i && r != c.j) k = r;
      const std::size_t before = out.size();
      add(c.i, c.j, k);
      if (out.size() != before) ++added;
    }
  }
  return out;
}

void plan_scale_roundtrips(PlanBuilder& plan,
                           const std::vector<Triplet>& triplets,
                           const ScaleOptions& opts) {
  LMO_CHECK(opts.probe_size > 0);
  for (const Triplet& t : triplets)
    for (int a = 0; a < 3; ++a)
      for (int b = a + 1; b < 3; ++b) {
        const int u = t[std::size_t(a)], v = t[std::size_t(b)];
        plan.require(ExperimentKey::roundtrip(u, v, 0, 0));
        plan.require(
            ExperimentKey::roundtrip(u, v, opts.probe_size, opts.probe_size));
      }
}

void plan_scale_one_to_two(PlanBuilder& plan, const MeasurementStore& store,
                           const std::vector<Triplet>& triplets,
                           const ScaleOptions& opts) {
  LMO_CHECK(opts.probe_size > 0);
  for (const ExperimentKey& k :
       one_to_two_keys(store, triplets, opts.probe_size))
    plan.require(k);
}

ScaleLmoReport fit_scale_lmo(const MeasurementStore& store, int n,
                             const ScaleOptions& opts) {
  const obs::Span sp = obs::span("scale.solve", "fit");
  check_options(n, opts);
  const Bytes m = opts.probe_size;
  const sim::Topology* topo =
      opts.topology != nullptr && !opts.topology->empty() ? opts.topology
                                                          : nullptr;

  ScaleLmoReport report;
  report.ranks = n;
  report.triplets =
      sample_scale_triplets(opts.topology, n, opts.triplets_per_level);
  LMO_CHECK_MSG(!report.triplets.empty(),
                "scale fit sampled no triplets (degenerate topology)");
  const int depth = topo != nullptr ? topo->depth() : 1;
  const auto depth_sz = std::size_t(depth);

  std::map<int, stats::RunningStats> c_acc, t_acc;
  std::vector<stats::RunningStats> l_acc(depth_sz);
  std::vector<stats::RunningStats> ib_acc(depth_sz);
  const auto level_of = [&](int u, int v) {
    return topo != nullptr ? topo->lca_level(u, v) : 1;
  };

  // The per-triplet systems (8) and (11) of the exact fit, solved for the
  // sampled triplets only.
  for (const Triplet& nodes : report.triplets) {
    double c_of[3];
    for (int a = 0; a < 3; ++a) {
      const int root = nodes[std::size_t(a)];
      const int x1 = nodes[std::size_t((a + 1) % 3)];
      const int x2 = nodes[std::size_t((a + 2) % 3)];
      const double o2 = store.at(
          ExperimentKey::one_to_two(orient_0(store, root, x1, x2), 0, 0));
      const double mx = std::max(rt0(store, root, x1), rt0(store, root, x2));
      c_of[a] = (o2 - mx) / 2.0;
      c_acc[root].add(c_of[a]);
    }
    double l_of[3][3] = {};
    for (int a = 0; a < 3; ++a)
      for (int b = a + 1; b < 3; ++b) {
        const int u = nodes[std::size_t(a)], v = nodes[std::size_t(b)];
        const double l = rt0(store, u, v) / 2.0 - c_of[a] - c_of[b];
        l_of[a][b] = l;
        l_acc[std::size_t(level_of(u, v) - 1)].add(l);
      }
    double t_of[3];
    for (int a = 0; a < 3; ++a) {
      const int root = nodes[std::size_t(a)];
      const int x1 = nodes[std::size_t((a + 1) % 3)];
      const int x2 = nodes[std::size_t((a + 2) % 3)];
      const double o2m = store.at(
          ExperimentKey::one_to_two(orient_m(store, m, root, x1, x2), m, 0));
      const double mx =
          std::max(rt0(store, root, x1) + rtm(store, m, root, x1),
                   rt0(store, root, x2) + rtm(store, m, root, x2)) /
          2.0;
      t_of[a] = (o2m - mx - 2.0 * c_of[a]) / double(m);
      t_acc[root].add(t_of[a]);
    }
    for (int a = 0; a < 3; ++a)
      for (int b = a + 1; b < 3; ++b) {
        const int u = nodes[std::size_t(a)], v = nodes[std::size_t(b)];
        const double inv_beta =
            (rtm(store, m, u, v) / 2.0 - c_of[a] - l_of[a][b] - c_of[b]) /
                double(m) -
            t_of[a] - t_of[b];
        ib_acc[std::size_t(level_of(u, v) - 1)].add(inv_beta);
      }
  }

  // Assemble: negative estimates (noise artifacts) clamp to zero, exactly
  // like the exact fit.
  stats::RunningStats c_all, t_all;
  for (const auto& [rank, acc] : c_acc) {
    report.sampled_ranks.push_back(rank);
    report.C.push_back(clamped(acc));
    c_all.add(report.C.back());
  }
  for (const auto& [rank, acc] : t_acc) {
    (void)rank;
    report.t.push_back(clamped(acc));
    t_all.add(report.t.back());
  }
  report.C_mean = c_all.mean();
  report.t_mean = t_all.mean();

  report.per_level.assign(std::size_t(depth), core::LevelLink{});
  for (int l = 0; l < depth; ++l) {
    core::LevelLink& link = report.per_level[std::size_t(l)];
    link.pairs = int(l_acc[std::size_t(l)].count());
    if (link.pairs == 0) continue;  // level unsampled: stays zero
    link.L = clamped(l_acc[std::size_t(l)]);
    link.inv_beta = clamped(ib_acc[std::size_t(l)]);
  }

  if (opts.cluster != nullptr && opts.cluster->has_profiles()) {
    LMO_CHECK_MSG(opts.cluster->size() == n,
                  "scale fit: cluster has " +
                      std::to_string(opts.cluster->size()) +
                      " nodes, store covers " + std::to_string(n));
    report.profile_of = opts.cluster->profile_of;
    report.per_profile.assign(opts.cluster->profiles.size(), ProfileParams{});
    std::vector<stats::RunningStats> pc(report.per_profile.size());
    std::vector<stats::RunningStats> pt(report.per_profile.size());
    for (std::size_t s = 0; s < report.sampled_ranks.size(); ++s) {
      const auto p = std::size_t(
          report.profile_of[std::size_t(report.sampled_ranks[s])]);
      pc[p].add(report.C[s]);
      pt[p].add(report.t[s]);
    }
    for (std::size_t p = 0; p < report.per_profile.size(); ++p) {
      report.per_profile[p].sampled = int(pc[p].count());
      if (report.per_profile[p].sampled == 0) continue;
      report.per_profile[p].C = pc[p].mean();
      report.per_profile[p].t = pt[p].mean();
    }
  }
  return report;
}

ScaleLmoReport estimate_scale_lmo(Experimenter& ex, MeasurementStore& store,
                                  const ScaleOptions& opts_in,
                                  const ShardSpec& shard) {
  const int n = ex.size();
  ScaleOptions opts = opts_in;
  if (opts.topology == nullptr) opts.topology = ex.topology();
  check_options(n, opts);
  const std::vector<Triplet> triplets =
      sample_scale_triplets(opts.topology, n, opts.triplets_per_level);
  const std::uint64_t runs0 = ex.runs();
  const SimTime cost0 = ex.cost();

  const auto partial = [&](std::size_t rts, std::size_t o2s) {
    // Sharded first pass over a cold store: this process measured only
    // its slice, so later stages (whose plans read the full stage) must
    // wait for the merge. Report sampling and cost; no fit.
    ScaleLmoReport r;
    r.ranks = n;
    r.triplets = triplets;
    r.roundtrip_experiments = rts;
    r.one_to_two_experiments = o2s;
    r.world_runs = ex.runs() - runs0;
    r.estimation_cost = ex.cost() - cost0;
    return r;
  };

  std::size_t rt_unique = 0;
  {
    const obs::Span sp = obs::span("scale.roundtrips");
    PlanBuilder stage1(opts.topology);
    plan_scale_roundtrips(stage1, triplets, opts);
    const ExperimentPlan built = stage1.build(opts.parallel);
    rt_unique = built.experiments();
    (void)execute_plan(built, ex, store, shard);
  }
  if (shard.active() && !have_roundtrips(store, triplets, opts.probe_size))
    return partial(rt_unique, 0);

  std::size_t o2_unique = 0;
  {
    const obs::Span sp = obs::span("scale.one_to_two");
    PlanBuilder stage2(opts.topology);
    plan_scale_one_to_two(stage2, store, triplets, opts);
    const ExperimentPlan built = stage2.build(opts.parallel);
    o2_unique = built.experiments();
    (void)execute_plan(built, ex, store, shard);
  }
  if (shard.active() && !have_one_to_two(store, triplets, opts.probe_size))
    return partial(rt_unique, o2_unique);

  ScaleLmoReport report = fit_scale_lmo(store, n, opts);
  report.roundtrip_experiments = rt_unique;
  report.one_to_two_experiments = o2_unique;
  report.world_runs = ex.runs() - runs0;
  report.estimation_cost = ex.cost() - cost0;
  return report;
}

}  // namespace lmo::estimate
