#include "estimate/scale_estimator.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <utility>

#include "estimate/lmo_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "obs/trace.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

namespace {

double clamped(const stats::RunningStats& s) {
  return std::max(0.0, s.mean());
}

/// A rank's broadcast processing parameter: its own fitted `own` value when
/// sampled, else its profile's mean, else the global `mean`.
double broadcast(const ScaleLmoReport& r, int rank,
                 const std::vector<double>& own, double ProfileParams::*field,
                 double mean) {
  const auto it =
      std::lower_bound(r.sampled_ranks.begin(), r.sampled_ranks.end(), rank);
  if (it != r.sampled_ranks.end() && *it == rank)
    return own[std::size_t(it - r.sampled_ranks.begin())];
  if (rank >= 0 && rank < int(r.profile_of.size())) {
    const ProfileParams& p =
        r.per_profile[std::size_t(r.profile_of[std::size_t(rank)])];
    if (p.sampled > 0) return p.*field;
  }
  return mean;
}

}  // namespace

double ScaleLmoReport::C_of(int rank) const {
  return broadcast(*this, rank, C, &ProfileParams::C, C_mean);
}

double ScaleLmoReport::t_of(int rank) const {
  return broadcast(*this, rank, t, &ProfileParams::t, t_mean);
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
    for (const auto& [a, b] : kTripletPairs) {
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
  for (const Triplet& t : triplets)
    for (const ExperimentKey& key :
         triplet_one_to_two_keys(store, t, opts.probe_size))
      plan.require(key);
}

ScaleLmoReport fit_scale_lmo(const MeasurementStore& store, int n,
                             const ScaleOptions& opts) {
  const obs::Span sp = obs::span("scale.solve", "fit");
  LMO_CHECK(opts.probe_size > 0);  // sampling checks n and the sample size
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

  struct RankAcc {
    stats::RunningStats C, t;
  };
  std::map<int, RankAcc> rank_acc;  // ordered: sampled_ranks ascending
  std::vector<stats::RunningStats> l_acc(static_cast<std::size_t>(depth));
  std::vector<stats::RunningStats> ib_acc = l_acc;
  const auto level_of = [&](int u, int v) {
    return topo != nullptr ? topo->lca_level(u, v) : 1;
  };

  // The exact fit's per-triplet solve, over the sampled triplets only.
  for (const Triplet& nodes : report.triplets) {
    const TripletSolution s = solve_triplet(store, nodes, m);
    for (std::size_t a = 0; a < 3; ++a) {
      rank_acc[nodes[a]].C.add(s.C[a]);
      rank_acc[nodes[a]].t.add(s.t[a]);
    }
    for (std::size_t p = 0; p < 3; ++p) {
      const auto level = std::size_t(
          level_of(nodes[std::size_t(kTripletPairs[p][0])],
                   nodes[std::size_t(kTripletPairs[p][1])]) -
          1);
      l_acc[level].add(s.L[p]);
      ib_acc[level].add(s.inv_beta[p]);
    }
  }

  // Assemble: negative estimates (noise artifacts) clamp to zero, exactly
  // like the exact fit.
  stats::RunningStats c_all, t_all;
  for (const auto& [rank, acc] : rank_acc) {
    report.sampled_ranks.push_back(rank);
    report.C.push_back(clamped(acc.C));
    report.t.push_back(clamped(acc.t));
    c_all.add(report.C.back());
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
    std::vector<RankAcc> profile_acc(report.per_profile.size());
    for (std::size_t s = 0; s < report.sampled_ranks.size(); ++s) {
      RankAcc& acc = profile_acc[std::size_t(
          report.profile_of[std::size_t(report.sampled_ranks[s])])];
      acc.C.add(report.C[s]);
      acc.t.add(report.t[s]);
    }
    for (std::size_t p = 0; p < report.per_profile.size(); ++p) {
      report.per_profile[p].sampled = int(profile_acc[p].C.count());
      if (report.per_profile[p].sampled == 0) continue;
      report.per_profile[p].C = profile_acc[p].C.mean();
      report.per_profile[p].t = profile_acc[p].t.mean();
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
  const std::vector<Triplet> triplets =
      sample_scale_triplets(opts.topology, n, opts.triplets_per_level);
  const std::uint64_t runs0 = ex.runs();
  const SimTime cost0 = ex.cost();

  const TripletStages stages = run_triplet_stages(
      ex, store, opts.topology, opts.parallel, shard, "scale",
      [&](PlanBuilder& plan) { plan_scale_roundtrips(plan, triplets, opts); },
      [&](PlanBuilder& plan) {
        plan_scale_one_to_two(plan, store, triplets, opts);
      });

  // A sharded pass over a store that lacks other shards' results reports
  // sampling and cost, and fits nothing.
  ScaleLmoReport report;
  report.ranks = n;
  report.triplets = triplets;
  if (stages.complete) report = fit_scale_lmo(store, n, opts);
  report.roundtrip_experiments = stages.roundtrips;
  report.one_to_two_experiments = stages.one_to_two;
  report.world_runs = ex.runs() - runs0;
  report.estimation_cost = ex.cost() - cost0;
  return report;
}

}  // namespace lmo::estimate
