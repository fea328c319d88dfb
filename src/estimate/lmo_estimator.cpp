#include "estimate/lmo_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "estimate/measurement_store.hpp"
#include "obs/metrics.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

namespace {
/// Accumulates redundant estimates of one parameter (eq. 12).
class Averager {
 public:
  explicit Averager(bool average) : average_(average) {}
  void add(double v) {
    if (!average_ && s_.count() > 0) return;  // first-triplet-wins ablation
    s_.add(v);
  }
  [[nodiscard]] double value() const { return s_.mean(); }

 private:
  bool average_;
  stats::RunningStats s_;
};

void check_options(int n, const LmoOptions& opts) {
  LMO_CHECK_MSG(n >= 3, "LMO estimation needs at least three processors");
  LMO_CHECK(opts.probe_size > 0);
}

/// Everything eqs. (8)/(11) read for one triplet, by node position.
struct TripletMeasurements {
  Triplet nodes{};
  double t0[3][3] = {};  ///< T_uv(0) between positions u, v (symmetric)
  double tm[3][3] = {};  ///< T_uv(M)
  double o2[6] = {};     ///< one-to-two times, in triplet_one_to_two_keys order
};

/// The triplet with its round-trips read; one-to-two times still unset.
TripletMeasurements read_roundtrips(const MeasurementStore& store,
                                    const Triplet& nodes, Bytes m) {
  TripletMeasurements x;
  x.nodes = nodes;
  for (const auto& [a, b] : kTripletPairs) {
    const int u = nodes[std::size_t(a)], v = nodes[std::size_t(b)];
    const double t0 = store.at(ExperimentKey::roundtrip(u, v, 0, 0));
    const double tm = store.at(ExperimentKey::roundtrip(u, v, m, m));
    // The triplet systems difference and divide these; a NaN/inf here
    // (corrupt store edit) would silently poison every parameter it
    // touches, so fail loudly with the pair named.
    LMO_CHECK_MSG(std::isfinite(t0) && std::isfinite(tm),
                  "LMO fit read a non-finite round-trip for pair " +
                      std::to_string(std::min(u, v)) + "," +
                      std::to_string(std::max(u, v)));
    x.t0[a][b] = x.t0[b][a] = t0;
    x.tm[a][b] = x.tm[b][a] = tm;
  }
  return x;
}

// Orientation: the "far" child is sent last and received first, which
// puts the root's serialized processing on the critical path exactly as
// eqs. (8)/(11) assume. "Far" must agree with the max in the equation
// being solved: argmax T_ix(0) for the empty experiment (eq. 8) and
// argmax (T_ix(0) + T_ix(M)) for the probe experiment (eq. 11) — the two
// can disagree when a processor pairs a slow CPU with a fast link. Ties
// resolve on canonical node order. Derived from *stored* round-trips, the
// orientation is a pure function of the store — refits orient identically.
Triplet orient(int root, int x, int y, double far_x, double far_y) {
  if (x > y) {
    std::swap(x, y);
    std::swap(far_x, far_y);
  }
  return far_x >= far_y ? Triplet{root, y, x} : Triplet{root, x, y};
}

std::array<ExperimentKey, 6> oriented_keys(const TripletMeasurements& x,
                                           Bytes m) {
  std::array<ExperimentKey, 6> keys;
  for (int a = 0; a < 3; ++a) {
    const int b = (a + 1) % 3, c = (a + 2) % 3;
    const int root = x.nodes[std::size_t(a)];
    const int nb = x.nodes[std::size_t(b)], nc = x.nodes[std::size_t(c)];
    keys[std::size_t(2 * a)] = ExperimentKey::one_to_two(
        orient(root, nb, nc, x.t0[a][b], x.t0[a][c]), 0, 0);
    keys[std::size_t(2 * a + 1)] = ExperimentKey::one_to_two(
        orient(root, nb, nc, x.t0[a][b] + x.tm[a][b],
               x.t0[a][c] + x.tm[a][c]),
        m, 0);
  }
  return keys;
}

/// Eqs. (8)/(11) proper: arithmetic on the read values only.
TripletSolution solve(const TripletMeasurements& x, Bytes m) {
  TripletSolution s;
  for (int a = 0; a < 3; ++a) {  // per root: C (eq. 8), then t (eq. 11)
    const int b = (a + 1) % 3, c = (a + 2) % 3;
    s.C[a] = (x.o2[2 * a] - std::max(x.t0[a][b], x.t0[a][c])) / 2.0;
    const double mx =
        std::max(x.t0[a][b] + x.tm[a][b], x.t0[a][c] + x.tm[a][c]) / 2.0;
    s.t[a] = (x.o2[2 * a + 1] - mx - 2.0 * s.C[a]) / double(m);
  }
  for (std::size_t p = 0; p < 3; ++p) {  // per pair: L (8), then 1/beta (11)
    const auto [a, b] = kTripletPairs[p];
    s.L[p] = x.t0[a][b] / 2.0 - s.C[a] - s.C[b];
    s.inv_beta[p] =
        (x.tm[a][b] / 2.0 - s.C[a] - s.L[p] - s.C[b]) / double(m) - s.t[a] -
        s.t[b];
  }
  return s;
}
}  // namespace

std::array<ExperimentKey, 6> triplet_one_to_two_keys(
    const MeasurementStore& store, const Triplet& nodes, Bytes m) {
  return oriented_keys(read_roundtrips(store, nodes, m), m);
}

TripletSolution solve_triplet(const MeasurementStore& store,
                              const Triplet& nodes, Bytes m) {
  TripletMeasurements x = read_roundtrips(store, nodes, m);
  const std::array<ExperimentKey, 6> keys = oriented_keys(x, m);
  for (std::size_t k = 0; k < keys.size(); ++k) x.o2[k] = store.at(keys[k]);
  return solve(x, m);
}

TripletStages run_triplet_stages(
    Experimenter& ex, MeasurementStore& store, const sim::Topology* topo,
    bool parallel, const ShardSpec& shard, const std::string& name,
    const std::function<void(PlanBuilder&)>& plan_roundtrips,
    const std::function<void(PlanBuilder&)>& plan_one_to_two) {
  TripletStages out;
  // One stage: plan, execute (this shard's slice), publish its platform
  // cost, and tell whether the store now holds all of it. Unsharded
  // execution measures every missing key, so only a shard can stop short.
  const auto stage = [&](const std::string& what,
                         const std::function<void(PlanBuilder&)>& plan_fn,
                         std::size_t& planned) {
    const obs::Span sp = obs::span(name + "." + what);
    const SimTime cost0 = ex.cost();
    PlanBuilder plan(topo);
    plan_fn(plan);
    const ExperimentPlan built = plan.build(parallel);
    planned = built.experiments();
    (void)execute_plan(built, ex, store, shard);
    obs::Registry::global()
        .gauge(name + ".cost_" + what + "_s")
        .set((ex.cost() - cost0).seconds());
    return !shard.active() || store_holds(store, built.rounds);
  };
  out.complete = stage("roundtrips", plan_roundtrips, out.roundtrips) &&
                 stage("one_to_two", plan_one_to_two, out.one_to_two);
  return out;
}

void plan_lmo_roundtrips(PlanBuilder& plan, int n, const LmoOptions& opts) {
  check_options(n, opts);
  for (const auto& [i, j] : all_pairs(n)) {
    plan.require(ExperimentKey::roundtrip(i, j, 0, 0));
    plan.require(
        ExperimentKey::roundtrip(i, j, opts.probe_size, opts.probe_size));
  }
}

void plan_lmo_one_to_two(PlanBuilder& plan, const MeasurementStore& store,
                         int n, const LmoOptions& opts) {
  check_options(n, opts);
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      for (int k = j + 1; k < n; ++k)
        for (const ExperimentKey& key :
             triplet_one_to_two_keys(store, {i, j, k}, opts.probe_size))
          plan.require(key);
}

LmoReport fit_lmo(const MeasurementStore& store, int n,
                  const LmoOptions& opts) {
  const obs::Span solve_sp = obs::span("lmo.solve", "fit");
  check_options(n, opts);
  const Bytes m = opts.probe_size;

  LmoReport report;
  report.roundtrip_experiments = n * (n - 1) / 2;
  report.one_to_two_experiments = 3 * (n * (n - 1) * (n - 2) / 6);

  // ---- Per-triplet systems (8) and (11), averaged per (12). ----
  // Pair accumulators are indexed [min][max]: both directions of a pair
  // take the same estimates.
  const Averager fresh(opts.redundancy_averaging);
  std::vector<Averager> c_acc(std::size_t(n), fresh), t_acc = c_acc;
  std::vector<std::vector<Averager>> l_acc(std::size_t(n), c_acc);
  auto ib_acc = l_acc;
  for (int i = 0; i < n; ++i)
    for (int j = i + 1; j < n; ++j)
      for (int k = j + 1; k < n; ++k) {
        const Triplet nodes{i, j, k};
        const TripletSolution s = solve_triplet(store, nodes, m);
        for (std::size_t a = 0; a < 3; ++a) {
          c_acc[std::size_t(nodes[a])].add(s.C[a]);
          t_acc[std::size_t(nodes[a])].add(s.t[a]);
        }
        for (std::size_t p = 0; p < 3; ++p) {
          const auto u = std::size_t(nodes[std::size_t(kTripletPairs[p][0])]);
          const auto v = std::size_t(nodes[std::size_t(kTripletPairs[p][1])]);
          l_acc[u][v].add(s.L[p]);
          ib_acc[u][v].add(s.inv_beta[p]);
        }
      }

  // ---- Assemble. Negative estimates (noise artifacts) clamp to zero. ----
  core::LmoParams& p = report.params;
  p.L = models::PairTable(n);
  p.inv_beta = models::PairTable(n);
  for (int i = 0; i < n; ++i) {
    p.C.push_back(std::max(0.0, c_acc[std::size_t(i)].value()));
    p.t.push_back(std::max(0.0, t_acc[std::size_t(i)].value()));
    for (int j = i + 1; j < n; ++j) {
      p.L(i, j) = p.L(j, i) =
          std::max(0.0, l_acc[std::size_t(i)][std::size_t(j)].value());
      p.inv_beta(i, j) = p.inv_beta(j, i) =
          std::max(0.0, ib_acc[std::size_t(i)][std::size_t(j)].value());
    }
  }

  // ---- Per-level aggregation over the resource tree (when known). ----
  // Pairs collapse onto their LCA level: the mean fitted L/1-over-beta of
  // each level is the per-level link parameter priced_by_path() expands
  // back into pair tables.
  const sim::Topology* topo =
      opts.topology != nullptr && !opts.topology->empty() ? opts.topology
                                                          : nullptr;
  if (topo != nullptr) {
    LMO_CHECK_MSG(topo->ranks() == n,
                  "LMO fit: topology places " + std::to_string(topo->ranks()) +
                      " ranks, store covers " + std::to_string(n));
    p.per_level.assign(std::size_t(topo->depth()), core::LevelLink{});
    for (int i = 0; i < n; ++i)
      for (int j = i + 1; j < n; ++j) {
        core::LevelLink& link =
            p.per_level[std::size_t(topo->lca_level(i, j) - 1)];
        link.L += p.L(i, j);
        link.inv_beta += p.inv_beta(i, j);
        ++link.pairs;
      }
    for (core::LevelLink& link : p.per_level) {
      if (link.pairs == 0) continue;
      link.L /= link.pairs;
      link.inv_beta /= link.pairs;
    }
  }

  // Fidelity: the fitted model's round-trips vs the measured tables the
  // triplet systems consumed. Redundancy averaging and the >= 0 clamps
  // make these non-trivial even though the inputs were fitted. Stamped
  // with the pair's LCA level when the resource tree is known, so the
  // fidelity report can break residuals down per level.
  if (obs::global_residuals()) {
    for (const auto& [i, j] : all_pairs(n)) {
      const int level = topo != nullptr ? topo->lca_level(i, j) : -1;
      obs::record_residual("lmo", "roundtrip",
                           obs::ResidualScope::kPointToPoint, level, 0,
                           2.0 * p.pt2pt(i, j, 0),
                           store.at(ExperimentKey::roundtrip(i, j, 0, 0)));
      obs::record_residual("lmo", "roundtrip",
                           obs::ResidualScope::kPointToPoint, level,
                           std::uint64_t(m), 2.0 * p.pt2pt(i, j, m),
                           store.at(ExperimentKey::roundtrip(i, j, m, m)));
    }
  }
  return report;
}

LmoReport estimate_lmo(Experimenter& ex, MeasurementStore& store,
                       const LmoOptions& opts_in, const ShardSpec& shard) {
  const int n = ex.size();
  LmoOptions opts = opts_in;
  if (opts.topology == nullptr) opts.topology = ex.topology();
  check_options(n, opts);
  const std::uint64_t runs0 = ex.runs();
  const SimTime cost0 = ex.cost();

  const TripletStages stages = run_triplet_stages(
      ex, store, opts.topology, opts.parallel, shard, "lmo",
      [&](PlanBuilder& plan) { plan_lmo_roundtrips(plan, n, opts); },
      [&](PlanBuilder& plan) { plan_lmo_one_to_two(plan, store, n, opts); });

  LmoReport report;
  if (stages.complete) {
    report = fit_lmo(store, n, opts);
  } else {
    // A sharded pass over a store that lacks other shards' results: report
    // what was planned, fit nothing.
    report.roundtrip_experiments = n * (n - 1) / 2;
    if (stages.one_to_two > 0)
      report.one_to_two_experiments = 3 * (n * (n - 1) * (n - 2) / 6);
  }
  report.world_runs = ex.runs() - runs0;
  report.estimation_cost = ex.cost() - cost0;

  obs::Registry::global().gauge("lmo.cost_total_s").set(
      report.estimation_cost.seconds());
  return report;
}

LmoReport estimate_lmo(Experimenter& ex, const LmoOptions& opts) {
  MeasurementStore local;
  return estimate_lmo(ex, local, opts);
}

}  // namespace lmo::estimate
