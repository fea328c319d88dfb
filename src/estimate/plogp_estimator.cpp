#include "estimate/plogp_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <set>

#include "estimate/measurement_store.hpp"
#include "obs/residuals.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

namespace {

/// Safety cap on the points of one pair's sweep, bisections included.
constexpr int kMaxPoints = 40;

/// The ladder prefix the sweep can visit: 0, 1KB, 2KB, ..., max_size,
/// capped at kMaxPoints (the cap applies before any bisection).
std::vector<Bytes> ladder(const PLogPOptions& opts) {
  LMO_CHECK(opts.max_size >= 2048);
  std::vector<Bytes> sizes{0};
  for (Bytes m = 1024; m < opts.max_size; m *= 2) sizes.push_back(m);
  sizes.push_back(opts.max_size);
  if (int(sizes.size()) > kMaxPoints)
    sizes.resize(std::size_t(kMaxPoints));
  return sizes;
}

/// The three experiments of one breakpoint, in measurement order.
std::array<ExperimentKey, 3> point_keys(int i, int j, Bytes m,
                                        const PLogPOptions& opts) {
  return {ExperimentKey::saturation_gap(i, j, m, opts.saturation_count),
          ExperimentKey::send_overhead(i, j, m),
          ExperimentKey::recv_overhead(i, j, m)};
}

void plan_pair(PlanBuilder& plan, int i, int j, const PLogPOptions& opts) {
  for (const Bytes m : ladder(opts))
    for (const ExperimentKey& key : point_keys(i, j, m, opts))
      plan.require(key);
  plan.require(ExperimentKey::roundtrip(i, j, 0, 0));
}

/// Walk one pair's ladder over the store, tracking adaptive bisection: if
/// g(M_k) is not consistent with the linear extrapolation based on the
/// previous two breakpoints, the midpoint (M_{k-1} + M_k)/2 is read as
/// well, after `ensure(mid)` has had the chance to measure it. Every value
/// is read with store.at, so quarantined keys count as present. L is left
/// to the fit.
models::PLogP sweep_pair(const MeasurementStore& store, int i, int j,
                         const PLogPOptions& opts,
                         const std::function<void(Bytes)>& ensure) {
  models::PLogP p;
  auto read_point = [&](Bytes m) {
    const auto [gap, os, orr] = point_keys(i, j, m, opts);
    const double g = store.at(gap);
    p.g.add_point(double(m), g);
    p.os.add_point(double(m), store.at(os));
    p.orr.add_point(double(m), store.at(orr));
    return g;
  };

  std::vector<Bytes> visited;
  for (const Bytes m : ladder(opts)) {
    if (int(p.g.size()) >= kMaxPoints) break;
    double predicted = 0.0;
    const bool can_extrapolate = p.g.size() >= 2;
    if (can_extrapolate) predicted = p.g.extrapolate_from_last_two(double(m));
    const double g = read_point(m);
    visited.push_back(m);
    // Injected outliers can make the extrapolation slope wild or the gap
    // itself degenerate; only a finite positive gap with a finite
    // prediction may trigger bisection (otherwise the ladder stands).
    if (can_extrapolate && g > 0.0 && std::isfinite(g) &&
        std::isfinite(predicted)) {
      const double err = std::fabs(predicted - g) / g;
      if (err > opts.tolerance && visited.size() >= 2 &&
          int(p.g.size()) < kMaxPoints) {
        const Bytes prev = visited[visited.size() - 2];
        const Bytes mid = (prev + m) / 2;
        if (mid != prev && mid != m) {
          ensure(mid);
          (void)read_point(mid);
        }
      }
    }
  }
  return p;
}

/// Stage 2 for one pair: each missing midpoint key as its own plan.
void measure_pair_midpoints(Experimenter& ex, MeasurementStore& store, int i,
                            int j, const PLogPOptions& opts,
                            ExecuteStats& stats) {
  (void)sweep_pair(store, i, j, opts, [&](Bytes mid) {
    for (const ExperimentKey& key : point_keys(i, j, mid, opts)) {
      PlanBuilder plan(ex.topology());
      plan.require(key);
      const ExecuteStats s = execute_plan(plan.build(true), ex, store);
      stats.measured += s.measured;
      stats.cached += s.cached;
      stats.rounds += s.rounds;
    }
  });
}

/// The sweep plus L = RTT(0)/2 - g(0), from the store only.
models::PLogP fit_pair(const MeasurementStore& store, int i, int j,
                       const PLogPOptions& opts) {
  models::PLogP p = sweep_pair(store, i, j, opts, [](Bytes) {});
  const double rtt0 = store.at(ExperimentKey::roundtrip(i, j, 0, 0));
  p.L = std::max(0.0, rtt0 / 2.0 - p.g(0.0));
  // Fidelity: the fitted curve's empty-message round-trip (2·(L + g(0)))
  // vs the measured one it was derived from — non-zero exactly when the
  // L >= 0 clamp bit.
  obs::record_residual("plogp", "roundtrip",
                       obs::ResidualScope::kPointToPoint, -1, 0,
                       2.0 * (p.L + p.g(0.0)), rtt0);
  return p;
}

/// Every directed pair, sender-major.
std::vector<Pair> directed_pairs(int n) {
  std::vector<Pair> pairs;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (i != j) pairs.emplace_back(i, j);
  return pairs;
}

}  // namespace

void plan_plogp(PlanBuilder& plan, int n, const PLogPOptions& opts) {
  LMO_CHECK(n >= 2);
  for (const auto& [i, j] : directed_pairs(n)) plan_pair(plan, i, j, opts);
}

ExecuteStats measure_plogp_midpoints(Experimenter& ex, MeasurementStore& store,
                                     const PLogPOptions& opts) {
  const obs::Span sp = obs::span("plogp.midpoints");
  ExecuteStats stats;
  for (const auto& [i, j] : directed_pairs(ex.size()))
    measure_pair_midpoints(ex, store, i, j, opts, stats);
  return stats;
}

PLogPReport fit_plogp(const MeasurementStore& store, int n,
                      const PLogPOptions& opts) {
  const obs::Span sp = obs::span("plogp.fit", "fit");
  LMO_CHECK(n >= 2);
  PLogPReport report;
  report.pairs = directed_pairs(n);
  report.per_pair.reserve(report.pairs.size());
  for (const auto& [i, j] : report.pairs)
    report.per_pair.push_back(fit_pair(store, i, j, opts));

  // Average on the union of all breakpoints.
  std::set<double> xs;
  double latency_sum = 0.0;
  for (const auto& p : report.per_pair) {
    latency_sum += p.L;
    for (double x : p.g.xs()) xs.insert(x);
  }
  report.averaged.L = latency_sum / double(report.per_pair.size());
  for (const double x : xs) {
    double g = 0, os = 0, orr = 0;
    for (const auto& p : report.per_pair) {
      g += p.g(x);
      os += p.os(x);
      orr += p.orr(x);
    }
    const double k = double(report.per_pair.size());
    report.averaged.g.add_point(x, g / k);
    report.averaged.os.add_point(x, os / k);
    report.averaged.orr.add_point(x, orr / k);
  }
  return report;
}

PLogPReport estimate_plogp(Experimenter& ex, MeasurementStore& store,
                           const PLogPOptions& opts) {
  const obs::Span sp = obs::span("plogp.estimate");
  const std::uint64_t runs0 = ex.runs();
  const SimTime cost0 = ex.cost();
  {
    const obs::Span exec_sp = obs::span("plogp.ladder");
    PlanBuilder plan(ex.topology());
    plan_plogp(plan, ex.size(), opts);
    (void)execute_plan(plan.build(true), ex, store);
  }
  (void)measure_plogp_midpoints(ex, store, opts);
  PLogPReport report = fit_plogp(store, ex.size(), opts);
  report.world_runs = ex.runs() - runs0;
  report.estimation_cost = ex.cost() - cost0;
  return report;
}

PLogPReport estimate_plogp(Experimenter& ex, const PLogPOptions& opts) {
  MeasurementStore local;
  return estimate_plogp(ex, local, opts);
}

models::HeteroPLogP hetero_plogp(const PLogPReport& report, int n) {
  LMO_CHECK(n >= 2);
  LMO_CHECK(report.pairs.size() == report.per_pair.size());
  models::HeteroPLogP h;
  h.L = models::PairTable(n);
  h.g.assign(std::size_t(n),
             std::vector<stats::PiecewiseLinear>(std::size_t(n)));
  h.os.resize(std::size_t(n));
  h.orr.resize(std::size_t(n));

  // Per-link parameters straight from the directed pair estimates:
  // g[i][j] is the sender-i gap toward j.
  for (std::size_t e = 0; e < report.pairs.size(); ++e) {
    const auto [i, j] = report.pairs[e];
    LMO_CHECK(i >= 0 && i < n && j >= 0 && j < n);
    const auto& p = report.per_pair[e];
    h.L(i, j) = p.L;
    h.g[std::size_t(i)][std::size_t(j)] = p.g;
  }
  // Per-processor overheads: average each processor's curves over all its
  // links, on the union of breakpoints.
  for (int node = 0; node < n; ++node) {
    std::set<double> xs;
    std::vector<const models::PLogP*> mine;
    for (std::size_t e = 0; e < report.pairs.size(); ++e) {
      const auto [i, j] = report.pairs[e];
      if (i != node && j != node) continue;
      mine.push_back(&report.per_pair[e]);
      for (double x : report.per_pair[e].os.xs()) xs.insert(x);
      for (double x : report.per_pair[e].orr.xs()) xs.insert(x);
    }
    LMO_CHECK_MSG(!mine.empty(), "processor missing from pair estimates");
    for (const double x : xs) {
      double os_sum = 0, orr_sum = 0;
      for (const auto* p : mine) {
        os_sum += p->os(x);
        orr_sum += p->orr(x);
      }
      h.os[std::size_t(node)].add_point(x, os_sum / double(mine.size()));
      h.orr[std::size_t(node)].add_point(x, orr_sum / double(mine.size()));
    }
  }
  return h;
}

}  // namespace lmo::estimate
