// Thread-safe metrics registry: counters, gauges, and fixed-bucket
// histograms behind cheap copyable handles.
//
// A handle is one pointer; reads/writes are relaxed atomics, so
// instrumentation on hot paths costs one atomic RMW and never takes a
// lock. Name resolution (Registry::counter & co.) takes the registry
// mutex — resolve handles once, up front, and keep them.
//
// Aggregation model: simulation sessions are single-threaded and
// ephemeral, so they count locally in plain structs (their per-session
// scope, see vmpi::SessionMetrics) and publish into a Registry when their
// results are *committed* — speculative repetitions the adaptive stopping
// rule discards never reach the registry, which keeps the global snapshot
// as jobs-independent as the estimates themselves. snapshot() captures a
// point-in-time copy that merges and serializes to JSON (run reports).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace lmo::obs {

namespace detail {
struct CounterCell {
  std::atomic<std::uint64_t> v{0};
};
struct GaugeCell {
  std::atomic<double> v{0.0};
};
struct HistogramCell {
  explicit HistogramCell(std::vector<double> b)
      : bounds(std::move(b)), counts(bounds.size() + 1) {}
  const std::vector<double> bounds;  ///< ascending bucket upper bounds
  std::vector<std::atomic<std::uint64_t>> counts;  ///< +1 overflow bucket
  std::atomic<std::uint64_t> total{0};
  std::atomic<double> sum{0.0};
};
}  // namespace detail

/// Monotonic event count. Default-constructed handles are inert no-ops.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t d = 1) {
    if (c_) c_->v.fetch_add(d, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return c_ ? c_->v.load(std::memory_order_relaxed) : 0;
  }

 private:
  friend class Registry;
  explicit Counter(detail::CounterCell* c) : c_(c) {}
  detail::CounterCell* c_ = nullptr;
};

/// Last-written (set) or running-maximum (update_max) value.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) {
    if (g_) g_->v.store(v, std::memory_order_relaxed);
  }
  void update_max(double v) {
    if (!g_) return;
    double cur = g_->v.load(std::memory_order_relaxed);
    while (v > cur &&
           !g_->v.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return g_ ? g_->v.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Gauge(detail::GaugeCell* g) : g_(g) {}
  detail::GaugeCell* g_ = nullptr;
};

/// Fixed-bucket histogram: bucket i counts observations x with
/// bounds[i-1] < x <= bounds[i]; one extra bucket overflows past the last
/// bound. Bounds are fixed at registration so concurrent observes never
/// rebalance.
class Histogram {
 public:
  Histogram() = default;
  void observe(double x);
  [[nodiscard]] std::uint64_t total() const {
    return h_ ? h_->total.load(std::memory_order_relaxed) : 0;
  }
  [[nodiscard]] double sum() const {
    return h_ ? h_->sum.load(std::memory_order_relaxed) : 0.0;
  }

 private:
  friend class Registry;
  explicit Histogram(detail::HistogramCell* h) : h_(h) {}
  detail::HistogramCell* h_ = nullptr;
};

/// Point-in-time copy of a registry's contents.
struct Snapshot {
  struct Hist {
    std::vector<double> bounds;
    std::vector<std::uint64_t> counts;
    std::uint64_t total = 0;
    double sum = 0.0;

    /// Quantile estimate, exact with respect to the stored buckets:
    /// walk the cumulative counts to the bucket holding rank q·total and
    /// interpolate linearly inside it (bucket 0 starts at
    /// min(0, bounds[0]); the overflow bucket clamps to the last bound).
    /// Empty histograms give 0.
    [[nodiscard]] double quantile(double q) const;
  };
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Hist> histograms;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name:
  ///  {"bounds": [...], "counts": [...], "total": N, "sum": S,
  ///   "p50": ..., "p95": ..., "p99": ...}}}
  [[nodiscard]] Json to_json() const;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Resolve (creating on first use) a metric handle. Handles stay valid
  /// for the registry's lifetime; resolving the same name returns a handle
  /// to the same cell.
  [[nodiscard]] Counter counter(const std::string& name);
  [[nodiscard]] Gauge gauge(const std::string& name);
  /// `bounds` must be ascending; re-registration with different bounds is
  /// an error.
  [[nodiscard]] Histogram histogram(const std::string& name,
                                    std::vector<double> bounds);

  [[nodiscard]] Snapshot snapshot() const;

  /// The process-wide registry every subsystem publishes into. Never
  /// destroyed, so instrumentation in static teardown stays safe.
  [[nodiscard]] static Registry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<detail::CounterCell>> counters_;
  std::map<std::string, std::unique_ptr<detail::GaugeCell>> gauges_;
  std::map<std::string, std::unique_ptr<detail::HistogramCell>> histograms_;
};

}  // namespace lmo::obs
