#include "obs/metrics.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace lmo::obs {

void Histogram::observe(double x) {
  if (!h_) return;
  const auto it = std::lower_bound(h_->bounds.begin(), h_->bounds.end(), x);
  const auto idx = std::size_t(it - h_->bounds.begin());
  h_->counts[idx].fetch_add(1, std::memory_order_relaxed);
  h_->total.fetch_add(1, std::memory_order_relaxed);
  double cur = h_->sum.load(std::memory_order_relaxed);
  while (!h_->sum.compare_exchange_weak(cur, cur + x,
                                        std::memory_order_relaxed)) {
  }
}

double Snapshot::Hist::quantile(double q) const {
  if (total == 0 || bounds.empty()) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  const double target = q * double(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t c = counts[i];
    if (c == 0) continue;
    if (double(cum) + double(c) >= target) {
      if (i >= bounds.size()) return bounds.back();  // overflow bucket
      const double lo = i == 0 ? std::min(0.0, bounds[0]) : bounds[i - 1];
      const double hi = bounds[i];
      double frac = (target - double(cum)) / double(c);
      frac = std::min(std::max(frac, 0.0), 1.0);
      return lo + (hi - lo) * frac;
    }
    cum += c;
  }
  return bounds.back();
}

Json Snapshot::to_json() const {
  Json out = Json::object();
  Json& c = out["counters"] = Json::object();
  for (const auto& [k, v] : counters) c[k] = v;
  Json& g = out["gauges"] = Json::object();
  for (const auto& [k, v] : gauges) g[k] = v;
  Json& h = out["histograms"] = Json::object();
  for (const auto& [k, hist] : histograms) {
    Json& e = h[k] = Json::object();
    Json bounds = Json::array();
    for (const double b : hist.bounds) bounds.push_back(b);
    e["bounds"] = std::move(bounds);
    Json counts = Json::array();
    for (const std::uint64_t n : hist.counts) counts.push_back(n);
    e["counts"] = std::move(counts);
    e["total"] = hist.total;
    e["sum"] = hist.sum;
    e["p50"] = hist.quantile(0.50);
    e["p95"] = hist.quantile(0.95);
    e["p99"] = hist.quantile(0.99);
  }
  return out;
}

Counter Registry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = counters_[name];
  if (!cell) cell = std::make_unique<detail::CounterCell>();
  return Counter(cell.get());
}

Gauge Registry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = gauges_[name];
  if (!cell) cell = std::make_unique<detail::GaugeCell>();
  return Gauge(cell.get());
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<double> bounds) {
  LMO_CHECK_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                "histogram bounds must be ascending: " + name);
  std::lock_guard<std::mutex> lock(mu_);
  auto& cell = histograms_[name];
  if (!cell) {
    cell = std::make_unique<detail::HistogramCell>(std::move(bounds));
  } else {
    LMO_CHECK_MSG(cell->bounds == bounds,
                  "histogram '" + name + "' re-registered with new bounds");
  }
  return Histogram(cell.get());
}

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  for (const auto& [k, c] : counters_)
    s.counters[k] = c->v.load(std::memory_order_relaxed);
  for (const auto& [k, g] : gauges_)
    s.gauges[k] = g->v.load(std::memory_order_relaxed);
  for (const auto& [k, h] : histograms_) {
    Snapshot::Hist out;
    out.bounds = h->bounds;
    out.counts.reserve(h->counts.size());
    for (const auto& c : h->counts)
      out.counts.push_back(c.load(std::memory_order_relaxed));
    out.total = h->total.load(std::memory_order_relaxed);
    out.sum = h->sum.load(std::memory_order_relaxed);
    s.histograms[k] = std::move(out);
  }
  return s;
}

Registry& Registry::global() {
  // Intentionally leaked: worker threads and exit-time report writers may
  // touch the registry during static teardown.
  static Registry* g = new Registry();
  return *g;
}

}  // namespace lmo::obs
