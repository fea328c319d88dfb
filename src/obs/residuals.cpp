#include "obs/residuals.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <set>

#include "util/error.hpp"

namespace lmo::obs {

namespace {

// Relative-error buckets: 1%, 2.5%, 5%, 10%, 25%, 50%, 100% + overflow.
const std::vector<double> kHistBounds = {0.01, 0.025, 0.05, 0.1,
                                         0.25, 0.5,   1.0};

int size_bucket(std::uint64_t bytes) {
  if (bytes == 0) return -1;
  int k = 0;
  while (bytes >>= 1) ++k;
  return k;  // floor(log2(bytes))
}

std::string size_bucket_label(int bucket) {
  if (bucket < 0) return "0";
  return std::to_string(std::uint64_t(1) << bucket);
}

// Streaming summary over a set of cells.
struct Agg {
  std::uint64_t count = 0;
  double abs_rel_sum = 0.0;
  double rel_sum = 0.0;
  double max_abs_rel = 0.0;

  void add(std::uint64_t n, double abs_rel, double rel, double max_rel) {
    count += n;
    abs_rel_sum += abs_rel;
    rel_sum += rel;
    max_abs_rel = std::max(max_abs_rel, max_rel);
  }

  [[nodiscard]] double mre() const {
    return count ? abs_rel_sum / double(count) : 0.0;
  }

  [[nodiscard]] Json to_json() const {
    Json j = Json::object();
    j["count"] = count;
    j["mre"] = mre();
    j["max_rel_err"] = max_abs_rel;
    j["bias"] = count ? rel_sum / double(count) : 0.0;
    return j;
  }
};

}  // namespace

void ResidualTracker::record(const std::string& model, const std::string& op,
                             ResidualScope scope, int level,
                             std::uint64_t bytes, double predicted,
                             double simulated) {
  std::lock_guard<std::mutex> lock(mu_);
  ++recorded_;
  if (!std::isfinite(predicted) || !std::isfinite(simulated) ||
      simulated <= 0.0) {
    ++invalid_;
    return;
  }
  const double rel = (predicted - simulated) / simulated;
  const double abs_rel = std::fabs(rel);
  Cell& cell = cells_[Key(model, op, int(scope), level, size_bucket(bytes))];
  if (cell.hist.empty()) cell.hist.assign(kHistBounds.size() + 1, 0);
  ++cell.count;
  cell.abs_rel_sum += abs_rel;
  cell.rel_sum += rel;
  cell.max_abs_rel = std::max(cell.max_abs_rel, abs_rel);
  const auto it =
      std::lower_bound(kHistBounds.begin(), kHistBounds.end(), abs_rel);
  ++cell.hist[std::size_t(it - kHistBounds.begin())];
}

std::uint64_t ResidualTracker::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recorded_;
}

Json ResidualTracker::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);

  // Per-model views over the flat cell map. std::map keys keep every
  // iteration order deterministic, so the document diffs cleanly.
  struct ModelView {
    Agg overall, pt2pt, collective;
    std::map<std::string, Agg> by_op;
    std::map<int, Agg> by_level;
    std::map<int, Agg> by_size;
    std::vector<std::uint64_t> hist =
        std::vector<std::uint64_t>(kHistBounds.size() + 1, 0);
    std::map<std::string, Agg> by_collective_op;
  };
  std::map<std::string, ModelView> models;
  for (const auto& [key, cell] : cells_) {
    const auto& [model, op, scope, level, bucket] = key;
    ModelView& mv = models[model];
    mv.overall.add(cell.count, cell.abs_rel_sum, cell.rel_sum,
                   cell.max_abs_rel);
    Agg& scoped = scope == int(ResidualScope::kCollective) ? mv.collective
                                                           : mv.pt2pt;
    scoped.add(cell.count, cell.abs_rel_sum, cell.rel_sum, cell.max_abs_rel);
    mv.by_op[op].add(cell.count, cell.abs_rel_sum, cell.rel_sum,
                     cell.max_abs_rel);
    mv.by_level[level].add(cell.count, cell.abs_rel_sum, cell.rel_sum,
                           cell.max_abs_rel);
    mv.by_size[bucket].add(cell.count, cell.abs_rel_sum, cell.rel_sum,
                           cell.max_abs_rel);
    for (std::size_t i = 0; i < cell.hist.size(); ++i)
      mv.hist[i] += cell.hist[i];
    if (scope == int(ResidualScope::kCollective))
      mv.by_collective_op[op].add(cell.count, cell.abs_rel_sum, cell.rel_sum,
                                  cell.max_abs_rel);
  }

  // Ranking: MRE ascending over the collective ops shared by every model
  // that recorded collective residuals. Ops only some models scored (e.g.
  // LMO-only empirical sweeps) are excluded so no model is penalized or
  // favored by coverage differences. Fallbacks keep the field present on
  // sparse documents.
  std::set<std::string> shared_ops;
  bool any_collective = false;
  for (const auto& [name, mv] : models) {
    if (mv.by_collective_op.empty()) continue;
    std::set<std::string> ops;
    for (const auto& [op, agg] : mv.by_collective_op) ops.insert(op);
    if (!any_collective) {
      shared_ops = std::move(ops);
      any_collective = true;
    } else {
      std::set<std::string> inter;
      std::set_intersection(shared_ops.begin(), shared_ops.end(), ops.begin(),
                            ops.end(), std::inserter(inter, inter.begin()));
      shared_ops = std::move(inter);
    }
  }

  std::string metric = shared_ops.empty()
                           ? "mre_over_all_collective_ops"
                           : "mre_over_shared_collective_ops";
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [name, mv] : models) {
    Agg agg;
    for (const auto& [op, op_agg] : mv.by_collective_op) {
      if (!shared_ops.empty() && !shared_ops.count(op)) continue;
      agg.add(op_agg.count, op_agg.abs_rel_sum, op_agg.rel_sum,
              op_agg.max_abs_rel);
    }
    if (agg.count) ranked.emplace_back(agg.mre(), name);
  }
  if (ranked.empty()) {
    metric = "mre_over_pt2pt_ops";
    for (const auto& [name, mv] : models)
      if (mv.pt2pt.count) ranked.emplace_back(mv.pt2pt.mre(), name);
  }
  std::sort(ranked.begin(), ranked.end());  // MRE, then name: deterministic

  Json doc = Json::object();
  doc["schema"] = "lmo.fidelity/1";
  doc["samples"] = recorded_ - invalid_;
  doc["invalid"] = invalid_;
  Json& mj = doc["models"] = Json::object();
  for (const auto& [name, mv] : models) {
    Json& m = mj[name] = Json::object();
    m["overall"] = mv.overall.to_json();
    if (mv.pt2pt.count) m["pt2pt"] = mv.pt2pt.to_json();
    if (mv.collective.count) m["collective"] = mv.collective.to_json();
    Json& ops = m["by_op"] = Json::object();
    for (const auto& [op, agg] : mv.by_op) ops[op] = agg.to_json();
    Json& levels = m["by_level"] = Json::object();
    for (const auto& [level, agg] : mv.by_level)
      levels[level < 0 ? "flat" : "L" + std::to_string(level)] =
          agg.to_json();
    Json& sizes = m["by_size"] = Json::object();
    for (const auto& [bucket, agg] : mv.by_size)
      sizes[size_bucket_label(bucket)] = agg.to_json();
    Json& hist = m["rel_err_hist"] = Json::object();
    Json bounds = Json::array();
    for (const double b : kHistBounds) bounds.push_back(b);
    hist["bounds"] = std::move(bounds);
    Json counts = Json::array();
    for (const std::uint64_t n : mv.hist) counts.push_back(n);
    hist["counts"] = std::move(counts);
  }
  Json ranking = Json::array();
  for (const auto& [mre, name] : ranked) {
    Json r = Json::object();
    r["model"] = name;
    r["mre"] = mre;
    ranking.push_back(std::move(r));
  }
  doc["ranking"] = std::move(ranking);
  doc["ranking_metric"] = metric;
  return doc;
}

void ResidualTracker::save(const std::string& path) const {
  save_json(to_json(), path);
}

namespace {
std::atomic<ResidualTracker*> g_residuals{nullptr};
}  // namespace

ResidualTracker* global_residuals() {
  return g_residuals.load(std::memory_order_acquire);
}

void set_global_residuals(ResidualTracker* tracker) {
  g_residuals.store(tracker, std::memory_order_release);
}

void record_residual(const std::string& model, const std::string& op,
                     ResidualScope scope, int level, std::uint64_t bytes,
                     double predicted, double simulated) {
  if (ResidualTracker* t = global_residuals())
    t->record(model, op, scope, level, bytes, predicted, simulated);
}

Json load_fidelity(const std::string& path) {
  Json doc = Json::parse(read_file(path));
  if (const Json* section = doc.find("fidelity")) doc = *section;
  const Json* schema = doc.find("schema");
  LMO_CHECK_MSG(schema != nullptr && schema->is_string() &&
                    schema->as_string() == "lmo.fidelity/1",
                path + " is not a fidelity document (nor a run report "
                       "carrying a \"fidelity\" section)");
  return doc;
}

std::vector<std::string> fidelity_drift(const Json& baseline,
                                        const Json& current, double abs_tol,
                                        double rel_tol) {
  std::vector<std::string> failures;
  const Json& brank = baseline.at("ranking");
  const Json& crank = current.at("ranking");
  if (brank.size() != crank.size())
    failures.push_back("ranking has " + std::to_string(crank.size()) +
                       " models, baseline has " +
                       std::to_string(brank.size()));
  for (std::size_t r = 0; r < brank.size() && r < crank.size(); ++r) {
    const std::string bm(brank[r].at("model").as_string());
    const std::string cm(crank[r].at("model").as_string());
    if (bm != cm) {
      failures.push_back("rank " + std::to_string(r + 1) + " is " + cm +
                         ", baseline says " + bm);
      continue;
    }
    const double bmre = brank[r].at("mre").as_double();
    const double cmre = crank[r].at("mre").as_double();
    if (std::fabs(cmre - bmre) > std::max(abs_tol, rel_tol * bmre))
      failures.push_back(cm + " mre " + std::to_string(cmre) +
                         " drifted from baseline " + std::to_string(bmre));
  }
  return failures;
}

}  // namespace lmo::obs
