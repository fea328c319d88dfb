// Model-fidelity residual tracker: predicted-vs-simulated errors as a
// first-class, diffable artifact.
//
// Every estimator fit and prediction bench can record the residual between
// what a fitted model predicts and what the simulator measured for the
// same operation. Residuals aggregate per (model, op, scope, topology
// level, log2 message-size bucket): count, mean/max absolute relative
// error, signed bias, and a fixed-bucket relative-error histogram. The
// tracker never drives experiments — it only consumes measurements the
// pipeline already made, so attaching one cannot change estimates, run
// counts, or cost (bit-identity is pinned by tests/test_fidelity.cpp).
//
// to_json() renders the "fidelity" report section (schema lmo.fidelity/1)
// with per-model breakdowns and a rank ordering by mean relative error
// over the collective-scope ops every ranked model shares — the paper's
// Table-2 comparison as a continuously verified invariant
// (--fidelity-baseline gates CI on it).
//
// A process-global tracker mirrors the trace-sink pattern: null (the
// default) makes record_residual() free; benches/tools install one when a
// fidelity artifact was requested.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "obs/json.hpp"

namespace lmo::obs {

/// What kind of prediction a residual scores. Point-to-point residuals
/// touch measurements the fit itself consumed (often near-interpolation);
/// collective residuals score the model on operations it did not fit —
/// the ranking uses only the latter.
enum class ResidualScope { kPointToPoint, kCollective };

class ResidualTracker {
 public:
  ResidualTracker() = default;
  ResidualTracker(const ResidualTracker&) = delete;
  ResidualTracker& operator=(const ResidualTracker&) = delete;

  /// Record one predicted-vs-simulated pair.
  ///  * model:  "hockney", "loggp", "plogp", "lmo", ...
  ///  * op:     the operation scored ("roundtrip", "linear_scatter", ...)
  ///  * level:  topology LCA level of the pair (-1 when unknown/flat)
  ///  * bytes:  message size (bucketed by log2)
  /// Non-finite or non-positive simulated values are counted as invalid
  /// and otherwise ignored. Thread-safe.
  void record(const std::string& model, const std::string& op,
              ResidualScope scope, int level, std::uint64_t bytes,
              double predicted, double simulated);

  [[nodiscard]] std::uint64_t recorded() const;

  /// The fidelity document (schema lmo.fidelity/1):
  ///   {"schema", "samples", "invalid",
  ///    "models": {model: {"overall": {...}, "pt2pt": {...},
  ///                       "collective": {...}, "by_op": {...},
  ///                       "by_level": {...}, "by_size": {...},
  ///                       "rel_err_hist": {"bounds": [...],
  ///                                        "counts": [...]}}},
  ///    "ranking": [...], "ranking_metric": "..."}
  /// where each {...} summary is {"count", "mre", "max_rel_err", "bias"}.
  /// The ranking orders models by ascending MRE over the collective ops
  /// shared by every model that has collective residuals (ties broken by
  /// name, deterministic); models lacking those ops are unranked.
  [[nodiscard]] Json to_json() const;
  void save(const std::string& path) const;

 private:
  struct Cell {
    std::uint64_t count = 0;
    double abs_rel_sum = 0.0;   ///< sum |pred - sim| / sim
    double rel_sum = 0.0;       ///< sum (pred - sim) / sim  (signed bias)
    double max_abs_rel = 0.0;
    std::vector<std::uint64_t> hist;  ///< kHistBounds buckets + overflow
  };
  // (model, op, scope, level, log2 size bucket) -> aggregate.
  using Key = std::tuple<std::string, std::string, int, int, int>;

  mutable std::mutex mu_;
  std::map<Key, Cell> cells_;
  std::uint64_t recorded_ = 0;
  std::uint64_t invalid_ = 0;
};

/// The process-global tracker, or nullptr while fidelity tracking is off.
[[nodiscard]] ResidualTracker* global_residuals();
/// Install (or clear, with nullptr) the global tracker. The tracker is
/// borrowed, not owned; the installer keeps it alive.
void set_global_residuals(ResidualTracker* tracker);

/// Record into the global tracker; free no-op when none is installed.
void record_residual(const std::string& model, const std::string& op,
                     ResidualScope scope, int level, std::uint64_t bytes,
                     double predicted, double simulated);

/// Load a fidelity document from disk: either a standalone lmo.fidelity/1
/// file or a run report carrying a "fidelity" section. Throws lmo::Error
/// when the file is unreadable or carries neither.
[[nodiscard]] Json load_fidelity(const std::string& path);

/// Accuracy drift between two fidelity documents: the rankings must list
/// the same models in the same order, and no ranked model's MRE may move
/// from the baseline by more than max(abs_tol, rel_tol * baseline MRE).
/// Returns one human-readable line per violation; empty means the current
/// document is within bounds. Shared by the bench --fidelity-baseline
/// gate and lmo_tool.
[[nodiscard]] std::vector<std::string> fidelity_drift(const Json& baseline,
                                                      const Json& current,
                                                      double abs_tol = 0.02,
                                                      double rel_tol = 0.25);

}  // namespace lmo::obs
