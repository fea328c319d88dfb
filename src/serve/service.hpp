// Estimation-as-a-service: the long-running core behind the lmo_served
// daemon (DESIGN.md §17).
//
// A Service owns one simulated cluster, one warm MeasurementStore and one
// published model fit, and answers batched JSON requests:
//
//   predict             model x (i, j, M) point-to-point triples, each
//                       one pt2pt call on the published fit's LmoParams,
//                       its Hockney view or its original-LMO view;
//   predict_collective  price an explicit (collective, algorithm, root,
//                       M, segment, mapping) plan with the tuner's
//                       evaluator — closed forms, or the schedule-replay
//                       path under a contended topology;
//   tune                choose the best plan for one invocation
//                       (core::Tuner::decide);
//   measure             run cold experiments (planned, deduplicated,
//                       disjoint-packed; repetitions fan out on the util
//                       thread pool), refit, and publish the new fit;
//   stats / snapshot / shutdown
//                       introspection, store persistence, clean exit.
//
// Concurrency model: the fitted state is an immutable published Fit
// behind a shared_ptr — predict/predict_collective/tune run concurrently
// from any number of threads and never block each other (the
// MeasurementStore's shared/snapshot read path extends the same property
// to stats). Mutating ops (measure, snapshot) serialize on one mutex and
// swap in a fresh Fit; in-flight readers keep the fit they started with.
//
// Restart contract: the store checkpoints to --measurements-save after
// every completed measured round. A restarted daemon replays the
// estimation campaign against the checkpoint — measured rounds re-run
// with their cursor pinned to the plan-round ordinal, and the raw
// observation sweep replays all-or-nothing on the fresh anchor session —
// so every measurement, every refit, and therefore every served
// prediction is byte-identical to the uninterrupted run.
// tests/test_serve.cpp pins this end to end.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "core/lmo_model.hpp"
#include "core/tuner.hpp"
#include "estimate/empirical_estimator.hpp"
#include "estimate/experimenter.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "simnet/cluster.hpp"
#include "vmpi/world.hpp"

namespace lmo::serve {

inline constexpr const char* kServeSchema = "lmo.serve/1";

/// The point-to-point models `predict` serves, in response order: the
/// paper's LMO, its heterogeneous-Hockney view (as_hockney) and the
/// original LMO with latencies folded into the fixed delays
/// (fold_latencies).
inline constexpr std::array<const char*, 3> kServeModels = {"lmo", "hockney",
                                                            "original"};

struct ServiceOptions {
  /// Warm start: load this measurement store before the campaign (its
  /// cluster provenance must match the config). Empty = cold start.
  std::string measurements_load;
  /// Checkpoint path: the store persists here after every completed
  /// measured round, after the observation sweep, and after every measure
  /// op — kill the daemon at any point and a restart from this file
  /// serves byte-identical predictions. Empty = no checkpoints.
  std::string measurements_save;
  /// Requests longer than this are rejected with a structured error
  /// before parsing (hostile-payload guard).
  std::size_t max_request_bytes = 8 * 1024 * 1024;
  /// Measurement options for the experimenter (jobs, fault injection).
  mpib::MeasureOptions measure;
};

/// One handled request line: the response body (a single compact JSON
/// line, no trailing newline) and whether the client asked to shut down.
struct Response {
  std::string body;
  bool shutdown = false;
};

class Service {
 public:
  /// Loads/creates the store, runs the (resume-safe) estimation campaign,
  /// and publishes the initial fit. Throws lmo::Error on an unusable
  /// config or store — startup errors are fatal, unlike request errors.
  explicit Service(sim::ClusterConfig cfg, ServiceOptions options = {});

  [[nodiscard]] int size() const { return cfg_.size(); }
  [[nodiscard]] const sim::ClusterConfig& cluster() const { return cfg_; }
  [[nodiscard]] const estimate::MeasurementStore& store() const {
    return store_;
  }
  [[nodiscard]] const core::LmoParams& params() const;
  /// Bumped every time a refit publishes (startup = 1).
  [[nodiscard]] std::uint64_t fit_version() const;

  /// Handle one parsed request. Never throws: every failure — unknown op,
  /// missing or ill-typed field, out-of-range rank, unpriceable plan —
  /// returns {"ok": false, "error": "<named message>"}.
  [[nodiscard]] obs::Json handle(const obs::Json& request);

  /// Handle one raw request line: size cap, obs::Json::parse (its errors,
  /// byte offsets included, become structured responses), then handle().
  /// Never throws.
  [[nodiscard]] Response handle_line(std::string_view line);

  [[nodiscard]] std::uint64_t requests() const { return requests_.load(); }
  [[nodiscard]] std::uint64_t errors() const { return errors_.load(); }

 private:
  /// The immutable published fit: everything a read op needs, derived
  /// purely from the store. Readers grab the shared_ptr once and are then
  /// wait-free with respect to refits.
  struct Fit {
    core::LmoParams params;
    models::HeteroHockney hockney;     ///< params.as_hockney()
    core::LmoOriginalParams original;  ///< fold_latencies(params)
    core::GatherEmpirical empirical;
    core::Tuner tuner;
    std::uint64_t version = 0;
  };

  [[nodiscard]] std::shared_ptr<const Fit> fit() const;
  void refit_and_publish();
  void run_campaign();
  /// Execute the plan's measured rounds that the store is missing, each
  /// with the round cursor pinned to `base` + its plan-round ordinal, and
  /// checkpoint after each. Returns the plan's measured-round count.
  std::uint64_t run_stage(const estimate::ExperimentPlan& plan,
                          std::uint64_t base);
  /// Replay the raw observation sweep all-or-nothing (see the restart
  /// contract above).
  void run_observation_sweep(const estimate::ExperimentPlan& plan);
  void checkpoint();

  [[nodiscard]] obs::Json op_predict(const obs::Json& req);
  [[nodiscard]] obs::Json op_predict_collective(const obs::Json& req);
  [[nodiscard]] obs::Json op_tune(const obs::Json& req);
  [[nodiscard]] obs::Json op_measure(const obs::Json& req);
  [[nodiscard]] obs::Json op_stats(const obs::Json& req);
  [[nodiscard]] obs::Json op_snapshot(const obs::Json& req);
  [[nodiscard]] core::TunedDecision decision_from(const obs::Json& req,
                                                  bool need_algorithm) const;

  sim::ClusterConfig cfg_;
  ServiceOptions options_;
  vmpi::World world_;
  estimate::SimExperimenter ex_;
  estimate::MeasurementStore store_;

  mutable std::mutex fit_mu_;  ///< guards the fit_ pointer swap only
  std::shared_ptr<const Fit> fit_;
  std::mutex mutate_mu_;  ///< serializes measure/snapshot (ex_ and refits)

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> predict_queries_{0};
  obs::Counter requests_metric_;
  obs::Counter errors_metric_;
  obs::Counter queries_metric_;
};

}  // namespace lmo::serve
