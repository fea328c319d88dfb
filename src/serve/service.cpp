#include "serve/service.hpp"

#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace lmo::serve {

namespace {

bool is_observation(estimate::ExperimentKind kind) {
  return kind == estimate::ExperimentKind::kScatterObservation ||
         kind == estimate::ExperimentKind::kGatherObservation;
}

obs::Json error_response(const std::string& message) {
  obs::Json j = obs::Json::object();
  j["ok"] = false;
  j["error"] = message;
  return j;
}

obs::Json ok_response(const std::string& op) {
  obs::Json j = obs::Json::object();
  j["ok"] = true;
  j["op"] = op;
  return j;
}

/// Non-negative integer field with a named error.
std::int64_t require_count(const obs::Json& v, const std::string& what) {
  const std::int64_t n = v.as_int();
  LMO_CHECK_MSG(n >= 0, what + " must be >= 0, got " + std::to_string(n));
  return n;
}

/// One (i, j, M) point-to-point query of a predict request.
struct Query {
  int i = 0;
  int j = 0;
  Bytes m = 0;
};

/// Query `k` of a predict request — a triple [i, j, m] or an object
/// {"i", "j", "m"} — checked against an `n`-processor cluster. Every
/// failure, ill-typed fields included, names the query index.
Query parse_query(const obs::Json& q, std::size_t k, int n) {
  try {
    std::int64_t i = 0, j = 0;
    Bytes m = 0;
    if (q.is_array()) {
      LMO_CHECK_MSG(q.items().size() == 3,
                    "a query triple is [i, j, m], got " +
                        std::to_string(q.items().size()) + " elements");
      i = q[0].as_int();
      j = q[1].as_int();
      m = require_count(q[2], "message size");
    } else {
      i = q.at("i").as_int();
      j = q.at("j").as_int();
      m = require_count(q.at("m"), "message size");
    }
    for (const std::int64_t r : {i, j})
      LMO_CHECK_MSG(r >= 0 && r < n, "rank " + std::to_string(r) +
                                         " out of range for " +
                                         std::to_string(n) + " processors");
    LMO_CHECK_MSG(i != j, "a rank cannot send to itself (i = j = " +
                              std::to_string(i) + ")");
    return {int(i), int(j), m};
  } catch (const std::exception& e) {
    throw Error("query " + std::to_string(k) + ": " + e.what());
  }
}

template <class Model>
obs::Json predict_all(const Model& model, const std::vector<Query>& queries) {
  obs::Json out = obs::Json::array();
  for (const Query& q : queries) out.push_back(model.pt2pt(q.i, q.j, q.m));
  return out;
}

}  // namespace

Service::Service(sim::ClusterConfig cfg, ServiceOptions options)
    : cfg_(std::move(cfg)),
      options_(std::move(options)),
      world_(cfg_),
      ex_(world_, options_.measure),
      requests_metric_(obs::Registry::global().counter("serve.requests")),
      errors_metric_(obs::Registry::global().counter("serve.errors")),
      queries_metric_(
          obs::Registry::global().counter("serve.predict_queries")) {
  if (!options_.measurements_load.empty())
    store_ = estimate::MeasurementStore::load(options_.measurements_load);
  store_.bind_cluster(cfg_.size(), cfg_.seed);
  run_campaign();
}

const core::LmoParams& Service::params() const { return fit()->params; }

std::uint64_t Service::fit_version() const { return fit()->version; }

std::shared_ptr<const Service::Fit> Service::fit() const {
  std::lock_guard<std::mutex> lk(fit_mu_);
  return fit_;
}

void Service::checkpoint() {
  if (!options_.measurements_save.empty())
    store_.save(options_.measurements_save);
}

std::uint64_t Service::run_stage(const estimate::ExperimentPlan& plan,
                                 std::uint64_t base) {
  std::uint64_t w = 0;
  for (const estimate::PlannedRound& round : plan.rounds) {
    if (is_observation(round.kind)) continue;  // stages plan none
    if (!estimate::store_holds(store_, {&round, 1})) {
      // Pin the cursor to the ordinal the uninterrupted run would have
      // reached, so the re-measured round derives identical seeds. The
      // store only ever checkpoints at round boundaries, so a missing
      // round is missing whole and re-runs with its full slot set.
      ex_.set_round_cursor(base + w);
      estimate::ExperimentPlan one;
      one.rounds.push_back(round);
      (void)estimate::execute_plan(one, ex_, store_);
      checkpoint();
    }
    ++w;
  }
  // Leave the cursor past the stage for whatever measures next.
  ex_.set_round_cursor(base + w);
  return w;
}

void Service::run_observation_sweep(const estimate::ExperimentPlan& plan) {
  // All cached: serve the sweep from the store without touching the
  // anchor session. Any gap: replay the ENTIRE sweep in plan order. The
  // anchor RNG starts from the cluster seed in every daemon process and
  // the sweep is its only consumer, so the replayed stream reproduces the
  // uninterrupted run's samples bit for bit; first-write-wins makes the
  // re-inserts of already-cached samples no-ops.
  if (estimate::store_holds(store_, plan.rounds)) return;
  for (const estimate::PlannedRound& round : plan.rounds)
    for (const estimate::ExperimentKey& key : round.keys) {
      if (round.kind == estimate::ExperimentKind::kScatterObservation)
        store_.insert(key, ex_.observe_scatter(key.a, round.m_fwd));
      else if (round.kind == estimate::ExperimentKind::kGatherObservation)
        store_.insert(key, ex_.observe_gather(key.a, round.m_fwd));
    }
  checkpoint();
}

void Service::run_campaign() {
  const estimate::LmoOptions lopts;
  const sim::Topology* topo = ex_.topology();
  std::uint64_t rounds = 0;
  {
    estimate::PlanBuilder stage1(topo);
    estimate::plan_lmo_roundtrips(stage1, cfg_.size(), lopts);
    rounds = run_stage(stage1.build(lopts.parallel), 0);
  }
  {
    // Stage 2 plans from the measured round-trips, which run_stage just
    // completed; its round count (and so its cursor base) is a pure
    // function of the plan, independent of what was cached.
    estimate::PlanBuilder stage2(topo);
    estimate::plan_lmo_one_to_two(stage2, store_, cfg_.size(), lopts);
    (void)run_stage(stage2.build(lopts.parallel), rounds);
  }
  {
    estimate::PlanBuilder sweep(topo);
    estimate::plan_gather_sweep(sweep);
    run_observation_sweep(sweep.build(true));
  }
  refit_and_publish();
  checkpoint();
}

void Service::refit_and_publish() {
  estimate::LmoOptions lopts;
  lopts.topology = ex_.topology();
  estimate::LmoReport lmo = estimate::fit_lmo(store_, cfg_.size(), lopts);
  estimate::GatherEmpiricalReport gather =
      estimate::fit_gather_empirical(store_, lmo.params);
  core::TunerOptions topts;
  topts.topology = &cfg_.topology;
  std::uint64_t version = 1;
  {
    std::lock_guard<std::mutex> lk(fit_mu_);
    if (fit_) version = fit_->version + 1;
  }
  auto fresh = std::make_shared<Fit>(Fit{
      lmo.params, lmo.params.as_hockney(), core::fold_latencies(lmo.params),
      gather.empirical, core::Tuner(lmo.params, gather.empirical, topts),
      version});
  std::lock_guard<std::mutex> lk(fit_mu_);
  fit_ = std::move(fresh);
}

obs::Json Service::handle(const obs::Json& request) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  requests_metric_.inc();
  try {
    LMO_CHECK_MSG(request.is_object(), "request must be a JSON object");
    const obs::Json* op = request.find("op");
    LMO_CHECK_MSG(op != nullptr && op->is_string(),
                  "request needs a string \"op\"");
    const std::string_view name = op->as_string();
    if (name == "predict") return op_predict(request);
    if (name == "predict_collective") return op_predict_collective(request);
    if (name == "tune") return op_tune(request);
    if (name == "measure") return op_measure(request);
    if (name == "stats") return op_stats(request);
    if (name == "snapshot") return op_snapshot(request);
    if (name == "shutdown") return ok_response("shutdown");
    throw Error("unknown op '" + std::string(name) +
                "' (expected predict, predict_collective, tune, measure, "
                "stats, snapshot, or shutdown)");
  } catch (const std::exception& e) {
    // Requests must never abort the daemon: every failure — unknown op,
    // missing field, wrong type, out-of-range rank, unpriceable plan —
    // becomes a structured response.
    errors_.fetch_add(1, std::memory_order_relaxed);
    errors_metric_.inc();
    return error_response(e.what());
  }
}

Response Service::handle_line(std::string_view line) {
  Response out;
  if (line.size() > options_.max_request_bytes) {
    requests_.fetch_add(1, std::memory_order_relaxed);
    requests_metric_.inc();
    errors_.fetch_add(1, std::memory_order_relaxed);
    errors_metric_.inc();
    out.body = error_response("request of " + std::to_string(line.size()) +
                              " bytes exceeds max-request-bytes " +
                              std::to_string(options_.max_request_bytes))
                   .dump(0);
    return out;
  }
  obs::Json request;
  try {
    request = obs::Json::parse(line);
  } catch (const std::exception& e) {
    // Parse failures carry the byte offset in the message; surface it.
    requests_.fetch_add(1, std::memory_order_relaxed);
    requests_metric_.inc();
    errors_.fetch_add(1, std::memory_order_relaxed);
    errors_metric_.inc();
    out.body =
        error_response(std::string("bad request: ") + e.what()).dump(0);
    return out;
  }
  const obs::Json response = handle(request);
  const obs::Json* ok = response.find("ok");
  if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
    const obs::Json* op = request.find("op");
    if (op != nullptr && op->is_string() && op->as_string() == "shutdown")
      out.shutdown = true;
  }
  out.body = response.dump(0);
  return out;
}

obs::Json Service::op_predict(const obs::Json& req) {
  const std::shared_ptr<const Fit> f = fit();
  const obs::Json* qs = req.find("queries");
  LMO_CHECK_MSG(qs != nullptr && qs->is_array(),
                "predict needs \"queries\": [[i, j, m], ...]");
  std::vector<Query> queries;
  queries.reserve(qs->items().size());
  for (std::size_t k = 0; k < qs->items().size(); ++k)
    queries.push_back(parse_query(qs->items()[k], k, cfg_.size()));
  std::vector<std::string> models;
  if (const obs::Json* ms = req.find("models")) {
    for (const obs::Json& m : ms->items()) models.emplace_back(m.as_string());
  } else if (const obs::Json* m = req.find("model")) {
    models.emplace_back(m->as_string());
  } else {
    models.assign(kServeModels.begin(), kServeModels.end());
  }
  obs::Json predictions = obs::Json::object();
  for (const std::string& model : models) {
    if (model == "lmo")
      predictions[model] = predict_all(f->params, queries);
    else if (model == "hockney")
      predictions[model] = predict_all(f->hockney, queries);
    else if (model == "original")
      predictions[model] = predict_all(f->original, queries);
    else
      throw Error("unknown model '" + model +
                  "' (expected lmo, hockney, or original)");
  }
  predict_queries_.fetch_add(queries.size() * models.size(),
                             std::memory_order_relaxed);
  queries_metric_.inc(queries.size() * models.size());
  obs::Json resp = ok_response("predict");
  resp["queries"] = queries.size();
  resp["predictions"] = std::move(predictions);
  resp["fit_version"] = f->version;
  return resp;
}

core::TunedDecision Service::decision_from(const obs::Json& req,
                                           bool need_algorithm) const {
  core::TunedDecision d;
  d.kind =
      core::parse_collective(std::string(req.at("collective").as_string()));
  if (const obs::Json* a = req.find("algorithm"))
    d.algorithm = core::parse_algorithm(std::string(a->as_string()));
  else
    LMO_CHECK_MSG(!need_algorithm,
                  "predict_collective needs an \"algorithm\" (use the tune "
                  "op to have one chosen)");
  if (const obs::Json* r = req.find("root"))
    d.root = int(require_count(*r, "root"));
  LMO_CHECK_MSG(d.root < cfg_.size(),
                "root " + std::to_string(d.root) + " out of range for " +
                    std::to_string(cfg_.size()) + " processors");
  d.message = Bytes(require_count(req.at("message"), "message size"));
  if (const obs::Json* s = req.find("segment"))
    d.segment = Bytes(require_count(*s, "segment size"));
  // Entries are range-checked by trees::invert_mapping when the plan is
  // priced; here only values that would wrap in the narrowing to int.
  if (const obs::Json* m = req.find("mapping"))
    for (const obs::Json& rank : m->items()) {
      const std::int64_t r = rank.as_int();
      LMO_CHECK_MSG(r >= std::numeric_limits<int>::min() &&
                        r <= std::numeric_limits<int>::max(),
                    "mapping entry " + std::to_string(d.mapping.size()) +
                        " = " + std::to_string(r) + " out of range");
      d.mapping.push_back(int(r));
    }
  return d;
}

obs::Json Service::op_predict_collective(const obs::Json& req) {
  const std::shared_ptr<const Fit> f = fit();
  core::TunedDecision d = decision_from(req, /*need_algorithm=*/true);
  d.predicted_seconds = f->tuner.price(d);
  obs::Json resp = ok_response("predict_collective");
  resp["decision"] = d.to_json();
  resp["predicted_seconds"] = d.predicted_seconds;
  resp["fit_version"] = f->version;
  return resp;
}

obs::Json Service::op_tune(const obs::Json& req) {
  const std::shared_ptr<const Fit> f = fit();
  const core::TunedDecision probe = decision_from(req, false);
  const core::TunedDecision d =
      f->tuner.decide(probe.kind, probe.root, probe.message);
  obs::Json resp = ok_response("tune");
  resp["decision"] = d.to_json();
  resp["fit_version"] = f->version;
  return resp;
}

obs::Json Service::op_measure(const obs::Json& req) {
  std::lock_guard<std::mutex> lk(mutate_mu_);
  const obs::Json* exps = req.find("experiments");
  LMO_CHECK_MSG(exps != nullptr && exps->is_array(),
                "measure needs \"experiments\": [experiment-key, ...]");
  estimate::PlanBuilder builder(ex_.topology());
  for (const obs::Json& e : exps->items()) {
    const estimate::ExperimentKey key = estimate::ExperimentKey::from_json(e);
    LMO_CHECK_MSG(!is_observation(key.kind),
                  "measure cannot schedule raw observation samples (" +
                      key.describe() +
                      "): the estimation campaign owns the anchor noise "
                      "stream");
    for (const int p : key.participants())
      LMO_CHECK_MSG(p >= 0 && p < cfg_.size(),
                    "experiment participant " + std::to_string(p) +
                        " out of range for " + std::to_string(cfg_.size()) +
                        " processors: " + key.describe());
    builder.require(key);
  }
  const estimate::ExperimentPlan plan = builder.build(true);
  const estimate::ExecuteStats stats =
      estimate::execute_plan(plan, ex_, store_);
  refit_and_publish();
  checkpoint();
  obs::Json resp = ok_response("measure");
  resp["measured"] = stats.measured;
  resp["cached"] = stats.cached;
  resp["rounds"] = stats.rounds;
  resp["store_entries"] = store_.size();
  resp["fit_version"] = fit()->version;
  return resp;
}

obs::Json Service::op_stats(const obs::Json&) {
  const std::shared_ptr<const Fit> f = fit();
  const std::shared_ptr<const estimate::StoreSnapshot> snap =
      store_.snapshot();
  obs::Json resp = ok_response("stats");
  resp["schema"] = kServeSchema;
  resp["cluster_size"] = cfg_.size();
  resp["cluster_seed"] = cfg_.seed;
  resp["fit_version"] = f->version;
  obs::Json models = obs::Json::array();
  for (const char* m : kServeModels) models.push_back(m);
  resp["models"] = std::move(models);
  obs::Json store = obs::Json::object();
  store["entries"] = snap->size();
  store["quarantined"] = snap->suspect_keys.size();
  store["version"] = snap->version;
  store["hits"] = store_.hits();
  store["misses"] = store_.misses();
  resp["store"] = std::move(store);
  resp["requests"] = requests_.load(std::memory_order_relaxed);
  resp["errors"] = errors_.load(std::memory_order_relaxed);
  resp["predict_queries"] = predict_queries_.load(std::memory_order_relaxed);
  return resp;
}

obs::Json Service::op_snapshot(const obs::Json& req) {
  std::lock_guard<std::mutex> lk(mutate_mu_);
  std::string path = options_.measurements_save;
  if (const obs::Json* p = req.find("path")) path = p->as_string();
  LMO_CHECK_MSG(!path.empty(),
                "snapshot needs a \"path\" (no --measurements-save "
                "configured)");
  store_.save(path);
  obs::Json resp = ok_response("snapshot");
  resp["path"] = path;
  resp["entries"] = store_.size();
  resp["store_version"] = store_.version();
  return resp;
}

}  // namespace lmo::serve
