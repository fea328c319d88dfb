// The estimation service behind lmo_served (DESIGN.md §17):
//  * served predictions bit-identical to the scalar models, and named
//    errors for bad queries,
//  * the JSONL request protocol — predict / predict_collective / tune /
//    measure / stats / snapshot / shutdown,
//  * the malformed-input contract: truncated, hostile, ill-typed and
//    oversized payloads become {"ok":false,...} responses, never aborts,
//  * the restart contract: a daemon killed mid-campaign and restarted
//    from its checkpoint serves byte-identical predictions,
//  * ServeParallelTest: concurrent readers hammering handle() during
//    refits (the CI ThreadSanitizer job runs every *Parallel* suite).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "core/lmo_model.hpp"
#include "estimate/lmo_estimator.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/plan.hpp"
#include "serve/service.hpp"
#include "simnet/cluster.hpp"
#include "util/error.hpp"
#include "vmpi/world.hpp"

namespace lmo::serve {
namespace {

mpib::MeasureOptions quick_measure() {
  mpib::MeasureOptions m;
  m.min_reps = 2;
  m.max_reps = 2;
  m.rel_err = 10.0;
  return m;
}

ServiceOptions quick_options() {
  ServiceOptions o;
  o.measure = quick_measure();
  return o;
}

constexpr int kNodes = 5;
constexpr std::uint64_t kSeed = 7;

/// One service shared by the read-only tests: the campaign runs once.
/// Tests that mutate (measure, snapshot) only ever add state, which the
/// other tests don't depend on.
Service& shared_service() {
  static Service* s =
      new Service(sim::make_random_cluster(kNodes, kSeed), quick_options());
  return *s;
}

obs::Json req(const std::string& body) { return obs::Json::parse(body); }

// ------------------------------------------------------------ predict --

/// The error message of a request that must fail.
std::string error_of(const std::string& body) {
  const obs::Json r = shared_service().handle(req(body));
  EXPECT_FALSE(r.at("ok").as_bool()) << body;
  const obs::Json* e = r.find("error");
  return e != nullptr ? std::string(e->as_string()) : std::string();
}

TEST(ServePredictTest, EveryModelBitIdenticalToScalar) {
  Service& s = shared_service();
  const core::LmoParams& p = s.params();
  const models::HeteroHockney h = p.as_hockney();
  const core::LmoOriginalParams o = core::fold_latencies(p);
  struct Triple {
    int i, j;
    Bytes m;
  };
  std::vector<Triple> triples;
  obs::Json queries = obs::Json::array();
  for (int i = 0; i < kNodes; ++i)
    for (int j = 0; j < kNodes; ++j)
      if (i != j)
        for (const Bytes m :
             {Bytes(0), Bytes(1), Bytes(4096), Bytes(1 << 20)}) {
          triples.push_back({i, j, m});
          obs::Json q = obs::Json::array();
          q.push_back(i);
          q.push_back(j);
          q.push_back(m);
          queries.push_back(std::move(q));
        }
  obs::Json request = obs::Json::object();
  request["op"] = "predict";
  request["queries"] = std::move(queries);
  const obs::Json r = s.handle(request);
  ASSERT_TRUE(r.at("ok").as_bool()) << r.dump(0);
  const obs::Json& pred = r.at("predictions");
  ASSERT_EQ(pred.at("lmo").items().size(), triples.size());
  for (std::size_t k = 0; k < triples.size(); ++k) {
    const Triple& t = triples[k];
    EXPECT_EQ(pred.at("lmo")[k].as_double(), p.pt2pt(t.i, t.j, t.m))
        << "query " << k;
    EXPECT_EQ(pred.at("hockney")[k].as_double(), h.pt2pt(t.i, t.j, t.m))
        << "query " << k;
    EXPECT_EQ(pred.at("original")[k].as_double(), o.pt2pt(t.i, t.j, t.m))
        << "query " << k;
  }
}

TEST(ServePredictTest, SelfPairNamesTheQueryIndex) {
  const std::string e =
      error_of(R"({"op":"predict","queries":[[0,1,64],[1,2,64],[2,2,64]]})");
  EXPECT_NE(e.find("query 2"), std::string::npos) << e;
  EXPECT_NE(e.find("i != j"), std::string::npos) << e;
}

TEST(ServePredictTest, OutOfRangeRankFailsNamed) {
  const std::string e = error_of(
      R"({"op":"predict","queries":[[0,1,64],{"i":0,"j":5,"m":64}]})");
  EXPECT_NE(e.find("query 1"), std::string::npos) << e;
  EXPECT_NE(e.find("rank 5 out of range"), std::string::npos) << e;
}

TEST(ServePredictTest, UnknownModelFailsNamed) {
  const std::string e =
      error_of(R"({"op":"predict","queries":[[0,1,64]],"model":"plogp"})");
  EXPECT_NE(e.find("unknown model 'plogp'"), std::string::npos) << e;
}

// ----------------------------------------------------------- protocol --

TEST(ServeProtocolTest, StatsDescribesTheService) {
  Service& s = shared_service();
  const obs::Json r = s.handle(req(R"({"op":"stats"})"));
  EXPECT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("schema").as_string(), kServeSchema);
  EXPECT_EQ(r.at("cluster_size").as_int(), kNodes);
  EXPECT_EQ(std::uint64_t(r.at("cluster_seed").as_int()), kSeed);
  EXPECT_GE(r.at("fit_version").as_int(), 1);
  EXPECT_EQ(r.at("models").items().size(), 3u);
  EXPECT_GT(r.at("store").at("entries").as_int(), 0);
}

TEST(ServeProtocolTest, PredictAcceptsTriplesAndObjects) {
  Service& s = shared_service();
  const obs::Json a =
      s.handle(req(R"({"op":"predict","model":"lmo","queries":[[0,1,4096]]})"));
  const obs::Json b = s.handle(req(
      R"({"op":"predict","model":"lmo","queries":[{"i":0,"j":1,"m":4096}]})"));
  ASSERT_TRUE(a.at("ok").as_bool()) << a.dump(0);
  ASSERT_TRUE(b.at("ok").as_bool()) << b.dump(0);
  EXPECT_EQ(a.at("predictions").at("lmo").dump(0),
            b.at("predictions").at("lmo").dump(0));
  EXPECT_EQ(a.at("predictions").at("lmo")[0].as_double(),
            s.params().pt2pt(0, 1, 4096));
  // No model selection: all three models come back.
  const obs::Json all = s.handle(req(R"({"op":"predict","queries":[[1,0,8]]})"));
  EXPECT_EQ(all.at("predictions").entries().size(), 3u);
}

TEST(ServeProtocolTest, TuneAndPredictCollectiveAgree) {
  Service& s = shared_service();
  const obs::Json tuned = s.handle(
      req(R"({"op":"tune","collective":"scatter","root":0,"message":16384})"));
  ASSERT_TRUE(tuned.at("ok").as_bool()) << tuned.dump(0);
  const obs::Json& d = tuned.at("decision");
  // Re-pricing the tuner's own decision must reproduce its prediction.
  obs::Json price = obs::Json::object();
  price["op"] = "predict_collective";
  price["collective"] = d.at("op");
  price["algorithm"] = d.at("algorithm");
  price["root"] = d.at("root");
  price["message"] = d.at("message");
  price["segment"] = d.at("segment");
  if (const obs::Json* m = d.find("mapping")) price["mapping"] = *m;
  const obs::Json priced = s.handle(price);
  ASSERT_TRUE(priced.at("ok").as_bool()) << priced.dump(0);
  EXPECT_EQ(priced.at("predicted_seconds").as_double(),
            d.at("predicted_seconds").as_double());
}

TEST(ServeProtocolTest, PredictCollectiveNeedsAnAlgorithm) {
  const obs::Json r = shared_service().handle(
      req(R"({"op":"predict_collective","collective":"bcast","message":64})"));
  EXPECT_FALSE(r.at("ok").as_bool());
  EXPECT_NE(r.at("error").as_string().find("algorithm"), std::string::npos);
}

TEST(ServeProtocolTest, MeasureInsertsRefitsAndChecks) {
  Service& s = shared_service();
  const std::uint64_t v0 = s.fit_version();
  const std::size_t n0 = s.store().size();
  const obs::Json r = s.handle(req(
      R"({"op":"measure","experiments":[
            {"kind":"roundtrip","a":0,"b":1,"m":12345,"reply":12345}]})"));
  ASSERT_TRUE(r.at("ok").as_bool()) << r.dump(0);
  EXPECT_EQ(r.at("measured").as_int() + r.at("cached").as_int(), 1);
  EXPECT_EQ(s.fit_version(), v0 + 1);
  EXPECT_GE(s.store().size(), n0);
  // Raw observation kinds are the campaign's: rejected by name.
  const obs::Json bad = s.handle(req(
      R"({"op":"measure","experiments":[
            {"kind":"scatter_observation","a":0,"m":64,"count":1}]})"));
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_NE(bad.at("error").as_string().find("anchor"), std::string::npos);
  // Out-of-range participants are rejected by name too.
  const obs::Json far = s.handle(req(
      R"({"op":"measure","experiments":[
            {"kind":"roundtrip","a":0,"b":99,"m":64,"reply":64}]})"));
  EXPECT_FALSE(far.at("ok").as_bool());
  EXPECT_NE(far.at("error").as_string().find("out of range"),
            std::string::npos);
}

TEST(ServeProtocolTest, SnapshotWritesTheStore) {
  Service& s = shared_service();
  // No path configured and none given: a named error.
  const obs::Json bare = s.handle(req(R"({"op":"snapshot"})"));
  EXPECT_FALSE(bare.at("ok").as_bool());
  EXPECT_NE(bare.at("error").as_string().find("path"), std::string::npos);
  const std::string path = testing::TempDir() + "lmo_serve_snapshot.json";
  obs::Json snap = obs::Json::object();
  snap["op"] = "snapshot";
  snap["path"] = path;
  const obs::Json r = s.handle(snap);
  ASSERT_TRUE(r.at("ok").as_bool()) << r.dump(0);
  const auto loaded = estimate::MeasurementStore::load(path);
  EXPECT_EQ(loaded.size(), s.store().size());
  std::remove(path.c_str());
}

TEST(ServeProtocolTest, ShutdownFlagsTheLineHandler) {
  Service& s = shared_service();
  const Response r = s.handle_line(R"({"op":"shutdown"})");
  EXPECT_TRUE(r.shutdown);
  EXPECT_NE(r.body.find("\"ok\":true"), std::string::npos);
  // Only a *successful* shutdown shuts down.
  const Response not_shutdown = s.handle_line(R"({"op":"predict"})");
  EXPECT_FALSE(not_shutdown.shutdown);
}

// ------------------------------------------------------ hostile input --

TEST(ServeBadInputTest, MalformedRequestsNeverAbort) {
  Service& s = shared_service();
  const std::uint64_t errors0 = s.errors();
  const std::vector<std::string> hostile = {
      "",                                     // empty line
      "{",                                    // truncated object
      R"({"op":"predict","queries":[[0,1,)",  // truncated mid-array
      "garbage",                              // not JSON at all
      "[1,2,3]",                              // not an object
      R"({"noop":true})",                     // no op field
      R"({"op":42})",                         // ill-typed op
      R"({"op":"frobnicate"})",               // unknown op
      R"({"op":"predict"})",                  // missing queries
      R"({"op":"predict","queries":[[0,1]]})",        // short triple
      R"({"op":"predict","queries":[[0,0,64]]})",     // i == j
      R"({"op":"predict","queries":[[0,99,64]]})",    // out of range
      R"({"op":"predict","queries":[[0,1,-5]]})",     // negative size
      R"({"op":"predict","queries":[[0,1,64]],"model":"plogp"})",
      R"({"op":"tune","collective":"allgather","message":64})",
      R"({"op":"tune","collective":"bcast"})",        // missing message
      R"({"op":"tune","collective":"bcast","root":99,"message":64})",
      R"({"op":"measure","experiments":[{"kind":"??"}]})",
      // Hostile mappings on a priced plan: out of range, duplicate, short.
      R"({"op":"predict_collective","collective":"bcast",
          "algorithm":"binomial","message":64,"mapping":[0,1,2,3,100000]})",
      R"({"op":"predict_collective","collective":"bcast",
          "algorithm":"binomial","message":64,"mapping":[0,0,1,2,3]})",
      R"({"op":"predict_collective","collective":"bcast",
          "algorithm":"binomial","message":64,"mapping":[0,1,2]})",
      std::string(64, '['),                   // nesting bomb
  };
  for (const std::string& line : hostile) {
    const Response r = s.handle_line(line);
    EXPECT_NE(r.body.find("\"ok\":false"), std::string::npos)
        << "input " << line.substr(0, 40) << " -> " << r.body;
    EXPECT_FALSE(r.shutdown);
    // The response itself is well-formed JSON with a string error.
    const obs::Json parsed = obs::Json::parse(r.body);
    EXPECT_FALSE(parsed.at("error").as_string().empty());
  }
  EXPECT_EQ(s.errors(), errors0 + hostile.size());
  // The service still works after the abuse.
  EXPECT_TRUE(s.handle(req(R"({"op":"stats"})")).at("ok").as_bool());
}

TEST(ServeBadInputTest, HostileMappingFailsNamed) {
  // A wire mapping must be a permutation of the ranks: the tuner checks it
  // before any evaluator indexes the parameter tables through it. Every
  // algorithm and segment routes through the same check.
  const std::string head =
      R"({"op":"predict_collective","collective":"reduce","message":4096,)";
  for (const std::string plan :
       {R"("algorithm":"binomial")", R"("algorithm":"chain","segment":1024)",
        R"("algorithm":"linear")"}) {
    const std::string range =
        error_of(head + plan + R"(,"mapping":[0,1,2,3,100000]})");
    EXPECT_NE(range.find("mapping entry 4 = 100000 out of range"),
              std::string::npos)
        << range;
    const std::string duplicate =
        error_of(head + plan + R"(,"mapping":[0,0,1,2,3]})");
    EXPECT_NE(duplicate.find("duplicate mapping entry"), std::string::npos)
        << duplicate;
    const std::string length = error_of(head + plan + R"(,"mapping":[0,1]})");
    EXPECT_NE(length.find("mapping has 2 entries for 5 processors"),
              std::string::npos)
        << length;
  }
  // Values that would wrap in the narrowing to int fail by name as well.
  const std::string wrap = error_of(
      head + R"("algorithm":"binomial","mapping":[0,1,2,3,4294967300]})");
  EXPECT_NE(wrap.find("mapping entry 4 = 4294967300 out of range"),
            std::string::npos)
      << wrap;
  // A well-formed permutation still prices.
  const obs::Json ok = shared_service().handle(req(
      head + R"("algorithm":"binomial","mapping":[0,4,3,2,1]})"));
  EXPECT_TRUE(ok.at("ok").as_bool()) << ok.dump(0);
}

TEST(ServeBadInputTest, ParseErrorsCarryTheByteOffset) {
  const Response r = shared_service().handle_line(R"({"op": !})");
  EXPECT_NE(r.body.find("bad request"), std::string::npos) << r.body;
  EXPECT_NE(r.body.find("offset"), std::string::npos) << r.body;
}

TEST(ServeBadInputTest, OversizedRequestRejectedBeforeParsing) {
  Service local(sim::make_random_cluster(3, 11), [] {
    ServiceOptions o = quick_options();
    o.max_request_bytes = 128;
    return o;
  }());
  std::string big = R"({"op":"predict","queries":[)";
  big.append(4096, ' ');
  big += "]}";
  const Response r = local.handle_line(big);
  EXPECT_NE(r.body.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(r.body.find("max-request-bytes"), std::string::npos) << r.body;
  // Under the cap the same service answers normally.
  EXPECT_NE(local.handle_line(R"({"op":"stats"})").body.find("\"ok\":true"),
            std::string::npos);
}

// ----------------------------------------------------- restart contract --

/// What the store file holds after handle-by-handle comparison must be
/// byte-identical, not merely close: dump both sides.
std::string store_bytes(const estimate::MeasurementStore& store) {
  return store.to_json().dump(2);
}

TEST(ServeRestartTest, ResumeFromMidCampaignCheckpointIsByteIdentical) {
  const auto cfg = sim::make_random_cluster(4, 3);
  const std::string checkpoint =
      testing::TempDir() + "lmo_serve_midkill.json";

  // The uninterrupted daemon.
  Service cold(cfg, quick_options());

  // A daemon killed mid-campaign leaves the checkpoint written after its
  // last completed stage-1 round. Reproduce that file through the same
  // code path the service uses: each plan round executed alone with the
  // cursor pinned to its plan ordinal (the store only ever persists at
  // round boundaries, so this is exactly what a kill can leave behind).
  {
    vmpi::World world(cfg);
    estimate::SimExperimenter ex(world, quick_measure());
    estimate::MeasurementStore partial;
    partial.set_cluster(cfg.size(), cfg.seed);
    const estimate::LmoOptions lopts;
    estimate::PlanBuilder stage1(ex.topology());
    estimate::plan_lmo_roundtrips(stage1, cfg.size(), lopts);
    const estimate::ExperimentPlan plan = stage1.build(lopts.parallel);
    ASSERT_GT(plan.rounds.size(), 1u);
    std::uint64_t w = 0;
    for (const estimate::PlannedRound& round : plan.rounds) {
      if (w >= plan.rounds.size() / 2) break;  // ...and then the kill
      ex.set_round_cursor(w);
      estimate::ExperimentPlan one;
      one.rounds.push_back(round);
      (void)estimate::execute_plan(one, ex, partial);
      ++w;
    }
    partial.save(checkpoint);
  }

  ServiceOptions resume_opts = quick_options();
  resume_opts.measurements_load = checkpoint;
  Service resumed(cfg, resume_opts);

  // Identical store bytes, identical fit, identical served predictions.
  EXPECT_EQ(store_bytes(resumed.store()), store_bytes(cold.store()));
  const std::string query =
      R"({"op":"predict","queries":[[0,1,1024],[2,3,65536],[3,0,1]]})";
  EXPECT_EQ(resumed.handle_line(query).body, cold.handle_line(query).body);
  const std::string tune =
      R"({"op":"tune","collective":"gather","root":0,"message":32768})";
  EXPECT_EQ(resumed.handle_line(tune).body, cold.handle_line(tune).body);
  std::remove(checkpoint.c_str());
}

TEST(ServeRestartTest, WarmRestartMeasuresNothingAndServesIdentically) {
  const auto cfg = sim::make_random_cluster(4, 3);
  const std::string saved = testing::TempDir() + "lmo_serve_full.json";
  Service cold(cfg, [&] {
    ServiceOptions o = quick_options();
    o.measurements_save = saved;
    return o;
  }());

  ServiceOptions warm_opts = quick_options();
  warm_opts.measurements_load = saved;
  Service warm(cfg, warm_opts);
  EXPECT_EQ(warm.store().size(), cold.store().size());
  EXPECT_EQ(store_bytes(warm.store()), store_bytes(cold.store()));
  const std::string query = R"({"op":"predict","queries":[[1,2,262144]]})";
  EXPECT_EQ(warm.handle_line(query).body, cold.handle_line(query).body);
  std::remove(saved.c_str());
}

TEST(ServeRestartTest, MismatchedProvenanceRefusesToServe) {
  const auto cfg = sim::make_random_cluster(4, 3);
  const std::string saved = testing::TempDir() + "lmo_serve_wrong.json";
  {
    estimate::MeasurementStore other;
    other.set_cluster(9, 123);  // a different world entirely
    other.insert(estimate::ExperimentKey::roundtrip(0, 1, 64, 64), 1e-4);
    other.save(saved);
  }
  ServiceOptions o = quick_options();
  o.measurements_load = saved;
  try {
    Service s(cfg, o);
    FAIL() << "foreign measurements accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("9-node"), std::string::npos)
        << e.what();
  }
  std::remove(saved.c_str());
}

// ------------------------------------------------------- concurrency --

TEST(ServeParallelTest, ReadersHammerWhileRefitsPublish) {
  Service service(sim::make_random_cluster(4, 13), quick_options());
  const double expected = service.params().pt2pt(0, 1, 4096);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::Json p = service.handle(
          req(R"({"op":"predict","model":"lmo","queries":[[0,1,4096]]})"));
      if (!p.at("ok").as_bool() ||
          p.at("predictions").at("lmo")[0].as_double() != expected) {
        bad.fetch_add(1);
      }
      const obs::Json t = service.handle(
          req(R"({"op":"tune","collective":"scatter","message":2048})"));
      if (!t.at("ok").as_bool()) bad.fetch_add(1);
      if (!service.handle(req(R"({"op":"stats"})")).at("ok").as_bool())
        bad.fetch_add(1);
      // Hostile lines from reader threads must error, never crash.
      if (service.handle_line("{broken").body.find("\"ok\":false") ==
          std::string::npos) {
        bad.fetch_add(1);
      }
    }
  };
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) readers.emplace_back(reader);

  // Meanwhile mutating ops run from this thread: every measure refits and
  // republishes the fit the readers are consuming. The measured key set
  // never overlaps the campaign's message grid, and the fit is refit from
  // a superset store each time — pt2pt(0,1,4096) is a pure function of
  // the same underlying measurements, so concurrent readers must keep
  // seeing the identical double.
  for (int k = 0; k < 6; ++k) {
    obs::Json m = obs::Json::object();
    m["op"] = "measure";
    obs::Json exps = obs::Json::array();
    obs::Json e = obs::Json::object();
    e["kind"] = "roundtrip";
    e["a"] = k % 3;
    e["b"] = 3;
    e["m"] = 777 + k;
    e["reply"] = 777 + k;
    exps.push_back(std::move(e));
    m["experiments"] = std::move(exps);
    const obs::Json r = service.handle(m);
    if (!r.at("ok").as_bool()) bad.fetch_add(1);
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GE(service.fit_version(), 7u);
  EXPECT_EQ(service.params().pt2pt(0, 1, 4096), expected);
}

}  // namespace
}  // namespace lmo::serve
