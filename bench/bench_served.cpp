// bench_served — throughput of the estimation-service hot paths.
//
// One serve::Service is stood up on the Table-I cluster (full estimation
// campaign), then two paths are timed:
//
//  * service_qps — (i, j, M) query triples per second through the full
//    request path: JSON parse -> pt2pt -> JSON response, exactly what one
//    lmo_served client experiences;
//  * the reader benchmark — warm-store lookups through the published
//    immutable snapshot on 1 thread and on --threads threads. Reported,
//    not gated: how far the snapshot side scales depends on the host's
//    free cores.
//
// Before timing anything, the bench asserts that every served prediction,
// after the JSON round trip, is bit-identical to LmoParams::pt2pt and its
// Hockney and original-LMO views — throughput of wrong answers is not a
// result.
//
// Writes the lmo.bench_served/1 document to --out and gates its own run
// with --min-qps (service_qps, default 10000; 0 disables).
#include <atomic>
#include <chrono>
#include <iostream>
#include <thread>
#include <vector>

#include "common.hpp"
#include "serve/service.hpp"
#include "util/error.hpp"

using namespace lmo;

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Run `body()` on `threads` threads, released together; returns the wall
/// seconds from release to the last finisher.
double timed_threads(int threads, const std::function<void()>& body) {
  std::atomic<bool> go{false};
  std::vector<std::thread> pool;
  pool.reserve(std::size_t(threads));
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      body();
    });
  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& th : pool) th.join();
  return seconds_since(t0);
}

struct Triple {
  int i = 0;
  int j = 0;
  Bytes m = 0;
};

}  // namespace

int run(int argc, char** argv) {
  const Cli cli = bench::parse_bench_cli(
      argc, argv,
      {"batch", "batches", "threads", "reader-iters", "min-qps", "out"});
  const std::uint64_t seed = std::uint64_t(cli.get_int("seed", 1));
  const int batch = int(cli.get_int("batch", 2048));
  const int batches = int(cli.get_int("batches", 16));
  const int threads = int(cli.get_int("threads", 4));
  const long reader_iters = cli.get_int("reader-iters", 200000);
  const double min_qps = cli.get_double("min-qps", 10000.0);
  const std::string out = cli.get("out", "BENCH_served.json");
  LMO_CHECK_MSG(batch > 0 && batches > 0 && threads > 0 && reader_iters > 0,
                "--batch, --batches, --threads, and --reader-iters must all "
                "be positive");

  std::cout << "standing up the service (full estimation campaign)...\n";
  serve::ServiceOptions sopts;
  sopts.measure = bench::bench_measure_options();
  serve::Service service(sim::make_paper_cluster(seed), sopts);
  const int n = service.size();

  // One batch of (i, j, M) triples cycling over pairs and sizes.
  std::vector<Triple> queries;
  std::string triples;
  for (int k = 0; k < batch; ++k) {
    const Triple q{k % n, (k % n + 1 + (k / n) % (n - 1)) % n,
                   Bytes(1) << (6 + k % 13)};  // 64 B .. 256 KB
    queries.push_back(q);
    if (k > 0) triples += ',';
    triples += '[' + std::to_string(q.i) + ',' + std::to_string(q.j) + ',' +
               std::to_string(q.m) + ']';
  }
  const std::string all_models =
      R"({"op":"predict","queries":[)" + triples + "]}";
  const std::string request =
      R"({"op":"predict","models":["lmo"],"queries":[)" + triples + "]}";

  // Correctness before speed: every served model, through the JSON round
  // trip, must equal its scalar pt2pt bit for bit.
  {
    const obs::Json resp =
        obs::Json::parse(service.handle_line(all_models).body);
    LMO_CHECK_MSG(resp.at("ok").as_bool(),
                  "predict request failed: " + resp.dump(0).substr(0, 200));
    const core::LmoParams& p = service.params();
    const models::HeteroHockney h = p.as_hockney();
    const core::LmoOriginalParams o = core::fold_latencies(p);
    const obs::Json& pred = resp.at("predictions");
    for (std::size_t k = 0; k < queries.size(); ++k) {
      const Triple& q = queries[k];
      LMO_CHECK_MSG(pred.at("lmo")[k].as_double() == p.pt2pt(q.i, q.j, q.m) &&
                        pred.at("hockney")[k].as_double() ==
                            h.pt2pt(q.i, q.j, q.m) &&
                        pred.at("original")[k].as_double() ==
                            o.pt2pt(q.i, q.j, q.m),
                    "served prediction diverged from scalar pt2pt at query " +
                        std::to_string(k));
    }
  }

  // --- service path: full JSON request -> response round trips.
  double service_s = 0.0;
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < batches; ++b) {
      const serve::Response r = service.handle_line(request);
      LMO_CHECK_MSG(r.body.find("\"ok\":true") != std::string::npos,
                    "predict request failed: " + r.body.substr(0, 200));
    }
    service_s = seconds_since(t0);
  }
  const double service_qps = double(batch) * batches / service_s;

  // --- snapshot readers: the same warm-store lookups on 1 and on
  // --threads threads.
  const estimate::MeasurementStore& store = service.store();
  const auto snap = store.snapshot();
  LMO_CHECK_MSG(snap->size() > 0, "campaign left an empty store");
  const std::vector<estimate::ExperimentKey>& keys = snap->keys;
  auto read_snapshot = [&] {
    const auto view = store.snapshot();  // grabbed once, then lock-free
    volatile double sink = 0.0;
    for (long q = 0; q < reader_iters; ++q)
      sink = *view->find(keys[std::size_t(q) % keys.size()]);
    (void)sink;
  };
  const double reader_qps_single =
      double(reader_iters) / timed_threads(1, read_snapshot);
  const double reader_qps_threads =
      double(reader_iters) * threads / timed_threads(threads, read_snapshot);

  Table table({"path", "threads", "queries/s"});
  table.add_row({"service (JSON round trip)", "1",
                 format_fixed(service_qps, 0)});
  table.add_row({"store reads, snapshot", "1",
                 format_fixed(reader_qps_single, 0)});
  table.add_row({"store reads, snapshot", std::to_string(threads),
                 format_fixed(reader_qps_threads, 0)});
  bench::emit(table, cli, "Serving-path throughput");

  obs::Json doc = obs::Json::object();
  doc["schema"] = "lmo.bench_served/1";
  doc["cluster_size"] = n;
  doc["store_entries"] = snap->size();
  doc["queries_per_batch"] = batch;
  doc["batches"] = batches;
  doc["threads"] = threads;
  doc["reader_iters"] = reader_iters;
  obs::Json models = obs::Json::array();
  for (const char* m : serve::kServeModels) models.push_back(m);
  doc["models"] = std::move(models);
  doc["service_qps"] = service_qps;
  doc["reader_qps_single"] = reader_qps_single;
  doc["reader_qps_threads"] = reader_qps_threads;
  obs::save_json(doc, out);
  std::cout << "served benchmark: " << out << "\n";

  const int rc = bench::finish_run();
  if (min_qps > 0.0 && service_qps < min_qps) {
    std::cout << "FAIL: service_qps " << format_fixed(service_qps, 0)
              << " below --min-qps " << format_fixed(min_qps, 0) << "\n";
    return 1;
  }
  return rc;
}

int main(int argc, char** argv) {
  return lmo::bench::guarded_main([&] { return run(argc, argv); });
}
