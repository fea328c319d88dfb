// lmo_served — estimation-as-a-service over stdio JSONL (DESIGN.md §17).
//
//   lmo_served --cluster cluster.json [options]
//
// Loads the cluster (a JSON config, flat or hierarchical), runs the
// estimation campaign (resuming from --measurements-load when given),
// then answers one JSON request per stdin line with one JSON response per
// stdout line (compact, flushed per response). Status goes to stderr, so
// stdout carries responses only. EOF or a {"op":"shutdown"} request exits
// 0 cleanly; startup failures print "error: <message>" to stderr and exit
// 1; bad usage exits 2. Request-level failures NEVER exit — they become
// {"ok":false,"error":...} responses (see serve::Service).
//
//   --cluster PATH             cluster config to serve (required)
//   --measurements-load PATH   warm-start measurement store
//   --measurements-save PATH   checkpoint store here (every round) and on
//                              {"op":"snapshot"} requests without a path
//   --jobs N                   worker threads for measured repetitions
//   --max-request-bytes N      reject longer request lines (default 8M)
//   --metrics-out PATH         write Prometheus metrics on exit
#include <iostream>
#include <string>

#include "obs/exposition.hpp"
#include "serve/service.hpp"
#include "simnet/config_io.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

int usage() {
  std::cerr << "usage: lmo_served --cluster cluster.json "
               "[--measurements-load f] [--measurements-save f] [--jobs N] "
               "[--max-request-bytes N] [--metrics-out f]\n"
               "  see the header comment of tools/lmo_served.cpp\n";
  return 2;
}

int main(int argc, char** argv) {
  try {
    const lmo::Cli cli(argc, argv,
                       {"cluster", "measurements-load", "measurements-save",
                        "jobs", "max-request-bytes", "metrics-out"});
    const std::string cluster_path = cli.get("cluster", "");
    if (cluster_path.empty()) return usage();
    lmo::set_default_jobs(int(cli.get_int("jobs", 0)));

    lmo::serve::ServiceOptions options;
    options.measurements_load = cli.get("measurements-load", "");
    options.measurements_save = cli.get("measurements-save", "");
    options.max_request_bytes = std::size_t(
        cli.get_bytes("max-request-bytes",
                      std::int64_t(options.max_request_bytes)));

    auto cfg = lmo::sim::load_cluster(cluster_path);
    std::cerr << "lmo_served: estimating " << cfg.size()
              << "-node cluster from " << cluster_path << "...\n";
    lmo::serve::Service service(std::move(cfg), options);
    std::cerr << "lmo_served: ready (" << service.store().size()
              << " measurements, fit v" << service.fit_version() << ")\n";

    std::string line;
    bool shutdown = false;
    while (!shutdown && std::getline(std::cin, line)) {
      if (line.empty()) continue;
      const lmo::serve::Response r = service.handle_line(line);
      std::cout << r.body << "\n" << std::flush;
      shutdown = r.shutdown;
    }

    const std::string metrics_path = cli.get("metrics-out", "");
    if (!metrics_path.empty()) lmo::obs::write_prometheus(metrics_path);
    std::cerr << "lmo_served: served " << service.requests()
              << " requests (" << service.errors() << " errors), "
              << (shutdown ? "shutdown requested" : "stdin closed") << "\n";
    return 0;
  } catch (const lmo::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
