// Inspecting the gather escalations with World tracing: run a medium-size
// linear gather repeatedly with per-message tracing enabled and print the
// per-message timeline of the worst run — the paper's Section V
// irregularity made visible message by message.
#include <algorithm>
#include <iostream>

#include "coll/collectives.hpp"
#include "simnet/cluster.hpp"
#include "util/format.hpp"
#include "util/table.hpp"
#include "vmpi/world.hpp"

int main() {
  using namespace lmo;
  const Bytes block = 32 * 1024;  // inside the escalation band
  vmpi::World world(sim::make_paper_cluster());
  world.set_tracing(true);

  // Find the worst run out of a handful.
  double worst = 0;
  std::vector<vmpi::MessageTrace> worst_trace;
  for (int rep = 0; rep < 12; ++rep) {
    const double t = world
                         .run(coll::spmd(world.size(),
                                         [block](vmpi::Comm& c) {
                                           return coll::linear_gather(c, 0,
                                                                      block);
                                         }))
                         .seconds();
    if (t > worst) {
      worst = t;
      worst_trace = world.trace();
    }
  }
  std::cout << "worst of 12 gathers of " << format_bytes(block) << ": "
            << format_seconds(worst) << "\n\n";

  // Expected wire+processing time per message, to flag escalations.
  const auto& cfg = world.config();
  Table t({"src", "posted", "arrived", "done", "transfer", "note"});
  for (const auto& m : worst_trace) {
    const double nominal =
        cfg.nodes[std::size_t(m.src)].fixed_delay_s +
        double(m.bytes) * cfg.nodes[std::size_t(m.src)].per_byte_s +
        cfg.latency(m.src, m.dst) + double(m.bytes) / cfg.rate(m.src, m.dst);
    const double transfer = (m.arrival - m.send_post).seconds();
    const bool escalated = transfer > nominal + 0.02;
    t.add_row({std::to_string(m.src), format_time(m.send_post),
               format_time(m.arrival), format_time(m.recv_complete),
               format_seconds(transfer),
               escalated ? "ESCALATED (+TCP retransmit)" : ""});
  }
  t.print(std::cout);

  int escalated = 0;
  for (const auto& m : worst_trace)
    if ((m.arrival - m.send_post).seconds() >
        0.02 + cfg.latency(m.src, m.dst) +
            double(m.bytes) * (cfg.nodes[std::size_t(m.src)].per_byte_s +
                               1.0 / cfg.rate(m.src, m.dst)))
      ++escalated;
  std::cout << "\n" << escalated << " of " << worst_trace.size()
            << " messages escalated; the root's sequential receive loop "
               "stalls behind each one —\nwhich is why the split-gather "
               "optimization (bench_fig7_optimized_gather) pays off.\n";
  return 0;
}
