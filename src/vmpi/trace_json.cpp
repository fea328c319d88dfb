#include "vmpi/trace_json.hpp"

#include <string>

namespace lmo::vmpi {

void append_chrome_trace(obs::TraceSink& sink,
                         const std::vector<MessageTrace>& trace) {
  sink.set_process_name(obs::kSimPid, "simulated cluster (sim time)");
  auto event = [&](std::string name, int rank, double ts_us, double dur_us,
                   const MessageTrace& m) {
    sink.set_thread_name(obs::kSimPid, rank, "rank " + std::to_string(rank));
    obs::Json args = obs::Json::object();
    args["bytes"] = m.bytes;
    args["tag"] = m.tag;
    args["rendezvous"] = m.rendezvous;
    sink.complete(std::move(name), "msg", obs::kSimPid, rank, ts_us, dur_us,
                  std::move(args));
  };
  for (const MessageTrace& m : trace) {
    const std::string label =
        std::to_string(m.src) + "->" + std::to_string(m.dst);
    event("transfer " + label, m.src, m.send_post.micros(),
          (m.arrival - m.send_post).micros(), m);
    event("recv " + label, m.dst, m.arrival.micros(),
          (m.recv_complete - m.arrival).micros(), m);
  }
}

}  // namespace lmo::vmpi
