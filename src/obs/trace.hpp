// Shared Chrome/Perfetto trace sink: one timeline for everything.
//
// Two "processes" structure the view in ui.perfetto.dev:
//  * kSimPid  — simulated-cluster tracks, one per rank, timestamps in
//    simulated microseconds (message transfer/recv events from
//    vmpi/trace_json);
//  * kHostPid — host wall-clock tracks, one per thread/worker, carrying
//    estimator phase spans, measurement rounds, and thread-pool task
//    spans.
//
// The sink is mutex-protected and append-only; write() serializes the
// Chrome trace *object* form ({"traceEvents": [...]}) with
// process_name/thread_name metadata events so tracks are labelled. A
// process-global sink exists but is disabled by default — enabling it (the
// --trace flag) also installs the thread-pool task hook, so spans cost
// nothing on untraced runs.
#pragma once

#include <chrono>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace lmo::obs {

inline constexpr int kSimPid = 1;   ///< simulated cluster (sim time)
inline constexpr int kHostPid = 2;  ///< estimation host (wall clock)

class TraceSink {
 public:
  struct Event {
    std::string name;
    std::string cat;
    int pid = kHostPid;
    int tid = 0;
    double ts_us = 0.0;
    double dur_us = 0.0;
    Json args;  ///< null or an object
  };

  TraceSink() = default;
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// Append one complete ("X") event.
  void add(Event e);
  void complete(std::string name, std::string cat, int pid, int tid,
                double ts_us, double dur_us, Json args = {});

  /// Track labels, emitted as Chrome metadata ("M") events.
  void set_process_name(int pid, std::string name);
  void set_thread_name(int pid, int tid, std::string name);

  /// Serialize the object form: {"traceEvents": [...]} — metadata events
  /// first, then the recorded events in insertion order.
  void write(std::ostream& os) const;
  void save(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<int, std::string> process_names_;
  std::map<std::pair<int, int>, std::string> thread_names_;
};

/// Wall-clock microseconds since the process trace epoch (first use).
[[nodiscard]] double wall_now_us();
[[nodiscard]] double to_trace_us(std::chrono::steady_clock::time_point tp);

/// The process-global sink, or nullptr while tracing is disabled.
[[nodiscard]] TraceSink* global_sink();
/// Enable/disable the global sink. Enabling installs the thread-pool task
/// hook so worker task spans are recorded too.
void set_global_trace_enabled(bool on);

/// Small dense id for the calling thread (0 = first caller), used as the
/// host-pid track id for spans.
[[nodiscard]] int current_thread_tid();

/// RAII wall-clock span: records a complete event on `sink` from
/// construction to destruction on the calling thread's host track. A null
/// sink makes construction and destruction free.
class Span {
 public:
  Span(TraceSink* sink, std::string name, std::string cat = "phase");
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  TraceSink* sink_;
  std::string name_;
  std::string cat_;
  double t0_us_ = 0.0;
};

/// Span on the global sink — a no-op unless tracing is enabled.
[[nodiscard]] Span span(std::string name, std::string cat = "phase");

}  // namespace lmo::obs
