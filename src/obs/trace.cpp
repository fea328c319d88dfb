#include "obs/trace.hpp"

#include <atomic>
#include <fstream>
#include <ostream>
#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lmo::obs {

void TraceSink::add(Event e) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(std::move(e));
}

void TraceSink::complete(std::string name, std::string cat, int pid, int tid,
                         double ts_us, double dur_us, Json args) {
  Event e;
  e.name = std::move(name);
  e.cat = std::move(cat);
  e.pid = pid;
  e.tid = tid;
  e.ts_us = ts_us;
  e.dur_us = dur_us;
  e.args = std::move(args);
  add(std::move(e));
}

void TraceSink::set_process_name(int pid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  process_names_[pid] = std::move(name);
}

void TraceSink::set_thread_name(int pid, int tid, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  thread_names_[{pid, tid}] = std::move(name);
}

void TraceSink::write(std::ostream& os) const {
  Json events = Json::array();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto metadata = [&](const char* kind, int pid, int tid,
                        const std::string& name) {
      Json m = Json::object();
      m["name"] = kind;
      m["ph"] = "M";
      m["pid"] = pid;
      m["tid"] = tid;
      m["args"]["name"] = name;
      events.push_back(std::move(m));
    };
    for (const auto& [pid, name] : process_names_)
      metadata("process_name", pid, 0, name);
    for (const auto& [key, name] : thread_names_)
      metadata("thread_name", key.first, key.second, name);
    for (const Event& e : events_) {
      Json j = Json::object();
      j["name"] = e.name;
      j["cat"] = e.cat;
      j["ph"] = "X";
      j["pid"] = e.pid;
      j["tid"] = e.tid;
      j["ts"] = e.ts_us;
      j["dur"] = e.dur_us;
      if (!e.args.is_null()) j["args"] = e.args;
      events.push_back(std::move(j));
    }
  }
  Json doc = Json::object();
  doc["traceEvents"] = std::move(events);
  doc.dump(os, 1);
  os << "\n";
}

void TraceSink::save(const std::string& path) const {
  std::ofstream os(path);
  LMO_CHECK_MSG(os.good(), "cannot open " + path + " for writing");
  write(os);
  LMO_CHECK_MSG(os.good(), "write failed: " + path);
}

// ----------------------------------------------------- global plumbing ----

namespace {

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

// Leaked on purpose: thread-pool hook callbacks and exit-time writers may
// outlive ordinary static destruction order.
TraceSink& global_sink_storage() {
  static TraceSink* sink = new TraceSink();
  return *sink;
}

std::atomic<bool> g_trace_enabled{false};

}  // namespace

double to_trace_us(std::chrono::steady_clock::time_point tp) {
  return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    tp - trace_epoch())
                    .count()) *
         1e-3;
}

double wall_now_us() { return to_trace_us(std::chrono::steady_clock::now()); }

TraceSink* global_sink() {
  return g_trace_enabled.load(std::memory_order_acquire)
             ? &global_sink_storage()
             : nullptr;
}

void set_global_trace_enabled(bool on) {
  if (on) {
    (void)trace_epoch();  // pin the epoch before the first event
    TraceSink& sink = global_sink_storage();
    sink.set_process_name(kSimPid, "simulated cluster (sim time)");
    sink.set_process_name(kHostPid, "estimation host (wall clock)");
    ThreadPool::set_task_hook(
        [](int worker, std::chrono::steady_clock::time_point begin,
           std::chrono::steady_clock::time_point end) {
          TraceSink* s = global_sink();
          if (!s) return;
          const int tid = 100 + worker;
          s->set_thread_name(kHostPid, tid,
                             "pool worker " + std::to_string(worker));
          s->complete("task", "pool", kHostPid, tid, to_trace_us(begin),
                      to_trace_us(end) - to_trace_us(begin));
        });
    g_trace_enabled.store(true, std::memory_order_release);
  } else {
    g_trace_enabled.store(false, std::memory_order_release);
    ThreadPool::set_task_hook(nullptr);
  }
}

int current_thread_tid() {
  static std::atomic<int> next{0};
  thread_local const int tid = next.fetch_add(1);
  return tid;
}

// ----------------------------------------------------------------- Span ----

Span::Span(TraceSink* sink, std::string name, std::string cat)
    : sink_(sink), name_(std::move(name)), cat_(std::move(cat)) {
  if (sink_) t0_us_ = wall_now_us();
}

Span::~Span() {
  if (!sink_) return;
  const int tid = current_thread_tid();
  sink_->set_thread_name(kHostPid, tid, "thread " + std::to_string(tid));
  sink_->complete(std::move(name_), std::move(cat_), kHostPid, tid, t0_us_,
                  wall_now_us() - t0_us_);
}

Span span(std::string name, std::string cat) {
  return Span(global_sink(), std::move(name), std::move(cat));
}

}  // namespace lmo::obs
