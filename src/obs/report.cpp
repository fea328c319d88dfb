#include "obs/report.hpp"

#include <ctime>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace lmo::obs {

Json degradation_json(const Snapshot& snap) {
  Json faults = Json::object();
  Json recovery = Json::object();
  std::uint64_t quarantined = 0;
  std::uint64_t active = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("fault.", 0) == 0) {
      faults[name.substr(6)] = value;
      active += value;
    } else if (name.rfind("recovery.", 0) == 0) {
      recovery[name.substr(9)] = value;
      active += value;
    } else if (name == "store.quarantined") {
      quarantined = value;
      active += value;
    }
  }
  Json out = Json::object();
  out["clean"] = active == 0;
  out["quarantined"] = quarantined;
  out["faults"] = std::move(faults);
  out["recovery"] = std::move(recovery);
  return out;
}

ReportBuilder::ReportBuilder(std::string tool)
    : tool_(std::move(tool)),
      t0_us_(wall_now_us()),
      created_unix_((long long)std::time(nullptr)) {
#if defined(__VERSION__)
  provenance_["compiler"] = std::string(__VERSION__);
#endif
#if defined(NDEBUG)
  provenance_["build"] = "release";
#else
  provenance_["build"] = "debug";
#endif
}

void ReportBuilder::set(const std::string& key, Json value) {
  for (const auto& section : sections_) {
    LMO_CHECK_MSG(section.first != key,
                  "report section '" + key +
                      "' added twice — each section is set once");
  }
  sections_.emplace_back(key, std::move(value));
}

void ReportBuilder::add_table(Json table) {
  tables_.push_back(std::move(table));
}

void ReportBuilder::provenance(const std::string& key, Json value) {
  provenance_[key] = std::move(value);
}

Json ReportBuilder::build() const {
  Json doc = Json::object();
  doc["schema"] = kReportSchema;
  doc["tool"] = tool_;
  doc["created_unix"] = created_unix_;
  doc["wall_seconds"] = (wall_now_us() - t0_us_) * 1e-6;
  doc["provenance"] = provenance_;
  if (tables_.size() > 0) doc["tables"] = tables_;
  for (const auto& [k, v] : sections_) doc[k] = v;
  doc["metrics"] = Registry::global().snapshot().to_json();
  if (const ThreadPool* pool = ThreadPool::shared_if_started()) {
    std::uint64_t tasks = 0, busy = 0, idle = 0;
    for (const ThreadPool::WorkerStats& w : pool->worker_stats()) {
      tasks += w.tasks;
      busy += w.busy_ns;
      idle += w.idle_ns;
    }
    Json& tp = doc["thread_pool"] = Json::object();
    tp["workers"] = pool->size();
    tp["tasks"] = tasks;
    tp["busy_seconds"] = double(busy) * 1e-9;
    tp["idle_seconds"] = double(idle) * 1e-9;
  }
  return doc;
}

void ReportBuilder::write(const std::string& path) const {
  save_json(build(), path);
}

}  // namespace lmo::obs
