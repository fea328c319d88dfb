#include "obs/flight_recorder.hpp"

namespace lmo::obs {

const char* flight_event_name(FlightEvent code) {
  switch (code) {
    case FlightEvent::kRoundStart: return "round_start";
    case FlightEvent::kRoundComplete: return "round_complete";
    case FlightEvent::kSendPosted: return "send_posted";
    case FlightEvent::kOpComplete: return "op_complete";
    case FlightEvent::kFaultInjected: return "fault_injected";
    case FlightEvent::kTimeout: return "timeout";
    case FlightEvent::kRetryWave: return "retry_wave";
    case FlightEvent::kQuarantine: return "quarantine";
    case FlightEvent::kPoisoned: return "poisoned";
    case FlightEvent::kEngineEvent: return "engine_event";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(std::size_t capacity) {
  std::size_t cap = 16;
  while (cap < capacity) cap <<= 1;
  ring_.resize(cap);
  mask_ = cap - 1;
}

std::vector<FlightRecorder::Event> FlightRecorder::events() const {
  std::vector<Event> out;
  const std::uint64_t n = head_ < ring_.size() ? head_ : ring_.size();
  out.reserve(std::size_t(n));
  // Oldest surviving event first: once the ring has wrapped, the slot at
  // head_ & mask_ holds the oldest record.
  const std::uint64_t start = head_ < ring_.size() ? 0 : head_ - n;
  for (std::uint64_t i = 0; i < n; ++i)
    out.push_back(ring_[(start + i) & mask_]);
  return out;
}

void FlightRecorder::mark_degraded() { dump_ = events(); }

Json FlightRecorder::to_json() const {
  const std::vector<Event> live = dump_.empty() ? events() : dump_;
  Json doc = Json::object();
  doc["schema"] = "lmo.flight/1";
  doc["capacity"] = capacity();
  doc["recorded"] = recorded();
  doc["degraded"] = degraded();
  Json evs = Json::array();
  for (const Event& e : live) {
    Json j = Json::object();
    j["t_ns"] = e.t_ns;
    j["code"] = e.code;
    j["name"] = flight_event_name(FlightEvent(e.code));
    j["a"] = e.a;
    j["b"] = e.b;
    evs.push_back(std::move(j));
  }
  doc["events"] = std::move(evs);
  return doc;
}

void FlightRecorder::save(const std::string& path) const {
  save_json(to_json(), path);
}

}  // namespace lmo::obs
