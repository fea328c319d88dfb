// Per-session flight recorder: a fixed-size ring of 16-byte binary events
// written allocation-free on the engine/session hot path.
//
// The recorder is a black box for degraded runs. Clean rounds pay one
// predicted-taken branch plus a 16-byte store per event and nothing is
// ever serialized; when a round ends degraded (timeout, poisoned slot,
// quarantine) the owner calls mark_degraded(), which copies the live ring
// into a dump that the run report / --flight-dump flag renders as JSON.
// Storage is allocated once at construction (ring capacity is a power of
// two), so attaching a recorder never perturbs the allocation-free
// invariant asserted by tests/test_alloc.cpp.
//
// Threading contract: record() is NOT synchronized. A recorder belongs to
// exactly one single-threaded owner (a SimSession and the host thread
// driving it); parallel measurement reps run in isolated sessions and are
// never attached to a shared recorder.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/json.hpp"

namespace lmo::obs {

/// Event codes. Values are part of the dump format — append, never renumber.
enum class FlightEvent : std::uint16_t {
  kRoundStart = 1,     ///< a: round index (low 16 bits), b: slot count
  kRoundComplete = 2,  ///< a: round index, b: committed reps
  kSendPosted = 3,     ///< a: source rank, b: message bytes
  kOpComplete = 4,     ///< a: destination rank, b: message bytes
  kFaultInjected = 5,  ///< a: rep index (low 16 bits), b: packed tallies
  kTimeout = 6,        ///< a: slot index, b: finite sample count
  kRetryWave = 7,      ///< a: wave index, b: slots retried
  kQuarantine = 8,     ///< a: slot index, b: 0
  kPoisoned = 9,       ///< a: slot index, b: reps observed
  kEngineEvent = 10,   ///< a: 0, b: heap size after pop (engine step)
};

[[nodiscard]] const char* flight_event_name(FlightEvent code);

class FlightRecorder {
 public:
  /// One recorded event. 16 bytes so a full default ring is 64 KiB and a
  /// record() is two stores.
  struct Event {
    std::uint64_t t_ns = 0;  ///< owner-defined clock (sim ns or wall ns)
    std::uint16_t code = 0;  ///< FlightEvent
    std::uint16_t a = 0;
    std::uint32_t b = 0;
  };
  static_assert(sizeof(Event) == 16, "flight events are 16-byte records");

  /// `capacity` is rounded up to a power of two (minimum 16). All storage
  /// is allocated here; record() never allocates.
  explicit FlightRecorder(std::size_t capacity = 4096);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Append one event, overwriting the oldest once the ring is full.
  /// Allocation-free and branch-cheap; single-threaded by contract.
  void record(std::uint64_t t_ns, FlightEvent code, std::uint16_t a,
              std::uint32_t b) {
    Event& e = ring_[head_ & mask_];
    e.t_ns = t_ns;
    e.code = std::uint16_t(code);
    e.a = a;
    e.b = b;
    ++head_;
  }

  /// Snapshot the ring (oldest event first) into the degraded dump. Called
  /// off the hot path when a round ends unhealthy; allocates. Repeated
  /// calls overwrite the previous dump.
  void mark_degraded();

  [[nodiscard]] bool has_dump() const { return !dump_.empty(); }
  /// The events captured by the last mark_degraded(), oldest first.
  [[nodiscard]] const std::vector<Event>& dump() const { return dump_; }

  /// Live ring contents, oldest first (allocates; test/inspection use).
  [[nodiscard]] std::vector<Event> events() const;

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }
  /// Total events recorded since construction (may exceed capacity).
  [[nodiscard]] std::uint64_t recorded() const { return head_; }
  [[nodiscard]] bool degraded() const { return has_dump(); }

  /// {"schema": "lmo.flight/1", "capacity": ..., "recorded": ...,
  ///  "degraded": ..., "events": [{"t_ns", "code", "name", "a", "b"}]} —
  /// events come from the degraded dump when one exists, else the live
  /// ring.
  [[nodiscard]] Json to_json() const;
  void save(const std::string& path) const;

 private:
  std::vector<Event> ring_;
  std::uint64_t head_ = 0;  ///< next write position (monotonic)
  std::uint64_t mask_ = 0;
  std::vector<Event> dump_;
};

}  // namespace lmo::obs
