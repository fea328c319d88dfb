// Discrete-event engine.
//
// Deterministic: events at equal timestamps fire in insertion order, and all
// time is integer nanoseconds, so a simulation is bit-reproducible for a
// given seed regardless of platform.
//
// The event queue is an indexed 4-ary min-heap rather than a
// std::priority_queue<Event>: top() on a priority_queue is const, so popping
// an event would have to *copy* its closure out (the bug this design
// replaces). Here the heap orders small trivially-copyable {time, seq, slot}
// nodes while the Actions sit untouched in a slab with a free list — sifts
// shuffle 16-byte keys, never closures, and pop_min() genuinely moves the
// Action out of its slot. Together with Action's inline capture storage the
// schedule/fire cycle is allocation-free once slab and heap have grown to
// the high-water mark. The pop order is a pure function of the (t, seq)
// total order, so the rewrite is bit-identical to the old queue.
#pragma once

#include <cstdint>
#include <vector>

#include "simnet/action.hpp"
#include "util/time.hpp"

namespace lmo::obs {
class FlightRecorder;
}  // namespace lmo::obs

namespace lmo::sim {

class Engine {
 public:
  using Action = sim::Action;

  /// An event's place in the total order: time, then insertion order.
  struct Key {
    SimTime t;
    std::uint64_t seq = 0;
    friend bool operator<(const Key& a, const Key& b) {
      return a.t != b.t ? a.t < b.t : a.seq < b.seq;
    }
  };

  [[nodiscard]] SimTime now() const { return now_; }

  /// Key of the running event (or of the last one run). Every key below
  /// it has run this run; every key above it has not.
  [[nodiscard]] Key current() const { return {now_, seq_}; }

  /// Take `n` consecutive seqs without scheduling anything, and return the
  /// first: the keys events would have had, for work that must order like
  /// an event but needs no action of its own.
  std::uint64_t take_seq(std::uint64_t n = 1);

  /// Make (now, seq) the running key of work the caller runs inline, for a
  /// seq taken with take_seq(). Inline keys join the order of popped ones.
  void enter_inline(std::uint64_t seq);

  /// Schedule `fn` at absolute time `t` (>= now).
  void schedule_at(SimTime t, Action fn);

  /// Schedule `fn` `dt` after now.
  void schedule_after(SimTime dt, Action fn) { schedule_at(now_ + dt, std::move(fn)); }

  /// Pop and execute the earliest event. Returns false if the queue was
  /// empty.
  bool step();

  /// Run until the event queue drains. Returns the final time.
  SimTime run();

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const { return executed_; }
  /// Queue high-water mark since the last reset().
  [[nodiscard]] std::size_t max_pending() const { return max_pending_; }
  /// Actions whose captures spilled past Action's inline buffer — the
  /// allocation-free hot path keeps this at zero. Lifetime counter, not
  /// cleared by reset().
  [[nodiscard]] std::uint64_t actions_spilled() const {
    return actions_spilled_;
  }

  /// Reset the clock between measurement repetitions. The queue must
  /// already be drained (run() ran to completion) — silently dropping
  /// pending events could strand suspended coroutines whose only resume
  /// path lives in those events; throws if any are pending. For abnormal
  /// teardown, call discard_pending() first.
  void reset();

  /// Destroy all pending events without executing them. The event actions
  /// are released safely (their closures are destroyed; coroutine handles
  /// they hold are non-owning, the frames stay owned by their Tasks). Only
  /// for abnormal teardown — see reset().
  void discard_pending();

  /// Attach (or detach, with nullptr) a flight recorder. Each executed
  /// event records a kEngineEvent with the post-pop queue depth — one
  /// predicted branch plus a 16-byte ring store, no allocation
  /// (AllocGate.EngineEventsAllocateNothing in tests/test_alloc.cpp runs
  /// with a recorder attached). The recorder is borrowed; the engine is
  /// single-threaded so no synchronization is needed.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return flight_;
  }

 private:
  /// Heap node: ordering key plus the slab slot holding the Action.
  /// seq and slot pack into one word (seq in the high bits, so comparing
  /// the packed word breaks timestamp ties by insertion order — two nodes
  /// never share a seq) to keep the node at 16 bytes: power-of-two
  /// indexing, and a 4-child sibling group spans one cache line.
  struct Node {
    SimTime t;
    std::uint64_t seq_slot;

    static constexpr int kSlotBits = 24;
    static constexpr std::uint64_t kMaxSeq = std::uint64_t(1)
                                             << (64 - kSlotBits);
    static constexpr std::uint32_t kMaxSlot = (std::uint32_t(1) << kSlotBits) -
                                              1;
    [[nodiscard]] std::uint32_t slot() const {
      return std::uint32_t(seq_slot) & kMaxSlot;
    }
  };
  /// Strict total order: earlier time first, insertion order on ties. The
  /// two-step branchy form beats a branchless 128-bit (t, seq) key compare
  /// here: simulation schedules are close to time-ordered, so the t
  /// comparison predicts well.
  static bool before(const Node& a, const Node& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq_slot < b.seq_slot;
  }

  void heap_push(Node n);
  Node heap_pop();
  /// Make (t, seq) the running key. Debug builds check that keys only
  /// rise within a run.
  void enter(SimTime t, std::uint64_t seq);

  SimTime now_ = SimTime::zero();
  std::uint64_t seq_ = 0;      ///< seq of the running event
  bool entered_ = false;       ///< debug builds: a key ran since reset()
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t actions_spilled_ = 0;
  std::size_t max_pending_ = 0;
  std::vector<Node> heap_;                  ///< 4-ary min-heap of keys
  std::vector<Action> slab_;                ///< action storage, heap-indexed
  std::vector<std::uint32_t> free_slots_;   ///< recycled slab slots
  obs::FlightRecorder* flight_ = nullptr;   ///< borrowed; null = off
};

}  // namespace lmo::sim
