#include "simnet/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "util/error.hpp"

namespace lmo::sim {

// 4-ary layout: children of i are 4i+1 .. 4i+4. Versus a binary heap this
// halves the sift depth (and therefore the node moves) at the cost of up to
// three extra comparisons per level — a good trade for the contiguous
// 16-byte nodes, which the comparisons hit in cache anyway.

void Engine::heap_push(Node n) {
  heap_.push_back(n);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!before(n, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = n;
}

Engine::Node Engine::heap_pop() {
  const Node out = heap_.front();
  const Node last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (n > 0) {
    // Top-down with early exit: the hole follows the min-child path until
    // the displaced tail element fits. (The bottom-up variant — sift to a
    // leaf unconditionally, then bubble the tail back up — measured ~25%
    // slower here: the early exit triggers often enough in simulation
    // workloads to beat the saved per-level comparison.)
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t end = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < end; ++c)
        if (before(heap_[c], heap_[best])) best = c;
      if (!before(heap_[best], last)) break;
      heap_[i] = heap_[best];
      i = best;
    }
    heap_[i] = last;
  }
  return out;
}

void Engine::schedule_at(SimTime t, Action fn) {
  LMO_CHECK_MSG(t >= now_, "cannot schedule into the past");
  if (fn.heap_allocated()) ++actions_spilled_;
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    slab_[slot] = std::move(fn);
  } else {
    slot = std::uint32_t(slab_.size());
    slab_.push_back(std::move(fn));
  }
  LMO_CHECK_MSG(next_seq_ < Node::kMaxSeq && slot <= Node::kMaxSlot,
                "event queue exhausted its packed (seq, slot) space");
  heap_push(Node{t, (next_seq_++ << Node::kSlotBits) | slot});
  if (heap_.size() > max_pending_) max_pending_ = heap_.size();
}

std::uint64_t Engine::take_seq(std::uint64_t n) {
  LMO_CHECK_MSG(n <= Node::kMaxSeq - next_seq_,
                "event queue exhausted its packed (seq, slot) space");
  const std::uint64_t first = next_seq_;
  next_seq_ += n;
  return first;
}

void Engine::enter_inline(std::uint64_t seq) {
  LMO_CHECK_MSG(seq < next_seq_, "an inline key needs a taken seq");
  enter(now_, seq);
}

void Engine::enter(SimTime t, std::uint64_t seq) {
#ifndef NDEBUG
  LMO_CHECK_MSG((!entered_ || Key{now_, seq_} < Key{t, seq}),
                "engine keys must rise within a run");
  entered_ = true;
#endif
  now_ = t;
  seq_ = seq;
}

bool Engine::step() {
  if (heap_.empty()) return false;
  const Node n = heap_pop();
  // Move the action out of its slot before executing so both heap and slab
  // can be mutated by the action itself (moved-from slots are empty, so
  // recycling the slot needs no further cleanup).
  const std::uint32_t slot = n.slot();
  Action fn = std::move(slab_[slot]);
  free_slots_.push_back(slot);
  enter(n.t, n.seq_slot >> Node::kSlotBits);
  ++executed_;
  if (flight_)
    flight_->record(std::uint64_t(now_.ns()), obs::FlightEvent::kEngineEvent,
                    0, std::uint32_t(heap_.size()));
  fn();
  return true;
}

SimTime Engine::run() {
  while (step()) {
  }
  return now_;
}

void Engine::reset() {
  LMO_CHECK_MSG(heap_.empty(),
                "Engine::reset() with pending events — run to completion or "
                "discard_pending() first");
  now_ = SimTime::zero();
  seq_ = 0;
  entered_ = false;
  next_seq_ = 0;  // order is relative, so restarting the counter is
                  // behavior-identical and keeps the packed seq space per-run
  executed_ = 0;
  max_pending_ = 0;
  // heap_/slab_/free_slots_ capacities are deliberately retained: after the
  // first repetition warms them to the high-water mark, later runs schedule
  // without touching the allocator.
}

void Engine::discard_pending() {
  heap_.clear();
  slab_.clear();  // destroys every pending closure
  free_slots_.clear();
}

}  // namespace lmo::sim
