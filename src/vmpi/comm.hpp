// Comm: the MPI-like interface a rank program communicates through.
//
// Semantics mirror MPI point-to-point over TCP:
//  * send() is blocking; for messages up to the rendezvous threshold it is
//    eager (returns once the data is buffered/handed to the NIC), above it
//    it is rendezvous (synchronizes with the matching recv);
//  * recv() is blocking and matches by (source, tag) preserving the
//    non-overtaking order per (source, destination, tag);
//  * isend() returns a Request to co_await via wait(); any number of
//    requests may be outstanding;
//  * compute() charges local per-message processing (C_i + n t_i) — used
//    by reduction-style collectives;
//  * message payloads are not simulated — only sizes and times are.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/bytes.hpp"
#include "util/time.hpp"

namespace lmo::vmpi {

class SimSession;
class Comm;

/// Matches any tag in recv().
inline constexpr int kAnyTag = -1;

namespace detail {
class OpArena;

/// Shared completion state of one communication operation. Pool-allocated
/// (see OpArena) and intrusively refcounted via OpRef — a session is
/// strictly single-threaded, so the count is a plain integer, not an
/// atomic, and each send/recv costs a free-list pop instead of the
/// make_shared control-block malloc the old code paid per operation.
struct OpState {
  bool has_completion = false;
  SimTime completion;
  Bytes bytes = 0;
  // At most one waiter (the owning rank's coroutine).
  std::coroutine_handle<> waiter = {};
  int waiter_rank = -1;
  SimTime waiter_post;

  std::uint32_t refs = 0;   ///< OpRef count (non-atomic by design)
  OpArena* arena = nullptr; ///< owning pool; reclaims the block on release
};

/// Free-list arena for OpState blocks. Blocks are carved from chunks of
/// kBlocksPerChunk and recycled as operations complete, so a session's
/// steady state allocates nothing per message. Single-threaded, like the
/// session that owns it. The arena must outlive every OpRef it produced
/// (i.e. Requests must not outlive their session — they never did
/// meaningfully, since a dead session cannot complete them); the
/// destructor aborts loudly if that contract is ever broken rather than
/// letting a stray Request scribble on freed memory.
class OpArena {
 public:
  ~OpArena();

  [[nodiscard]] OpState* allocate();
  void recycle(OpState* s) noexcept;

  /// Most blocks live at once since construction or the last
  /// reset_peak(). A fresh arena carves a block exactly when every carved
  /// one is live, so this equals its footprint in blocks; reuse keeps it
  /// at the operation high-water mark, not the operation count.
  [[nodiscard]] std::uint64_t peak_live() const { return peak_live_; }
  /// Restart the high-water mark from the blocks live now.
  void reset_peak() { peak_live_ = live_; }

 private:
  static constexpr std::size_t kBlocksPerChunk = 256;

  std::uint64_t peak_live_ = 0;
  std::uint64_t live_ = 0;
  std::vector<OpState*> free_;
  std::vector<std::unique_ptr<unsigned char[]>> chunks_;
  std::size_t chunk_used_ = 0;  ///< blocks handed out of chunks_.back()
};

/// Intrusive refcounting handle to a pooled OpState.
class OpRef {
 public:
  OpRef() noexcept = default;
  OpRef(std::nullptr_t) noexcept {}
  /// Adopts a pool block with refs already at 0.
  explicit OpRef(OpState* s) noexcept : s_(s) {
    if (s_) ++s_->refs;
  }
  OpRef(const OpRef& o) noexcept : s_(o.s_) {
    if (s_) ++s_->refs;
  }
  OpRef(OpRef&& o) noexcept : s_(o.s_) { o.s_ = nullptr; }
  OpRef& operator=(const OpRef& o) noexcept {
    OpRef copy(o);
    swap(copy);
    return *this;
  }
  OpRef& operator=(OpRef&& o) noexcept {
    swap(o);
    return *this;
  }
  ~OpRef() { release(); }

  void swap(OpRef& o) noexcept {
    OpState* t = s_;
    s_ = o.s_;
    o.s_ = t;
  }

  [[nodiscard]] OpState* get() const noexcept { return s_; }
  OpState& operator*() const noexcept { return *s_; }
  OpState* operator->() const noexcept { return s_; }
  explicit operator bool() const noexcept { return s_ != nullptr; }
  bool operator==(std::nullptr_t) const noexcept { return s_ == nullptr; }

 private:
  void release() noexcept {
    if (s_ && --s_->refs == 0) s_->arena->recycle(s_);
    s_ = nullptr;
  }

  OpState* s_ = nullptr;
};
}  // namespace detail

/// Handle to an outstanding isend.
class Request {
 public:
  Request() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }

 private:
  friend class SimSession;
  friend class Comm;
  friend struct WaitOp;
  explicit Request(detail::OpRef s)
      : state_(std::move(s)) {}
  detail::OpRef state_;
};

struct SendOp {
  SimSession* sess;
  int src;
  int dst;
  int tag;
  Bytes bytes;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

struct RecvOp {
  SimSession* sess;
  int dst;
  int src;
  int tag;
  detail::OpRef state;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  /// Returns the received message size.
  Bytes await_resume() const noexcept { return state->bytes; }
};

struct WaitOp {
  SimSession* sess;
  int rank;
  detail::OpRef state;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  /// Returns the message size.
  Bytes await_resume() const noexcept { return state->bytes; }
};

struct SleepOp {
  SimSession* sess;
  int rank;
  SimTime duration;

  bool await_ready() const noexcept { return duration <= SimTime::zero(); }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

struct ComputeOp {
  SimSession* sess;
  int rank;
  Bytes bytes;

  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h);
  void await_resume() const noexcept {}
};

class Comm {
 public:
  Comm() = default;

  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;
  /// Current simulated time at this rank.
  [[nodiscard]] SimTime now() const;

  /// Blocking send of `n` bytes to `dst`. co_await the result.
  [[nodiscard]] SendOp send(int dst, Bytes n, int tag = 0);
  /// Blocking receive from `src` (specific source or kAnyTag wildcard tag).
  /// co_await yields the message size.
  [[nodiscard]] RecvOp recv(int src, int tag = 0);

  /// Nonblocking send; complete with wait().
  [[nodiscard]] Request isend(int dst, Bytes n, int tag = 0);
  /// Await one request's completion; yields the message size.
  [[nodiscard]] WaitOp wait(const Request& r);

  /// Advance this rank's local time without using any resource.
  [[nodiscard]] SleepOp sleep(SimTime dt);
  /// Local per-message processing of n bytes: C_i + n t_i (with noise) —
  /// the combine step of reductions.
  [[nodiscard]] ComputeOp compute(Bytes n);

  /// The owning session (a World is one too).
  [[nodiscard]] SimSession* session() const { return sess_; }

 private:
  friend class SimSession;
  Comm(SimSession* s, int r) : sess_(s), rank_(r) {}

  SimSession* sess_ = nullptr;
  int rank_ = -1;
};

}  // namespace lmo::vmpi
