// SimSession: one self-contained simulation of a set of rank programs.
//
// A session owns everything one simulation needs — discrete-event engine,
// fabric timelines, per-rank communicators and message queues — and shares
// only an immutable ClusterConfig with other sessions. Construction
// validates the config and sizes O(ranks) buffers; reset(seed) turns a
// used session into one that behaves exactly like a fresh
// SimSession(config, seed) while keeping every buffer, so experimenters
// keep one session per worker and reset it per repetition instead of
// building one each. A session itself is strictly
// single-threaded. Noise RNGs seed from an explicit per-session seed
// (default: the config's), which is what makes a fleet of parallel
// sessions reproduce a serial run bit-for-bit — see util/parallel.hpp and
// the "Session & concurrency model" section of DESIGN.md.
//
// run() executes one "round": every rank gets a coroutine program
// (possibly empty), all start at t = 0, and the engine drives them to
// completion. Wire timelines reset between runs; the fabric's RNG state
// persists across runs *within* a session, so repeated runs of the same
// programs observe fresh noise — exactly what the repetition-based
// measurement methodology needs.
//
// Message semantics: eager sends are fully scheduled at send time;
// rendezvous sends synchronize with the matching receive. Receives are
// blocking and serialize their processing in program order. MPI
// non-overtaking matching per (src, dst, tag).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "simnet/cluster.hpp"
#include "simnet/engine.hpp"
#include "simnet/fabric.hpp"
#include "vmpi/comm.hpp"
#include "vmpi/task.hpp"

namespace lmo::obs {
class FlightRecorder;
class Registry;
class TraceSink;
}  // namespace lmo::obs

namespace lmo::vmpi {

/// A rank's program: invoked once per run with that rank's Comm.
using RankProgram = std::function<Task(Comm&)>;

/// Plain per-session observability counters: cheap to copy, fold, and
/// compare. Deliberately not atomic — a session is single-threaded, and the
/// estimation layer publishes metrics into the global obs registry only for
/// *committed* repetitions, which keeps the published totals independent of
/// the --jobs level (wall-clock host_ns excepted).
struct SessionMetrics {
  std::uint64_t runs = 0;              ///< completed run() rounds
  std::uint64_t events = 0;            ///< engine events executed
  std::uint64_t queue_high_water = 0;  ///< max event-queue depth (max-merge)
  std::uint64_t msgs_eager = 0;        ///< eager sends posted
  std::uint64_t msgs_rendezvous = 0;   ///< rendezvous sends posted
  std::uint64_t transfers = 0;         ///< wire transfers
  std::uint64_t bytes_on_wire = 0;     ///< frame bytes on the wire
  std::uint64_t escalations = 0;       ///< escalation-quirk hits
  std::uint64_t frag_leaps = 0;        ///< fragmentation-leap hits
  std::uint64_t host_ns = 0;           ///< host wall time inside engine runs
  std::uint64_t sim_ns = 0;            ///< accumulated simulated time
  std::uint64_t actions_spilled = 0;   ///< event closures too big for inline
  std::uint64_t op_pool_blocks = 0;    ///< OpState blocks carved (max-merge)

  void merge(const SessionMetrics& o);
};

/// Add `m` into `reg` under the sim.* metric names.
void publish_metrics(const SessionMetrics& m, obs::Registry& reg);

/// Convenience: n empty slots to fill in.
[[nodiscard]] std::vector<RankProgram> idle_programs(int n);

/// One matched message, as recorded by session tracing: who sent what to
/// whom, when it was posted, when the last byte arrived, and when the
/// receiver finished processing it. Ordered by match time.
struct MessageTrace {
  int src = -1;
  int dst = -1;
  int tag = 0;
  Bytes bytes = 0;
  bool rendezvous = false;
  SimTime send_post;
  SimTime arrival;
  SimTime recv_complete;
};

class SimSession {
 public:
  /// Noise seeds from cfg->seed.
  explicit SimSession(std::shared_ptr<const sim::ClusterConfig> cfg);
  /// Noise seeds from `seed` — deterministic per-session streams.
  SimSession(std::shared_ptr<const sim::ClusterConfig> cfg,
             std::uint64_t seed);

  SimSession(const SimSession&) = delete;
  SimSession& operator=(const SimSession&) = delete;

  [[nodiscard]] int size() const { return cfg_->size(); }
  [[nodiscard]] const sim::ClusterConfig& config() const { return *cfg_; }
  /// The immutable cluster description, shareable with sibling sessions.
  [[nodiscard]] const std::shared_ptr<const sim::ClusterConfig>&
  shared_config() const {
    return cfg_;
  }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] sim::Fabric& fabric() { return fabric_; }

  /// Become observably identical to SimSession(shared_config(), seed):
  /// noise RNGs re-split from `seed`; runs, accumulated time, metrics and
  /// the trace zeroed; tracing, trace sink and flight recorder detached.
  /// Buffers (engine heap, frames, op arena, per-rank queues) are kept.
  /// Valid after a run() that threw.
  void reset(std::uint64_t seed);

  /// Run one round. programs[r] may be null (idle rank). Returns the
  /// simulated completion time of the whole round. Throws on rank-program
  /// exceptions and on communication deadlock.
  SimTime run(const std::vector<RankProgram>& programs);

  [[nodiscard]] SimTime rank_time(int r) const;
  [[nodiscard]] std::uint64_t total_runs() const { return total_runs_; }
  /// Sum of completion times over all runs — the simulated cost of an
  /// estimation procedure (Section IV of the paper).
  [[nodiscard]] SimTime accumulated_time() const { return accumulated_; }
  void reset_accumulated_time() { accumulated_ = SimTime::zero(); }

  /// Enable per-message tracing; the trace resets at each run().
  void set_tracing(bool on) { tracing_ = on; }
  [[nodiscard]] const std::vector<MessageTrace>& trace() const {
    return trace_;
  }

  /// Stream each run's message trace onto a shared Chrome-trace sink (sim
  /// pid, one track per rank). Non-null implies tracing; nullptr detaches
  /// (per-run tracing stays on until set_tracing(false)).
  void set_trace_sink(obs::TraceSink* sink);

  /// Attach (or detach, with nullptr) a flight recorder: round start/
  /// complete, posted sends, and completed receives record as 16-byte ring
  /// events stamped with simulated nanoseconds, and the engine records its
  /// per-event depth under the same recorder. Borrowed pointer; sessions
  /// are single-threaded, so the ring needs no synchronization — never
  /// share one recorder across parallel sessions.
  void set_flight_recorder(obs::FlightRecorder* recorder);
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const {
    return flight_;
  }

  /// Observability counters accumulated since construction or reset().
  [[nodiscard]] SessionMetrics metrics() const;

 private:
  friend struct SendOp;
  friend struct RecvOp;
  friend struct WaitOp;
  friend struct SleepOp;
  friend struct ComputeOp;
  friend class Comm;

  using StatePtr = detail::OpRef;

  struct Announcement {
    int src = -1;
    int tag = 0;
    Bytes bytes = 0;
    bool rendezvous = false;
    SimTime arrival;    // eager: precomputed arrival
    SimTime post_time;  // rendezvous: when the send posted
    StatePtr send_state;  // rendezvous: pending sender completion
  };
  struct PendingRecv {
    int src = -1;
    int tag = 0;
    SimTime post_time;
    StatePtr state;
  };

  /// Pool-allocated OpState: one free-list block per op, no malloc in
  /// steady state (the arena recycles blocks as requests complete).
  [[nodiscard]] StatePtr make_op_state();

  StatePtr exec_isend(int src, int dst, int tag, Bytes n);
  StatePtr exec_recv(int dst, int src, int tag);
  void exec_wait(WaitOp& op, std::coroutine_handle<> h);
  void exec_sleep(SleepOp& op, std::coroutine_handle<> h);
  void exec_compute(ComputeOp& op, std::coroutine_handle<> h);

  void deliver(int dst, Announcement msg);
  [[nodiscard]] static bool matches(const Announcement& m,
                                    const PendingRecv& r);
  void complete(int dst, Announcement msg, PendingRecv recv);
  void finish(const StatePtr& state, SimTime completion, Bytes bytes);
  void resume_at(int rank, SimTime t, std::coroutine_handle<> h);
  void clear_round_state();
  void mark_dirty(int dst);

  std::shared_ptr<const sim::ClusterConfig> cfg_;
  std::uint64_t seed_ = 0;
  // Declared before every container that can hold OpRefs (queues, tasks,
  // engine) so it is destroyed after all of them release their blocks.
  detail::OpArena op_arena_;
  sim::Engine engine_;
  sim::Fabric fabric_;
  std::vector<Comm> comms_;
  std::vector<SimTime> rank_time_;
  std::vector<std::deque<Announcement>> inbox_;       // per destination
  std::vector<std::deque<PendingRecv>> pending_;      // per destination
  /// Destinations whose inbox_/pending_ were pushed to this round — the
  /// only queues clear_round_state() must visit (rounds usually touch a
  /// few ranks of a large session, and the clear runs per repetition).
  std::vector<int> dirty_dsts_;
  std::vector<char> queue_dirty_;  ///< per-dst membership flag for the above

  int active_ranks_ = 0;  ///< ranks with a program this run

  /// Per-round rank tasks, kept as a member so the vector's capacity (and
  /// the frame pool's blocks) recycle across runs. Cleared — references
  /// dropped via clear_round_state() first — before frames are destroyed.
  std::vector<Task> round_tasks_;

  std::uint64_t total_runs_ = 0;
  SimTime accumulated_;
  bool tracing_ = false;
  std::vector<MessageTrace> trace_;
  obs::TraceSink* trace_sink_ = nullptr;
  obs::FlightRecorder* flight_ = nullptr;  ///< borrowed; null = off
  SessionMetrics base_;  ///< engine/isend counters harvested per run
  /// engine_.actions_spilled() (a lifetime count) at the last reset().
  std::uint64_t spilled_at_reset_ = 0;
};

}  // namespace lmo::vmpi
