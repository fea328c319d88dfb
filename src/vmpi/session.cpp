#include "vmpi/session.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "vmpi/trace_json.hpp"

namespace lmo::vmpi {

std::vector<RankProgram> idle_programs(int n) {
  LMO_CHECK(n >= 0);
  return std::vector<RankProgram>(std::size_t(n));
}

void SessionMetrics::merge(const SessionMetrics& o) {
  runs += o.runs;
  events += o.events;
  queue_high_water = std::max(queue_high_water, o.queue_high_water);
  msgs_eager += o.msgs_eager;
  msgs_rendezvous += o.msgs_rendezvous;
  transfers += o.transfers;
  bytes_on_wire += o.bytes_on_wire;
  escalations += o.escalations;
  frag_leaps += o.frag_leaps;
  host_ns += o.host_ns;
  sim_ns += o.sim_ns;
  actions_spilled += o.actions_spilled;
  op_pool_blocks = std::max(op_pool_blocks, o.op_pool_blocks);
}

void publish_metrics(const SessionMetrics& m, obs::Registry& reg) {
  reg.counter("sim.runs").inc(m.runs);
  reg.counter("sim.events").inc(m.events);
  reg.counter("sim.msgs_eager").inc(m.msgs_eager);
  reg.counter("sim.msgs_rendezvous").inc(m.msgs_rendezvous);
  reg.counter("sim.transfers").inc(m.transfers);
  reg.counter("sim.bytes_on_wire").inc(m.bytes_on_wire);
  reg.counter("sim.escalations").inc(m.escalations);
  reg.counter("sim.frag_leaps").inc(m.frag_leaps);
  reg.counter("sim.host_ns").inc(m.host_ns);
  reg.counter("sim.time_ns").inc(m.sim_ns);
  reg.counter("sim.actions_spilled").inc(m.actions_spilled);
  reg.gauge("sim.queue_high_water").update_max(double(m.queue_high_water));
  reg.gauge("sim.op_pool_blocks").update_max(double(m.op_pool_blocks));
}

// -------------------------------------------------------------- OpArena ----

detail::OpArena::~OpArena() {
  if (live_ != 0) {
    // A Request outlived its session. Freed-memory scribbles from the
    // stray ref would be a heisenbug; die loudly and deterministically
    // instead.
    std::fprintf(stderr,
                 "lmo::vmpi::OpArena destroyed with %llu live operation "
                 "state(s) — a Request outlived its SimSession\n",
                 static_cast<unsigned long long>(live_));
    std::abort();
  }
}

detail::OpState* detail::OpArena::allocate() {
  OpState* s;
  if (!free_.empty()) {
    s = free_.back();
    free_.pop_back();
  } else {
    if (chunks_.empty() || chunk_used_ == kBlocksPerChunk) {
      chunks_.push_back(
          std::make_unique<unsigned char[]>(sizeof(OpState) * kBlocksPerChunk));
      chunk_used_ = 0;
      // Pre-size the free list so recycle() never reallocates (it is
      // noexcept and runs from OpRef release paths).
      free_.reserve(chunks_.size() * kBlocksPerChunk);
    }
    s = reinterpret_cast<OpState*>(chunks_.back().get() +
                                   sizeof(OpState) * chunk_used_++);
  }
  if (++live_ > peak_live_) peak_live_ = live_;
  OpState* p = ::new (static_cast<void*>(s)) OpState();
  p->arena = this;
  return p;
}

void detail::OpArena::recycle(OpState* s) noexcept {
  s->~OpState();
  free_.push_back(s);
  --live_;
}

// ---------------------------------------------------------------- Comm ----

int Comm::size() const {
  LMO_CHECK(sess_ != nullptr);
  return sess_->size();
}

SimTime Comm::now() const {
  LMO_CHECK(sess_ != nullptr);
  return sess_->rank_time(rank_);
}

SendOp Comm::send(int dst, Bytes n, int tag) {
  LMO_CHECK(sess_ != nullptr);
  LMO_CHECK_MSG(dst != rank_, "send to self is not supported");
  LMO_CHECK(dst >= 0 && dst < size());
  LMO_CHECK(n >= 0);
  LMO_CHECK(tag >= 0);
  return SendOp{sess_, rank_, dst, tag, n};
}

RecvOp Comm::recv(int src, int tag) {
  LMO_CHECK(sess_ != nullptr);
  LMO_CHECK_MSG(src != rank_, "recv from self is not supported");
  LMO_CHECK(src >= 0 && src < size());
  LMO_CHECK(tag >= 0 || tag == kAnyTag);
  return RecvOp{sess_, rank_, src, tag, nullptr};
}

Request Comm::isend(int dst, Bytes n, int tag) {
  LMO_CHECK(sess_ != nullptr);
  LMO_CHECK_MSG(dst != rank_, "send to self is not supported");
  LMO_CHECK(dst >= 0 && dst < size());
  LMO_CHECK(n >= 0);
  LMO_CHECK(tag >= 0);
  return Request(sess_->exec_isend(rank_, dst, tag, n));
}

WaitOp Comm::wait(const Request& r) {
  LMO_CHECK(sess_ != nullptr);
  LMO_CHECK_MSG(r.valid(), "waiting on an invalid request");
  return WaitOp{sess_, rank_, r.state_};
}

SleepOp Comm::sleep(SimTime dt) {
  LMO_CHECK(sess_ != nullptr);
  LMO_CHECK(dt >= SimTime::zero());
  return SleepOp{sess_, rank_, dt};
}

ComputeOp Comm::compute(Bytes n) {
  LMO_CHECK(sess_ != nullptr);
  LMO_CHECK(n >= 0);
  return ComputeOp{sess_, rank_, n};
}

void SendOp::await_suspend(std::coroutine_handle<> h) {
  // A blocking send is isend + wait.
  auto state = sess->exec_isend(src, dst, tag, bytes);
  WaitOp wait{sess, src, std::move(state)};
  sess->exec_wait(wait, h);
}
void RecvOp::await_suspend(std::coroutine_handle<> h) {
  state = sess->exec_recv(dst, src, tag);
  WaitOp wait{sess, dst, state};
  sess->exec_wait(wait, h);
}
void WaitOp::await_suspend(std::coroutine_handle<> h) {
  sess->exec_wait(*this, h);
}
void SleepOp::await_suspend(std::coroutine_handle<> h) {
  sess->exec_sleep(*this, h);
}
void ComputeOp::await_suspend(std::coroutine_handle<> h) {
  sess->exec_compute(*this, h);
}

// ---------------------------------------------------------- SimSession ----

namespace {
const sim::ClusterConfig& checked(
    const std::shared_ptr<const sim::ClusterConfig>& p) {
  LMO_CHECK_MSG(p != nullptr, "SimSession requires a cluster config");
  return *p;
}

std::uint32_t clamp_u32(Bytes n) {
  return n > Bytes(0xffffffff) ? 0xffffffffu : std::uint32_t(n);
}
}  // namespace

SimSession::SimSession(std::shared_ptr<const sim::ClusterConfig> cfg)
    : SimSession(cfg, checked(cfg).seed) {}

SimSession::SimSession(std::shared_ptr<const sim::ClusterConfig> cfg,
                       std::uint64_t seed)
    : cfg_(std::move(cfg)), seed_(seed), fabric_(checked(cfg_), seed) {
  const int n = cfg_->size();
  comms_.reserve(std::size_t(n));
  for (int r = 0; r < n; ++r) comms_.push_back(Comm(this, r));
  rank_time_.assign(std::size_t(n), SimTime::zero());
  inbox_.resize(std::size_t(n));
  pending_.resize(std::size_t(n));
  queue_dirty_.assign(std::size_t(n), 0);
  dirty_dsts_.reserve(std::size_t(n));
  static obs::Counter built =
      obs::Registry::global().counter("sim.sessions_built");
  built.inc();
}

void SimSession::reset(std::uint64_t seed) {
  // Queues first (they hold op refs and coroutine handles), then the frames
  // a throwing run() may have left behind. run() always drains the engine.
  clear_round_state();
  round_tasks_.clear();
  engine_.reset();
  seed_ = seed;
  fabric_.reseed(seed);
  total_runs_ = 0;
  accumulated_ = SimTime::zero();
  base_ = {};
  spilled_at_reset_ = engine_.actions_spilled();
  op_arena_.reset_peak();
  trace_.clear();
  tracing_ = false;
  trace_sink_ = nullptr;
  set_flight_recorder(nullptr);
}

SimTime SimSession::rank_time(int r) const {
  LMO_CHECK(r >= 0 && r < size());
  return rank_time_[std::size_t(r)];
}

void SimSession::resume_at(int rank, SimTime t, std::coroutine_handle<> h) {
  engine_.schedule_at(t, [this, rank, t, h] {
    rank_time_[std::size_t(rank)] = t;
    h.resume();
  });
}

void SimSession::clear_round_state() {
  for (const int d : dirty_dsts_) {
    inbox_[std::size_t(d)].clear();
    pending_[std::size_t(d)].clear();
    queue_dirty_[std::size_t(d)] = 0;
  }
  dirty_dsts_.clear();
  std::fill(rank_time_.begin(), rank_time_.end(), SimTime::zero());
}

void SimSession::mark_dirty(int dst) {
  if (!queue_dirty_[std::size_t(dst)]) {
    queue_dirty_[std::size_t(dst)] = 1;
    dirty_dsts_.push_back(dst);
  }
}

SimTime SimSession::run(const std::vector<RankProgram>& programs) {
  LMO_CHECK_MSG(int(programs.size()) == size(),
                "one program slot per rank required");
  ++total_runs_;
  engine_.reset();
  fabric_.reset_timelines();
  clear_round_state();
  trace_.clear();

  const auto nranks = std::size_t(size());
  auto& tasks = round_tasks_;  // member scratch: vector capacity survives runs
  tasks.clear();
  tasks.resize(nranks);
  active_ranks_ = 0;
  for (int r = 0; r < size(); ++r)
    if (programs[std::size_t(r)]) {
      tasks[std::size_t(r)] = programs[std::size_t(r)](comms_[std::size_t(r)]);
      ++active_ranks_;
    }
  for (int r = 0; r < size(); ++r)
    if (tasks[std::size_t(r)].valid())
      engine_.schedule_at(SimTime::zero(), [this, r] {
        round_tasks_[std::size_t(r)].start();
      });

  if (flight_)
    flight_->record(0, obs::FlightEvent::kRoundStart,
                    std::uint16_t(total_runs_), std::uint32_t(active_ranks_));

  const auto host_begin = std::chrono::steady_clock::now();
  try {
    engine_.run();
  } catch (...) {
    // An event action threw outside any rank coroutine. Drop what's left
    // so the session stays usable (and reset()-able) after the throw.
    engine_.discard_pending();
    clear_round_state();
    tasks.clear();
    throw;
  }
  base_.host_ns += std::uint64_t(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - host_begin)
          .count());
  base_.events += engine_.executed();
  base_.queue_high_water =
      std::max(base_.queue_high_water, std::uint64_t(engine_.max_pending()));
  base_.actions_spilled = engine_.actions_spilled() - spilled_at_reset_;
  base_.op_pool_blocks = op_arena_.peak_live();

  // Exceptions first (a failed rank usually strands its peers).
  for (const auto& t : tasks) t.rethrow_if_failed();
  std::string stuck;
  for (int r = 0; r < size(); ++r)
    if (tasks[std::size_t(r)].valid() && !tasks[std::size_t(r)].done())
      stuck += (stuck.empty() ? "" : ", ") + std::to_string(r);
  if (!stuck.empty()) {
    // Drop stale suspended-coroutine references before the Tasks destroy
    // their frames.
    clear_round_state();
    tasks.clear();
    throw Error("communication deadlock: rank(s) " + stuck +
                " never completed");
  }

  SimTime end = SimTime::zero();
  for (int r = 0; r < size(); ++r)
    if (tasks[std::size_t(r)].valid())
      end = lmo::max(end, rank_time_[std::size_t(r)]);
  tasks.clear();  // frames return to the pool; the vector keeps capacity
  accumulated_ += end;
  if (flight_)
    flight_->record(std::uint64_t(end.ns()), obs::FlightEvent::kRoundComplete,
                    std::uint16_t(total_runs_),
                    std::uint32_t(engine_.executed()));
  if (trace_sink_ && !trace_.empty())
    append_chrome_trace(*trace_sink_, trace_);
  return end;
}

void SimSession::set_trace_sink(obs::TraceSink* sink) {
  trace_sink_ = sink;
  if (sink) tracing_ = true;
}

void SimSession::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  engine_.set_flight_recorder(recorder);
}

SessionMetrics SimSession::metrics() const {
  SessionMetrics m = base_;
  m.runs = total_runs_;
  const sim::Fabric::Counters& c = fabric_.counters();
  m.transfers = c.transfers;
  m.bytes_on_wire = c.bytes;
  m.escalations = c.escalations;
  m.frag_leaps = c.leaps;
  m.sim_ns = std::uint64_t(accumulated_.ns());
  return m;
}

bool SimSession::matches(const Announcement& m, const PendingRecv& r) {
  return m.src == r.src && (r.tag == kAnyTag || m.tag == r.tag);
}

void SimSession::finish(const StatePtr& state, SimTime completion,
                        Bytes bytes) {
  LMO_CHECK(!state->has_completion);
  state->has_completion = true;
  state->completion = completion;
  state->bytes = bytes;
  if (state->waiter) {
    const auto h = state->waiter;
    const int rank = state->waiter_rank;
    const SimTime at = lmo::max(state->waiter_post, completion);
    state->waiter = {};
    resume_at(rank, at, h);
  }
}

SimSession::StatePtr SimSession::make_op_state() {
  return StatePtr(op_arena_.allocate());
}

SimSession::StatePtr SimSession::exec_isend(int src, int dst, int tag,
                                            Bytes n) {
  const SimTime now = rank_time_[std::size_t(src)];
  if (flight_)
    flight_->record(std::uint64_t(now.ns()), obs::FlightEvent::kSendPosted,
                    std::uint16_t(src), clamp_u32(n));
  auto state = make_op_state();
  if (!fabric_.use_rendezvous(n)) {
    ++base_.msgs_eager;
    // Eager path: the transfer is fully scheduled at send time.
    const bool pipelined = fabric_.egress_busy(src, now);
    const SimTime cpu = fabric_.send_cpu_cost(src, n, pipelined);
    const SimTime cpu_done = now + cpu;
    // Inflow registration comes after the transfer so the escalation quirk
    // sees only *other* traffic converging on the destination.
    const sim::WireTiming w = fabric_.transfer(src, dst, n, cpu_done);
    fabric_.begin_inflow(dst);
    // Blocking-eager return: the call returns once the remaining backlog
    // fits the socket send buffer.
    const SimTime resume = lmo::max(
        cpu_done, w.egress_end - fabric_.send_buffer_time(src, dst));
    finish(state, resume, n);

    Announcement msg;
    msg.src = src;
    msg.tag = tag;
    msg.bytes = n;
    msg.rendezvous = false;
    msg.arrival = w.arrival;
    msg.post_time = now;
    deliver(dst, std::move(msg));
    return state;
  }
  // Rendezvous path: completion is determined when the receive matches.
  ++base_.msgs_rendezvous;
  Announcement msg;
  msg.src = src;
  msg.tag = tag;
  msg.bytes = n;
  msg.rendezvous = true;
  msg.post_time = now;
  msg.send_state = state;
  deliver(dst, std::move(msg));
  return state;
}

void SimSession::deliver(int dst, Announcement msg) {
  auto& pending = pending_[std::size_t(dst)];
  const auto it = std::find_if(
      pending.begin(), pending.end(),
      [&](const PendingRecv& r) { return matches(msg, r); });
  if (it != pending.end()) {
    PendingRecv r = std::move(*it);
    pending.erase(it);
    complete(dst, std::move(msg), std::move(r));
    return;
  }
  mark_dirty(dst);
  inbox_[std::size_t(dst)].push_back(std::move(msg));
}

SimSession::StatePtr SimSession::exec_recv(int dst, int src, int tag) {
  const SimTime now = rank_time_[std::size_t(dst)];
  PendingRecv r;
  r.src = src;
  r.tag = tag;
  r.post_time = now;
  r.state = make_op_state();
  auto state = r.state;
  auto& q = inbox_[std::size_t(dst)];
  const auto it = std::find_if(q.begin(), q.end(), [&](const Announcement& m) {
    return matches(m, r);
  });
  if (it != q.end()) {
    Announcement msg = std::move(*it);
    q.erase(it);
    complete(dst, std::move(msg), std::move(r));
  } else {
    mark_dirty(dst);
    pending_[std::size_t(dst)].push_back(std::move(r));
  }
  return state;
}

void SimSession::complete(int dst, Announcement msg, PendingRecv recv) {
  SimTime arrival;
  if (!msg.rendezvous) {
    arrival = msg.arrival;
  } else {
    // Rendezvous: the clear-to-send reaches the sender one latency after
    // both sides are ready; only then does the sender process and transmit.
    const SimTime start = lmo::max(msg.post_time, recv.post_time) +
                          fabric_.wire_latency(msg.src, dst);
    const bool pipelined = fabric_.egress_busy(msg.src, start);
    const SimTime cpu = fabric_.send_cpu_cost(msg.src, msg.bytes, pipelined);
    const SimTime cpu_done = start + cpu;
    const sim::WireTiming w =
        fabric_.transfer(msg.src, dst, msg.bytes, cpu_done);
    fabric_.begin_inflow(dst);
    finish(msg.send_state, cpu_done, msg.bytes);
    arrival = w.arrival;
  }
  // The receiving rank itself processes the message.
  const SimTime done = lmo::max(recv.post_time, arrival) +
                       fabric_.recv_cpu_cost(dst, msg.bytes);
  engine_.schedule_at(done, [this, dst] { fabric_.end_inflow(dst); });
  if (flight_)
    flight_->record(std::uint64_t(done.ns()), obs::FlightEvent::kOpComplete,
                    std::uint16_t(dst), clamp_u32(msg.bytes));
  if (tracing_) {
    MessageTrace t;
    t.src = msg.src;
    t.dst = dst;
    t.tag = msg.tag;
    t.bytes = msg.bytes;
    t.rendezvous = msg.rendezvous;
    t.send_post = msg.post_time;
    t.arrival = arrival;
    t.recv_complete = done;
    trace_.push_back(t);
  }
  finish(recv.state, done, msg.bytes);
}

void SimSession::exec_wait(WaitOp& op, std::coroutine_handle<> h) {
  auto& state = *op.state;
  const SimTime now = rank_time_[std::size_t(op.rank)];
  if (state.has_completion) {
    resume_at(op.rank, lmo::max(now, state.completion), h);
    return;
  }
  LMO_CHECK_MSG(!state.waiter, "two waiters on one request");
  state.waiter = h;
  state.waiter_rank = op.rank;
  state.waiter_post = now;
}

void SimSession::exec_sleep(SleepOp& op, std::coroutine_handle<> h) {
  const SimTime now = rank_time_[std::size_t(op.rank)];
  resume_at(op.rank, now + op.duration, h);
}

void SimSession::exec_compute(ComputeOp& op, std::coroutine_handle<> h) {
  const SimTime now = rank_time_[std::size_t(op.rank)];
  resume_at(op.rank, now + fabric_.recv_cpu_cost(op.rank, op.bytes), h);
}

}  // namespace lmo::vmpi
