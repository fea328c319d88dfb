// Unit tests for the vmpi layer: coroutine tasks, point-to-point semantics,
// timing exactness on a quiet cluster, rendezvous, deadlock detection.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "simnet/cluster.hpp"
#include "util/error.hpp"
#include "vmpi/world.hpp"

#include "fixtures.hpp"

namespace lmo::vmpi {
namespace {

using namespace lmo::literals;

sim::ClusterConfig quiet_cluster(int n = 4) {
  sim::NodeParams node;
  node.fixed_delay_s = 50e-6;   // C
  node.per_byte_s = 100e-9;     // t
  node.link_rate_bps = 12.5e6;  // 80 ns/B
  node.latency_s = 20e-6;
  sim::ClusterConfig cfg = test_support::make_homogeneous_cluster(n, node);
  cfg.noise_rel = 0.0;
  cfg.quirks.enabled = false;
  cfg.switch_latency_s = 10e-6;
  return cfg;
}

// Escalation whenever eligible: a kBand-byte eager message (the top of the
// band) escalates exactly when another message converges on its
// destination. The fabric's remaining noise is off.
constexpr Bytes kBand = 64 * 1024;
sim::ClusterConfig incast_cluster() {
  sim::ClusterConfig cfg = quiet_cluster();
  cfg.quirks.enabled = true;
  cfg.quirks.escalation_min = 4 * 1024;
  cfg.quirks.rendezvous_threshold = kBand;
  cfg.quirks.escalation_peak_prob = 1.0;
  cfg.quirks.frag_leap_s = 0.0;
  return cfg;
}

// Exact expected one-way time on the quiet cluster: C + Mt + L + M/beta + C + Mt.
double pt2pt_seconds(const sim::ClusterConfig& cfg, int i, int j, Bytes m) {
  const Bytes frame = m < 64 ? 64 : m;
  return cfg.nodes[std::size_t(i)].fixed_delay_s +
         double(m) * cfg.nodes[std::size_t(i)].per_byte_s + cfg.latency(i, j) +
         double(frame) / cfg.rate(i, j) +
         cfg.nodes[std::size_t(j)].fixed_delay_s +
         double(m) * cfg.nodes[std::size_t(j)].per_byte_s;
}

TEST(VmpiBasic, OneWayMessageExactTiming) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  const Bytes m = 10000;
  SimTime recv_done;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task { co_await c.send(1, m); };
  programs[1] = [&](Comm& c) -> Task {
    const Bytes got = co_await c.recv(0);
    EXPECT_EQ(got, m);
    recv_done = c.now();
  };
  w.run(programs);
  EXPECT_NEAR(recv_done.seconds(), pt2pt_seconds(cfg, 0, 1, m), 1e-12);
}

TEST(VmpiBasic, SenderReturnsBeforeArrival) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  SimTime send_done, recv_done;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    co_await c.send(1, 10000);
    send_done = c.now();
  };
  programs[1] = [&](Comm& c) -> Task {
    co_await c.recv(0);
    recv_done = c.now();
  };
  w.run(programs);
  EXPECT_LT(send_done, recv_done);  // eager: buffered return
}

TEST(VmpiBasic, RecvBlocksUntilMessage) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  SimTime recv_done;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    co_await c.sleep(10_ms);
    co_await c.send(1, 0);
  };
  programs[1] = [&](Comm& c) -> Task {
    co_await c.recv(0);
    recv_done = c.now();
  };
  w.run(programs);
  EXPECT_GT(recv_done, 10_ms);
}

TEST(VmpiBasic, LateRecvStartsProcessingAtPost) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  SimTime recv_done;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task { co_await c.send(1, 0); };
  programs[1] = [&](Comm& c) -> Task {
    co_await c.sleep(50_ms);  // message waits in the queue
    co_await c.recv(0);
    recv_done = c.now();
  };
  w.run(programs);
  EXPECT_NEAR(recv_done.seconds(), 0.05 + 50e-6, 1e-9);
}

TEST(VmpiBasic, RoundtripTiming) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  const Bytes m = 5000;
  SimTime elapsed;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    const SimTime t0 = c.now();
    co_await c.send(1, m);
    co_await c.recv(1);
    elapsed = c.now() - t0;
  };
  programs[1] = [&](Comm& c) -> Task {
    co_await c.recv(0);
    co_await c.send(0, m);
  };
  w.run(programs);
  EXPECT_NEAR(elapsed.seconds(), 2 * pt2pt_seconds(cfg, 0, 1, m), 1e-12);
}

TEST(VmpiBasic, TagsSelectMessages) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  Bytes first = 0, second = 0;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    co_await c.send(1, 100, /*tag=*/7);
    co_await c.send(1, 200, /*tag=*/8);
  };
  programs[1] = [&](Comm& c) -> Task {
    first = co_await c.recv(0, /*tag=*/8);  // out of order by tag
    second = co_await c.recv(0, /*tag=*/7);
  };
  w.run(programs);
  EXPECT_EQ(first, 200);
  EXPECT_EQ(second, 100);
}

TEST(VmpiBasic, NonOvertakingSameTag) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  std::vector<Bytes> got;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    for (Bytes m : {100, 200, 300}) co_await c.send(1, m);
  };
  programs[1] = [&](Comm& c) -> Task {
    for (int i = 0; i < 3; ++i) got.push_back(co_await c.recv(0));
  };
  w.run(programs);
  EXPECT_EQ(got, (std::vector<Bytes>{100, 200, 300}));
}

TEST(VmpiBasic, AnyTagMatchesFirst) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  Bytes got = 0;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task { co_await c.send(1, 42, /*tag=*/3); };
  programs[1] = [&](Comm& c) -> Task { got = co_await c.recv(0, kAnyTag); };
  w.run(programs);
  EXPECT_EQ(got, 42);
}

TEST(VmpiRendezvous, LargeSendWaitsForRecv) {
  auto cfg = quiet_cluster();
  cfg.quirks.enabled = true;
  cfg.quirks.rendezvous_threshold = 64 * 1024;
  // Disable the noise quirks so times stay deterministic.
  cfg.quirks.escalation_peak_prob = 0.0;
  cfg.quirks.frag_leap_s = 0.0;
  World w(cfg);
  const Bytes m = 256 * 1024;
  SimTime send_done;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    co_await c.send(1, m);
    send_done = c.now();
  };
  programs[1] = [&](Comm& c) -> Task {
    co_await c.sleep(100_ms);  // recv posted late
    co_await c.recv(0);
  };
  w.run(programs);
  // The sender cannot finish before the recv was even posted.
  EXPECT_GT(send_done, 100_ms);
}

TEST(VmpiRendezvous, EagerBelowThresholdDoesNotWait) {
  auto cfg = quiet_cluster();
  cfg.quirks.enabled = true;
  cfg.quirks.rendezvous_threshold = 64 * 1024;
  World w(cfg);
  SimTime send_done;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    co_await c.send(1, 1024);
    send_done = c.now();
  };
  programs[1] = [&](Comm& c) -> Task {
    co_await c.sleep(100_ms);
    co_await c.recv(0);
  };
  w.run(programs);
  EXPECT_LT(send_done, 1_ms);
}

TEST(VmpiSubtask, CollectiveStyleNesting) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  SimTime done;
  // A sub-coroutine performing a ping, awaited from the rank program.
  auto ping = [](Comm& c, int peer) -> Task {
    co_await c.send(peer, 1000);
    co_await c.recv(peer);
  };
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    co_await ping(c, 1);
    co_await ping(c, 1);
    done = c.now();
  };
  programs[1] = [&](Comm& c) -> Task {
    for (int k = 0; k < 2; ++k) {
      co_await c.recv(0);
      co_await c.send(0, 1000);
    }
  };
  w.run(programs);
  EXPECT_NEAR(done.seconds(), 4 * pt2pt_seconds(cfg, 0, 1, 1000), 1e-12);
}

// The escalation quirk asks whether another message converges on dst: an
// eager message converges from its send until its receive completes, at
// the key (done, seq) an end event taken at the match would have had.
TEST(VmpiInflow, UnmatchedEagerMessageConverges) {
  World w(incast_cluster());
  auto programs = idle_programs(4);
  programs[0] = [](Comm& c) -> Task {
    co_await c.sleep(1_ms);  // both eager messages arrive unmatched
    co_await c.recv(1);
    co_await c.recv(2);
    co_await c.recv(3);
  };
  programs[1] = [](Comm& c) -> Task { co_await c.send(0, kBand); };
  programs[2] = [](Comm& c) -> Task {
    co_await c.sleep(1_us);
    co_await c.send(0, kBand);  // rank 1's message is unmatched: escalates
  };
  programs[3] = [](Comm& c) -> Task {
    co_await c.sleep(SimTime::from_seconds(2.0));
    co_await c.send(0, kBand);  // every receive completed: no inflow left
  };
  w.run(programs);
  EXPECT_EQ(w.metrics().escalations, 1u);
}

// Rank 0's receive of `sender`'s message completes at `done`, and `probe`
// sends at exactly `done`. The ranks start in rank order, so the probe's
// sleep takes its seq before the sender's message takes its release seq
// when probe < sender, and after it otherwise.
std::uint64_t escalations_of_probe_at_release(int sender, int probe) {
  const sim::ClusterConfig cfg = incast_cluster();
  SimTime done;
  {
    World calibrate(cfg);
    auto programs = idle_programs(4);
    programs[0] = [&done, sender](Comm& c) -> Task {
      co_await c.recv(sender);
      done = c.now();
    };
    programs[std::size_t(sender)] = [](Comm& c) -> Task {
      co_await c.send(0, kBand);
    };
    calibrate.run(programs);
    EXPECT_EQ(calibrate.metrics().escalations, 0u);
  }
  World w(cfg);
  auto programs = idle_programs(4);
  programs[0] = [sender, probe](Comm& c) -> Task {
    co_await c.recv(sender);
    co_await c.recv(probe);
  };
  programs[std::size_t(sender)] = [](Comm& c) -> Task {
    co_await c.send(0, kBand);
  };
  programs[std::size_t(probe)] = [done](Comm& c) -> Task {
    co_await c.sleep(done);
    EXPECT_EQ(c.now(), done);
    co_await c.send(0, kBand);
  };
  w.run(programs);
  return w.metrics().escalations;
}

TEST(VmpiInflow, SameTimeEventBelowTheReleaseSeqSeesTheInflow) {
  EXPECT_EQ(escalations_of_probe_at_release(/*sender=*/2, /*probe=*/1), 1u);
}

TEST(VmpiInflow, SameTimeEventAboveTheReleaseSeqDoesNot) {
  EXPECT_EQ(escalations_of_probe_at_release(/*sender=*/1, /*probe=*/2), 0u);
}

TEST(VmpiInflow, SecondSendInOneEventSeesTheFirst) {
  World w(incast_cluster());
  auto programs = idle_programs(4);
  programs[0] = [](Comm& c) -> Task {
    co_await c.recv(1);  // posted first: the first message matches at once
    co_await c.recv(1);
  };
  programs[1] = [](Comm& c) -> Task {
    const Request a = c.isend(0, kBand);
    const Request b = c.isend(0, kBand);  // the first still converges
    co_await c.wait(a);
    co_await c.wait(b);
  };
  w.run(programs);
  EXPECT_EQ(w.metrics().escalations, 1u);
}

TEST(VmpiErrors, DeadlockDetected) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  auto programs = idle_programs(4);
  programs[0] = [](Comm& c) -> Task { co_await c.recv(1); };  // never sent
  EXPECT_THROW(w.run(programs), Error);
}

TEST(VmpiErrors, RankExceptionPropagates) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  auto programs = idle_programs(4);
  programs[0] = [](Comm&) -> Task {
    throw Error("boom");
    co_return;
  };
  try {
    w.run(programs);
    FAIL() << "expected exception";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

TEST(VmpiErrors, WorldUsableAfterDeadlock) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  auto bad = idle_programs(4);
  bad[0] = [](Comm& c) -> Task { co_await c.recv(1); };
  EXPECT_THROW(w.run(bad), Error);
  auto good = idle_programs(4);
  bool ran = false;
  good[0] = [&](Comm& c) -> Task {
    co_await c.sleep(1_us);
    ran = true;
  };
  w.run(good);
  EXPECT_TRUE(ran);
}

TEST(VmpiErrors, RejectsSelfMessaging) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  auto programs = idle_programs(4);
  programs[0] = [](Comm& c) -> Task {
    EXPECT_THROW((void)c.send(0, 10), Error);
    EXPECT_THROW((void)c.recv(0), Error);
    co_return;
  };
  w.run(programs);
}

TEST(VmpiDeterminism, NoiselessRunsIdentical) {
  const auto cfg = quiet_cluster();
  auto run_once = [&cfg] {
    World w(cfg);
    SimTime done;
    auto programs = idle_programs(4);
    programs[0] = [&](Comm& c) -> Task {
      for (int i = 0; i < 5; ++i) co_await c.send(1, 7777);
      co_await c.recv(1);
      done = c.now();
    };
    programs[1] = [&](Comm& c) -> Task {
      for (int i = 0; i < 5; ++i) co_await c.recv(0);
      co_await c.send(0, 1);
    };
    w.run(programs);
    return done;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(VmpiDeterminism, SameSeedSameNoise) {
  auto cfg = quiet_cluster();
  cfg.noise_rel = 0.05;
  auto run_once = [&cfg] {
    World w(cfg);
    SimTime done;
    auto programs = idle_programs(4);
    programs[0] = [&](Comm& c) -> Task {
      co_await c.send(1, 10000);
      co_await c.recv(1);
      done = c.now();
    };
    programs[1] = [&](Comm& c) -> Task {
      co_await c.recv(0);
      co_await c.send(0, 10000);
    };
    w.run(programs);
    return done;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(VmpiDeterminism, RepetitionsWithinWorldDiffer) {
  auto cfg = quiet_cluster();
  cfg.noise_rel = 0.05;
  World w(cfg);
  auto one = [&]() {
    SimTime done;
    auto programs = idle_programs(4);
    programs[0] = [&](Comm& c) -> Task {
      co_await c.send(1, 10000);
      co_await c.recv(1);
      done = c.now();
    };
    programs[1] = [&](Comm& c) -> Task {
      co_await c.recv(0);
      co_await c.send(0, 10000);
    };
    w.run(programs);
    return done;
  };
  EXPECT_NE(one(), one());  // fresh noise draws per repetition
}

TEST(VmpiAccounting, AccumulatedTimeSums) {
  const auto cfg = quiet_cluster();
  World w(cfg);
  auto programs = idle_programs(4);
  programs[0] = [](Comm& c) -> Task { co_await c.sleep(10_ms); };
  w.run(programs);
  w.run(programs);
  EXPECT_EQ(w.accumulated_time(), 20_ms);
  w.reset_accumulated_time();
  EXPECT_EQ(w.accumulated_time(), SimTime::zero());
  EXPECT_EQ(w.total_runs(), 2u);
}

TEST(VmpiPipelining, ScatterPatternRootCpuBound) {
  // On the quiet cluster t = 100 ns/B > 80 ns/B wire, so back-to-back sends
  // from one root are CPU-bound and the wire drains in the gaps: the root's
  // total send time is (n-1)(C + Mt) exactly.
  const auto cfg = quiet_cluster(4);
  World w(cfg);
  const Bytes m = 20000;
  SimTime root_done;
  auto programs = idle_programs(4);
  programs[0] = [&](Comm& c) -> Task {
    for (int dst = 1; dst < 4; ++dst) co_await c.send(dst, m);
    root_done = c.now();
  };
  for (int r = 1; r < 4; ++r)
    programs[std::size_t(r)] = [](Comm& c) -> Task { co_await c.recv(0); };
  w.run(programs);
  const double expect = 3 * (50e-6 + double(m) * 100e-9);
  EXPECT_NEAR(root_done.seconds(), expect, 1e-12);
}

// --- SimSession::reset ------------------------------------------------------

// Everything a session can accumulate before a reset: eager and rendezvous
// sends, a many-to-one gather inside the escalation band, a burst of
// nonblocking sends (the op-pool high-water mark), a compute round, and a
// round that deadlocks.
void run_reset_history(SimSession& s) {
  const int n = s.size();
  auto eager_rdv = idle_programs(n);
  eager_rdv[0] = [](Comm& c) -> Task {
    co_await c.send(1, 1000);
    co_await c.send(1, 64 * 1024);  // largest eager size, pipelined twice:
    co_await c.send(1, 64 * 1024);  // the fragmentation leap
    co_await c.send(1, 200 * 1024);
    co_await c.recv(1);
  };
  eager_rdv[1] = [](Comm& c) -> Task {
    for (int k = 0; k < 4; ++k) co_await c.recv(0);
    co_await c.send(0, 300 * 1024);
  };
  s.run(eager_rdv);

  auto incast = idle_programs(n);
  incast[0] = [n](Comm& c) -> Task {
    for (int r = 1; r < n; ++r) co_await c.recv(r);
  };
  for (int r = 1; r < n; ++r)
    incast[std::size_t(r)] = [](Comm& c) -> Task {
      co_await c.send(0, 32 * 1024);
    };
  for (int rep = 0; rep < 3; ++rep) s.run(incast);

  constexpr int kBurst = 8;
  auto isends = idle_programs(n);
  isends[0] = [n](Comm& c) -> Task {
    for (int r = 1; r < n; ++r)
      for (int k = 0; k < kBurst; ++k) co_await c.recv(r, k);
  };
  for (int r = 1; r < n; ++r)
    isends[std::size_t(r)] = [](Comm& c) -> Task {
      std::vector<Request> reqs;
      for (int k = 0; k < kBurst; ++k) reqs.push_back(c.isend(0, 2048, k));
      for (const Request& q : reqs) co_await c.wait(q);
    };
  s.run(isends);

  auto compute = idle_programs(n);
  for (int r = 0; r < n; ++r)
    compute[std::size_t(r)] = [](Comm& c) -> Task {
      co_await c.compute(4096);
    };
  s.run(compute);

  auto stuck = idle_programs(n);
  stuck[0] = [](Comm& c) -> Task { co_await c.recv(1); };  // never sent
  EXPECT_THROW(s.run(stuck), Error);
}

// A probe with fewer live operations than the history and noise on every
// path: a ring of eager sends, a rendezvous round-trip and an
// escalation-band gather.
std::vector<RankProgram> reset_probe(int n) {
  auto p = idle_programs(n);
  for (int r = 0; r < n; ++r)
    p[std::size_t(r)] = [n, r](Comm& c) -> Task {
      const int next = (r + 1) % n, prev = (r + n - 1) % n;
      if (r % 2 == 0) {
        co_await c.send(next, 3000);
        co_await c.recv(prev);
      } else {
        co_await c.recv(prev);
        co_await c.send(next, 3000);
      }
      if (r == 0) {
        co_await c.send(1, 100 * 1024);
        co_await c.recv(1, 7);
        for (int s = 1; s < n; ++s) co_await c.recv(s, 9);
      } else {
        if (r == 1) {
          co_await c.recv(0);
          co_await c.send(0, 512, 7);
        }
        co_await c.send(0, 16 * 1024, 9);
      }
    };
  return p;
}

void expect_same_trace(const std::vector<MessageTrace>& a,
                       const std::vector<MessageTrace>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].src, b[k].src) << k;
    EXPECT_EQ(a[k].dst, b[k].dst) << k;
    EXPECT_EQ(a[k].tag, b[k].tag) << k;
    EXPECT_EQ(a[k].bytes, b[k].bytes) << k;
    EXPECT_EQ(a[k].rendezvous, b[k].rendezvous) << k;
    EXPECT_EQ(a[k].send_post, b[k].send_post) << k;
    EXPECT_EQ(a[k].arrival, b[k].arrival) << k;
    EXPECT_EQ(a[k].recv_complete, b[k].recv_complete) << k;
  }
}

void expect_same_metrics(const SessionMetrics& a, const SessionMetrics& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.queue_high_water, b.queue_high_water);
  EXPECT_EQ(a.msgs_eager, b.msgs_eager);
  EXPECT_EQ(a.msgs_rendezvous, b.msgs_rendezvous);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_EQ(a.bytes_on_wire, b.bytes_on_wire);
  EXPECT_EQ(a.escalations, b.escalations);
  EXPECT_EQ(a.frag_leaps, b.frag_leaps);
  EXPECT_EQ(a.sim_ns, b.sim_ns);
  EXPECT_EQ(a.actions_spilled, b.actions_spilled);
  EXPECT_EQ(a.op_pool_blocks, b.op_pool_blocks);
  // host_ns is wall-clock time and never comparable.
}

// After reset(seed) a used session must be indistinguishable from a fresh
// SimSession(cfg, seed): round times, per-rank clocks, the message trace
// and every metric but host wall time.
void expect_reset_matches_fresh(const sim::ClusterConfig& config) {
  const auto cfg = std::make_shared<const sim::ClusterConfig>(config);
  const std::uint64_t seed = 0x5eed;
  SimSession reused(cfg, 99);
  obs::FlightRecorder recorder;
  reused.set_flight_recorder(&recorder);
  reused.set_tracing(true);
  run_reset_history(reused);
  const SessionMetrics history = reused.metrics();

  reused.reset(seed);
  EXPECT_EQ(reused.seed(), seed);
  EXPECT_EQ(reused.flight_recorder(), nullptr);
  EXPECT_TRUE(reused.trace().empty());
  EXPECT_EQ(reused.total_runs(), 0u);
  EXPECT_EQ(reused.accumulated_time(), SimTime::zero());
  for (int r = 0; r < reused.size(); ++r)
    EXPECT_EQ(reused.rank_time(r), SimTime::zero());

  SimSession fresh(cfg, seed);
  for (SimSession* s : {&reused, &fresh}) s->set_tracing(true);
  const auto probe = reset_probe(cfg->size());
  for (int round = 0; round < 2; ++round) {
    const SimTime a = reused.run(probe);
    const SimTime b = fresh.run(probe);
    EXPECT_EQ(a, b) << "round " << round;
    for (int r = 0; r < cfg->size(); ++r)
      EXPECT_EQ(reused.rank_time(r), fresh.rank_time(r)) << r;
    expect_same_trace(reused.trace(), fresh.trace());
  }
  expect_same_metrics(reused.metrics(), fresh.metrics());
  // The history really did outgrow the probe, so a lifetime op-pool count
  // could not pass the comparison above.
  EXPECT_GT(history.op_pool_blocks, fresh.metrics().op_pool_blocks);
}

TEST(SessionResetDeterminismTest, ReusedFlatSessionMatchesFresh) {
  sim::ClusterConfig cfg = sim::make_paper_cluster(3);
  cfg.quirks.escalation_peak_prob = 0.9;  // make the incast escalate
  {
    World probe(cfg);
    run_reset_history(probe);
    ASSERT_GT(probe.metrics().msgs_rendezvous, 0u);
    ASSERT_GT(probe.metrics().escalations, 0u);
    ASSERT_GT(probe.metrics().frag_leaps, 0u);
  }
  expect_reset_matches_fresh(cfg);
}

TEST(SessionResetDeterminismTest, ReusedContendedTreeSessionMatchesFresh) {
  expect_reset_matches_fresh(sim::make_multicore_cluster(2, 2, 3, /*seed=*/5));
}

TEST(SessionResetDeterminismTest, ResetAfterRankExceptionIsClean) {
  const auto cfg = std::make_shared<const sim::ClusterConfig>(quiet_cluster());
  SimSession reused(cfg, 1);
  auto throwing = idle_programs(4);
  throwing[1] = [](Comm& c) -> Task { co_await c.recv(0); };
  throwing[0] = [](Comm& c) -> Task {
    const Request q = c.isend(2, 256 * 1024);  // rendezvous: never matched
    (void)q;
    co_await c.sleep(1_us);
    throw Error("boom");
  };
  EXPECT_THROW(reused.run(throwing), Error);
  reused.reset(7);
  SimSession fresh(cfg, 7);
  const auto probe = reset_probe(4);
  EXPECT_EQ(reused.run(probe), fresh.run(probe));
  expect_same_metrics(reused.metrics(), fresh.metrics());
}

}  // namespace
}  // namespace lmo::vmpi
