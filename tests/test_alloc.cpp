// Allocation gates of the simulation hot path. This binary replaces the
// global operator new with a counting one, so it must stay a binary of its
// own: the count covers everything the process allocates.
//
//  * The engine's schedule/fire cycle allocates nothing in steady state —
//    the indexed heap, Action's inline captures, the OpState arena and the
//    coroutine frame pool exist for exactly that — with a flight recorder
//    attached, so record() is proven allocation-free too.
//  * A warm pooled repetition (SimSession::reset(seed) + run on a reused
//    program vector, the experimenter's per-repetition path) allocates
//    nothing either: the pin is its measured count, 0. A change that adds
//    per-repetition allocations moves the pin and has to say why.
//  * A warm Tuner::decide over the flat golden grid allocates at most its
//    pinned count per call: the candidate list, the best-first order, the
//    mapping climb's and the decision itself — the replay scratch is the
//    Tuner's, grown by an earlier sweep. A change that allocates more per
//    decide moves the pin and has to say why.
//  * Loading the paper-16 store (parse + MeasurementStore::from_json)
//    allocates at most its pinned count and bytes: one block per parsed
//    object or long string, the parser's stacks, one node per entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "core/tuner.hpp"
#include "estimate/measurement_store.hpp"
#include "estimate/suite.hpp"
#include "obs/json.hpp"
#include "obs/flight_recorder.hpp"
#include "simnet/cluster.hpp"
#include "simnet/engine.hpp"
#include "vmpi/session.hpp"
#include "vmpi/world.hpp"

namespace {
std::atomic<std::int64_t> g_allocs{0};
std::atomic<std::int64_t> g_bytes{0};

std::int64_t allocs() { return g_allocs.load(std::memory_order_relaxed); }
std::int64_t alloc_bytes() { return g_bytes.load(std::memory_order_relaxed); }
}  // namespace

// Count every heap allocation in the process. Relaxed ordering: the
// measured regions are single-threaded; the atomic only guards against
// gtest's or the runtime's background use.
void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(std::int64_t(n), std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(std::int64_t(n), std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
// GCC flags the sized form as mismatched with the replaced new; every new
// above allocates with malloc, so free is the right counterpart.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace lmo {
namespace {

TEST(AllocGate, HookCountsAllocations) {
  // A zero below means nothing was allocated, not that nothing was seen.
  const std::int64_t before = allocs();
  auto* v = new std::vector<int>(64);
  asm volatile("" : : "g"(v) : "memory");  // keep the pair from elision
  delete v;
  EXPECT_EQ(allocs() - before, 2);
}

TEST(AllocGate, EngineEventsAllocateNothing) {
  for (const int batch : {1024, 16384}) {
    sim::Engine engine;
    // The recorder's ring is allocated here, before the counted region.
    obs::FlightRecorder flight;
    engine.set_flight_recorder(&flight);
    // Warm the heap and slab vectors to the high-water mark.
    for (int e = 0; e < batch; ++e) engine.schedule_at(SimTime(e), [] {});
    engine.run();

    const std::int64_t before = allocs();
    for (int round = 0; round < 8; ++round) {
      engine.reset();
      for (int e = 0; e < batch; ++e) engine.schedule_at(SimTime(e), [] {});
      engine.run();
    }
    EXPECT_EQ(allocs() - before, 0) << "batch " << batch;
  }
}

TEST(AllocGate, PooledRepetitionAllocationsArePinned) {
  vmpi::SimSession session(
      std::make_shared<const sim::ClusterConfig>(sim::make_paper_cluster()));
  obs::FlightRecorder flight;
  auto programs = vmpi::idle_programs(session.size());
  programs[0] = [](vmpi::Comm& c) -> vmpi::Task {
    co_await c.send(1, 1024);
    co_await c.recv(1);
  };
  programs[1] = [](vmpi::Comm& c) -> vmpi::Task {
    co_await c.recv(0);
    co_await c.send(0, 1024);
  };
  auto repetition = [&](std::uint64_t seed) {
    session.reset(seed);
    session.set_flight_recorder(&flight);  // reset() detaches it
    (void)session.run(programs);
  };
  // Warm-up: engine vectors, session scratch, arena chunks and frame-pool
  // blocks reach steady state.
  repetition(1);
  repetition(2);

  constexpr int kReps = 16;
  const std::int64_t before = allocs();
  for (int r = 0; r < kReps; ++r) repetition(std::uint64_t(100 + r));
  EXPECT_EQ(allocs() - before, 0) << "over " << kReps << " repetitions";
  EXPECT_GT(session.metrics().events, 0u) << "the repetitions did no work";
}

TEST(AllocGate, WarmDecideAllocationsPinned) {
  // The flat golden grid of tests/test_tuner.cpp: ground-truth parameters
  // of the paper cluster, 4 ops x 1 KB..1 MB x every root.
  const sim::ClusterConfig cfg = sim::make_paper_cluster(1);
  const sim::GroundTruth gt = sim::ground_truth(cfg);
  const int n = cfg.size();
  core::LmoParams p;
  p.C = gt.C;
  p.t = gt.t;
  p.L = models::PairTable(n);
  p.inv_beta = models::PairTable(n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      p.L(i, j) = gt.L(i, j);
      p.inv_beta(i, j) = gt.inv_beta(i, j);
    }
  core::GatherEmpirical band;
  band.m1 = 4 * 1024;
  band.m2 = 80 * 1024;
  band.escalation_modes = {{0.10, 10, 0.6}, {0.25, 4, 0.4}};
  band.linear_prob_at_m1 = 0.9;
  band.linear_prob_at_m2 = 0.3;
  core::TunerOptions opts;
  opts.topology = &cfg.topology;
  const core::Tuner tuner(p, band, opts);
  // The most allocations of one decide over the grid.
  auto sweep = [&] {
    std::int64_t most = 0;
    for (const core::CollectiveKind kind :
         {core::CollectiveKind::kScatter, core::CollectiveKind::kGather,
          core::CollectiveKind::kBcast, core::CollectiveKind::kReduce})
      for (Bytes m = 1024; m <= 1024 * 1024; m *= 2)
        for (int root = 0; root < n; ++root) {
          const std::int64_t before = allocs();
          {
            const core::TunedDecision d = tuner.decide(kind, root, m);
            asm volatile("" : : "g"(&d) : "memory");
          }
          most = std::max(most, allocs() - before);
        }
    return most;
  };
  // Warm-up: the first sweep registers the work counters and grows the
  // Tuner's replay scratch to the grid's largest schedule.
  (void)sweep();
  // Measured: 6 at most per warm decide (the candidate list, the
  // best-first order and the mapping climb's; no replay buffer grows).
  EXPECT_EQ(sweep(), 6) << "most allocations of one decide";
}

TEST(AllocGate, StoreLoadAllocationsPinned) {
  // The paper-16 seed-1 store as a campaign saves it: 13,005 entries, 1 MB.
  const sim::ClusterConfig cfg = sim::make_paper_cluster(1);
  std::string text;
  {
    vmpi::World world(cfg);
    mpib::MeasureOptions m;
    m.jobs = 1;
    estimate::SimExperimenter ex(world, m);
    estimate::MeasurementStore store;
    store.set_cluster(cfg.size(), cfg.seed);
    (void)estimate::estimate_model_suite(ex, store);
    text = store.to_json().dump();
  }
  const std::int64_t n0 = allocs(), b0 = alloc_bytes();
  const obs::Json doc = obs::Json::parse(text);
  const std::int64_t n1 = allocs(), b1 = alloc_bytes();
  const estimate::MeasurementStore store =
      estimate::MeasurementStore::from_json(doc);
  const std::int64_t n2 = allocs(), b2 = alloc_bytes();
  ASSERT_EQ(store.size(), 13005u);
  // Measured: parse 13,821 allocations of 3,250,190 bytes in all (the
  // tree, 2.73 MB: one exact block per entry object, 194 bytes on
  // average, and the entries array's; the parser's stacks, 0.52 MB);
  // from_json 13,005 of 1,040,400 (the store's map node per entry).
  EXPECT_LE(n1 - n0, 13900) << "parse allocations";
  EXPECT_LE(b1 - b0, 3500000) << "parse bytes";
  EXPECT_LE(n2 - n1, 13005) << "from_json allocations";
  EXPECT_LE(b2 - b1, 1100000) << "from_json bytes";
}

}  // namespace
}  // namespace lmo
