#include "estimate/experimenter.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "coll/collectives.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/trace.hpp"
#include "simnet/fault.hpp"
#include "stats/students_t.hpp"
#include "stats/summary.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace lmo::estimate {

using vmpi::Comm;
using vmpi::RankProgram;
using vmpi::Task;

namespace {
/// Retry repetitions draw seeds and fault decisions from repetition
/// indices far above any reachable adaptive-reps index, so a retry is a
/// genuinely fresh experiment, never a replay of the failed one.
constexpr int kRetryBase = 1 << 20;
constexpr int kRetryWaveStride = 1 << 16;

/// Dedicated round salt for the single-observation fault stream, keeping
/// it decorrelated from measured-round streams (which use small round
/// indices).
constexpr std::uint64_t kObsFaultStream = 0x0b5e7fa0175eedULL;

double median_of_sorted_copy(std::vector<double> v) {
  LMO_ASSERT(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// What survives recovery cleaning of one slot's sample pool. With faults
/// off every sample is kept. Otherwise drop non-finite and timed-out
/// samples (timeout = timeout_factor x the median of the finite samples —
/// the round's own robust prediction of itself, never below
/// timeout_floor_s), then MAD-trim the remainder.
struct CleanedSlot {
  std::vector<double> kept;
  int timeouts = 0;  ///< non-finite or beyond the timeout
  int trimmed = 0;   ///< finite but MAD-rejected
  double timeout_s = 0.0;
};

CleanedSlot clean_slot(std::vector<double> pool,
                       const mpib::MeasureOptions& m) {
  CleanedSlot out;
  if (!m.fault.enabled()) {
    out.kept = std::move(pool);
    return out;
  }
  std::vector<double> finite;
  for (double x : pool)
    if (std::isfinite(x)) finite.push_back(x);
  if (finite.empty()) {
    out.timeouts = int(pool.size());
    out.timeout_s = m.timeout_floor_s;
    return out;
  }
  out.timeout_s = std::max(m.timeout_floor_s,
                           m.timeout_factor * median_of_sorted_copy(finite));
  std::vector<double> within;
  for (double x : finite)
    if (x <= out.timeout_s) within.push_back(x);
  out.timeouts = int(pool.size() - within.size());
  if (within.empty()) return out;
  const double med = median_of_sorted_copy(within);
  std::vector<double> dev;
  for (double x : within) dev.push_back(std::fabs(x - med));
  // 1.4826 rescales the MAD to a Gaussian sigma-equivalent.
  const double scaled_mad = 1.4826 * median_of_sorted_copy(dev);
  if (scaled_mad <= 0.0) {
    out.kept = std::move(within);
    return out;
  }
  for (double x : within) {
    if (std::fabs(x - med) <= m.mad_cutoff * scaled_mad)
      out.kept.push_back(x);
    else
      ++out.trimmed;
  }
  return out;
}

/// Relative CI half-width of the mean of `xs` at `confidence`.
double relative_error(const std::vector<double>& xs, double confidence) {
  stats::RunningStats acc;
  for (const double x : xs) acc.add(x);
  return stats::confidence_interval(acc, confidence).relative_error();
}

/// Wall-clock nanoseconds for host-side flight events. Session-recorded
/// events carry simulated nanoseconds instead — the event code tells a
/// reader which clock a record used. The very first wall_now_us() of a
/// process can land a few ns before the lazily-captured trace epoch, so
/// clamp: a negative double cast to uint64 would wrap past int64 range
/// and make the dump unserializable as JSON.
std::uint64_t wall_ns() {
  const double us = obs::wall_now_us();
  return us > 0 ? std::uint64_t(us * 1e3) : 0;
}

std::vector<std::vector<int>> pair_participants(const std::vector<Pair>& ps) {
  std::vector<std::vector<int>> out;
  for (const auto& [i, j] : ps) out.push_back({i, j});
  return out;
}

std::vector<std::vector<int>> triplet_participants(
    const std::vector<Triplet>& ts) {
  std::vector<std::vector<int>> out;
  for (const auto& [root, a, b] : ts) out.push_back({root, a, b});
  return out;
}

std::vector<int> all_ranks(int n) {
  std::vector<int> all(static_cast<std::size_t>(n));
  std::iota(all.begin(), all.end(), 0);
  return all;
}
}  // namespace

/// Injected faults by class, summed over slots, repetitions or attempts.
struct SimExperimenter::FaultTally {
  std::uint64_t spikes = 0;
  std::uint64_t drops = 0;
  std::uint64_t hangs = 0;
  std::uint64_t slows = 0;

  void add(const sim::FaultOutcome& out) {
    spikes += out.spiked;
    drops += out.dropped;
    hangs += out.hung;
    slows += out.slowed;
  }
  void add(const FaultTally& o) {
    spikes += o.spikes;
    drops += o.drops;
    hangs += o.hangs;
    slows += o.slows;
  }
  [[nodiscard]] bool any() const { return spikes + drops + hangs + slows > 0; }
  /// One byte per class (saturating), for a flight event payload:
  /// spikes | drops | hangs | slowdowns, high byte first.
  [[nodiscard]] std::uint32_t packed() const {
    const auto sat = [](std::uint64_t v) {
      return std::uint32_t(v > 255 ? 255 : v);
    };
    return (sat(spikes) << 24) | (sat(drops) << 16) | (sat(hangs) << 8) |
           sat(slows);
  }
};

/// One observation once its result arrived, or once every attempt dropped.
struct SimExperimenter::Settled {
  double seconds = 0.0;
  std::uint64_t retries = 0;  ///< attempts after the first
  bool exhausted = false;     ///< every attempt dropped
  FaultTally faults;
};

/// A pooled repetition session, reset to `seed`, held for one repetition
/// (or one attempt) and handed back to the pool on destruction.
class SimExperimenter::Lease {
 public:
  Lease(SimExperimenter& ex, std::uint64_t seed)
      : pool_(ex.pool_), limit_(ex.jobs()) {
    {
      std::unique_lock lock(pool_.mu);
      pool_.returned.wait(lock, [&] {
        return !pool_.idle.empty() || pool_.alive < limit_;
      });
      if (!pool_.idle.empty()) {
        sess_ = std::move(pool_.idle.back());
        pool_.idle.pop_back();
      } else {
        ++pool_.alive;
      }
    }
    try {
      if (sess_)
        sess_->reset(seed);
      else
        sess_ = std::make_unique<vmpi::SimSession>(
            ex.session_->shared_config(), seed);
    } catch (...) {
      sess_.reset();
      give_back();
      throw;
    }
  }
  ~Lease() { give_back(); }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;

  vmpi::SimSession* operator->() { return sess_.get(); }

 private:
  /// Return the session (a reset() makes whatever state it holds harmless),
  /// or drop it when the pool is over its bound.
  void give_back() noexcept {
    std::unique_ptr<vmpi::SimSession> drop;
    {
      const std::lock_guard lock(pool_.mu);
      if (sess_ && pool_.alive <= limit_) {
        pool_.idle.push_back(std::move(sess_));
      } else {
        drop = std::move(sess_);
        --pool_.alive;
      }
    }
    pool_.returned.notify_one();
  }

  SessionPool& pool_;
  int limit_;
  std::unique_ptr<vmpi::SimSession> sess_;
};

std::vector<double> Experimenter::send_overhead_round(
    const std::vector<Pair>& pairs, Bytes m) {
  std::vector<double> out;
  for (const auto& [i, j] : pairs) out.push_back(send_overhead(i, j, m));
  return out;
}

std::vector<double> Experimenter::recv_overhead_round(
    const std::vector<Pair>& pairs, Bytes m) {
  std::vector<double> out;
  for (const auto& [i, j] : pairs) out.push_back(recv_overhead(i, j, m));
  return out;
}

std::vector<double> Experimenter::saturation_gap_round(
    const std::vector<Pair>& pairs, Bytes m, int count) {
  std::vector<double> out;
  for (const auto& [i, j] : pairs)
    out.push_back(saturation_gap(i, j, m, count));
  return out;
}

SimExperimenter::SimExperimenter(vmpi::SimSession& session,
                                 mpib::MeasureOptions measure)
    : session_(&session), measure_(measure) {
  measure_.validate();
  obs::Registry& reg = obs::Registry::global();
  rounds_ = reg.counter("estimate.rounds");
  reps_committed_ = reg.counter("estimate.reps_committed");
  reps_discarded_ = reg.counter("estimate.reps_discarded");
  observe_reps_ = reg.counter("estimate.observe_reps");
  ci_rel_err_ = reg.histogram("estimate.ci_rel_err",
                              {0.005, 0.01, 0.025, 0.05, 0.1, 0.25});
  fault_spikes_ = reg.counter("fault.spikes");
  fault_drops_ = reg.counter("fault.drops");
  fault_hangs_ = reg.counter("fault.hangs");
  fault_slow_ = reg.counter("fault.slow_episodes");
  recovery_timeouts_ = reg.counter("recovery.timeouts");
  recovery_trimmed_ = reg.counter("recovery.trimmed");
  recovery_retries_ = reg.counter("recovery.retries");
  recovery_waves_ = reg.counter("recovery.retry_waves");
  recovery_poisoned_ = reg.counter("recovery.poisoned_slots");
}

void SimExperimenter::set_flight_recorder(obs::FlightRecorder* recorder) {
  flight_ = recorder;
  // The anchor session is driven only from the host thread that drives
  // this experimenter, so the single-owner ring contract extends to it.
  // Pooled repetition sessions never attach — they run concurrently.
  session_->set_flight_recorder(recorder);
}

int SimExperimenter::jobs() const {
  return measure_.jobs > 0 ? measure_.jobs : default_jobs();
}

const sim::Topology* SimExperimenter::topology() const {
  const sim::Topology& topo = session_->config().topology;
  // A flat config, or a degenerate tree (one level, no contention), adds
  // no information over the flat single-switch model — report "no
  // topology" so planning and fitting stay byte-identical with it.
  if (topo.empty() || (topo.depth() <= 1 && !topo.any_contended()))
    return nullptr;
  return &topo;
}

std::vector<double> SimExperimenter::measure_round(
    const std::function<std::vector<RankProgram>(std::vector<double>&)>&
        build,
    const std::vector<std::vector<int>>& participants) {
  const std::size_t n_experiments = participants.size();
  LMO_CHECK(n_experiments >= 1);
  const std::uint64_t round = next_round();
  if (flight_)
    flight_->record(wall_ns(), obs::FlightEvent::kRoundStart,
                    std::uint16_t(round), std::uint32_t(n_experiments));
  const std::uint64_t base = session_->seed();
  const sim::FaultSpec& fault = measure_.fault;

  /// One repetition: the per-experiment elapsed times (post fault
  /// injection), the session's simulated completion time (for cost
  /// accounting), its observability counters (published only when
  /// committed), and its injected faults.
  struct RepSample {
    std::vector<double> slots;
    SimTime end;
    vmpi::SessionMetrics metrics;
    FaultTally faults;
  };
  // sample(rep) is pure in `rep`: a session reset to a seed from (base,
  // round, rep), and fault draws likewise pure in (round, rep, slot), so
  // repetitions can run on any thread in any order.
  const obs::Span sp = obs::span("measure_round", "measure");
  auto sample = [&](int rep) {
    RepSample s;
    s.slots.assign(n_experiments, 0.0);
    Lease sess(*this, derive_seed(base, round, std::uint64_t(rep)));
    const auto programs = build(s.slots);
    s.end = sess->run(programs);
    s.metrics = sess->metrics();
    for (std::size_t e = 0; e < n_experiments; ++e) {
      const double scale = sim::slow_scale_for(fault, round,
                                               std::uint64_t(rep),
                                               participants[e]);
      const auto out = sim::inject_fault(fault, round, std::uint64_t(rep), e,
                                         s.slots[e], scale);
      s.slots[e] = out.seconds;
      s.faults.add(out);
    }
    return s;
  };
  // Judge the CI on what recovery keeps — a pure function of the prefix,
  // so the stopping rule stays jobs-independent and a +inf dropped sample
  // can never wedge the accumulator.
  auto converged = [&](const std::vector<RepSample>& samples, int k) {
    for (std::size_t e = 0; e < n_experiments; ++e) {
      std::vector<double> pool;
      pool.reserve(std::size_t(k));
      for (int r = 0; r < k; ++r)
        pool.push_back(samples[std::size_t(r)].slots[e]);
      const CleanedSlot cs = clean_slot(std::move(pool), measure_);
      if (cs.kept.size() < 2 ||
          relative_error(cs.kept, measure_.confidence) > measure_.rel_err)
        return false;
    }
    return true;
  };
  AdaptiveRepsStats reps_stats;
  const auto used = adaptive_reps<RepSample>(jobs(), measure_.min_reps,
                                             measure_.max_reps, sample,
                                             converged, &reps_stats);

  vmpi::SessionMetrics committed;
  FaultTally faults;
  std::vector<std::vector<double>> pools(n_experiments);
  auto commit = [&](const RepSample& s) {
    session_cost_ += s.end;
    committed.merge(s.metrics);
    faults.add(s.faults);
    for (std::size_t e = 0; e < n_experiments; ++e)
      pools[e].push_back(s.slots[e]);
  };
  for (const auto& s : used) commit(s);
  session_runs_ += used.size();
  rounds_.inc();
  reps_committed_.inc(std::uint64_t(reps_stats.committed));
  reps_discarded_.inc(std::uint64_t(reps_stats.computed -
                                    reps_stats.committed));

  // --- Recovery (runs serially on the committed, jobs-independent set) ---
  // Bounded retry with backoff: while any slot is short of min_reps clean
  // samples, run whole extra repetitions. Wave structure depends only on
  // the committed sample set, so it is identical for every --jobs level;
  // retry repetition indices live far above the adaptive range so retries
  // draw fresh noise and fresh fault decisions. With faults off every
  // sample is clean and no wave fires.
  for (int wave = 0; wave < measure_.max_retries; ++wave) {
    int need = 0;
    for (std::size_t e = 0; e < n_experiments; ++e) {
      const CleanedSlot cs = clean_slot(pools[e], measure_);
      need = std::max(need,
                      measure_.min_reps - int(cs.kept.size()));
    }
    if (need <= 0) break;
    std::vector<RepSample> retries(static_cast<std::size_t>(need));
    parallel_for(jobs(), need, [&](int i) {
      retries[std::size_t(i)] =
          sample(kRetryBase + wave * kRetryWaveStride + i);
    });
    for (const auto& s : retries) commit(s);
    session_runs_ += std::uint64_t(need);
    reps_committed_.inc(std::uint64_t(need));
    recovery_retries_.inc(std::uint64_t(need));
    recovery_waves_.inc();
    if (flight_)
      flight_->record(wall_ns(), obs::FlightEvent::kRetryWave,
                      std::uint16_t(wave), std::uint32_t(need));
    // Each wave pays a (simulated) coordination backoff before re-issuing.
    session_cost_ += backoff(1);
  }

  std::vector<double> means(n_experiments, 0.0);
  last_health_.assign(n_experiments, SlotHealth::kOk);
  std::uint64_t poisoned = 0;
  for (std::size_t e = 0; e < n_experiments; ++e) {
    const CleanedSlot cs = clean_slot(pools[e], measure_);
    recovery_timeouts_.inc(std::uint64_t(cs.timeouts));
    recovery_trimmed_.inc(std::uint64_t(cs.trimmed));
    if (flight_ && cs.timeouts > 0)
      flight_->record(wall_ns(), obs::FlightEvent::kTimeout, std::uint16_t(e),
                      std::uint32_t(cs.kept.size()));
    if (cs.kept.empty()) {
      // Nothing usable survived: report the timeout bound — finite, and an
      // honest "at least this slow" — and mark the slot poisoned so the
      // store re-measures instead of caching it.
      means[e] = std::min(cs.timeout_s, fault.hang_delay_s);
      last_health_[e] = SlotHealth::kPoisoned;
      ++poisoned;
      if (flight_)
        flight_->record(wall_ns(), obs::FlightEvent::kPoisoned,
                        std::uint16_t(e), std::uint32_t(pools[e].size()));
      continue;
    }
    means[e] = std::accumulate(cs.kept.begin(), cs.kept.end(), 0.0) /
               double(cs.kept.size());
    if (cs.kept.size() >= 2)
      ci_rel_err_.observe(relative_error(cs.kept, measure_.confidence));
    if (int(cs.kept.size()) < measure_.min_reps) {
      last_health_[e] = SlotHealth::kPoisoned;
      ++poisoned;
      if (flight_)
        flight_->record(wall_ns(), obs::FlightEvent::kPoisoned,
                        std::uint16_t(e), std::uint32_t(pools[e].size()));
    } else if (cs.timeouts > 0 || cs.trimmed > 0) {
      last_health_[e] = SlotHealth::kDegraded;
    }
  }
  recovery_poisoned_.inc(poisoned);
  publish_faults(faults);
  vmpi::publish_metrics(committed, obs::Registry::global());
  if (flight_) {
    if (faults.any())
      flight_->record(wall_ns(), obs::FlightEvent::kFaultInjected,
                      std::uint16_t(round), faults.packed());
    flight_->record(wall_ns(), obs::FlightEvent::kRoundComplete,
                    std::uint16_t(round), std::uint32_t(reps_stats.committed));
    for (const SlotHealth h : last_health_)
      if (h != SlotHealth::kOk) {
        flight_->mark_degraded();
        break;
      }
  }
  return means;
}

std::vector<double> SimExperimenter::roundtrip_round(
    const std::vector<Pair>& pairs, Bytes m_fwd, Bytes m_back) {
  LMO_CHECK(!pairs.empty());
  auto build = [this, &pairs, m_fwd, m_back](std::vector<double>& slots) {
    auto programs = vmpi::idle_programs(size());
    for (std::size_t e = 0; e < pairs.size(); ++e) {
      const auto [i, j] = pairs[e];
      double* slot = &slots[e];
      programs[std::size_t(i)] = [j, m_fwd, slot](Comm& c) -> Task {
        const SimTime t0 = c.now();
        co_await c.send(j, m_fwd);
        co_await c.recv(j);
        *slot = (c.now() - t0).seconds();
      };
      programs[std::size_t(j)] = [i, m_back](Comm& c) -> Task {
        co_await c.recv(i);
        co_await c.send(i, m_back);
      };
    }
    return programs;
  };
  return measure_round(build, pair_participants(pairs));
}

std::vector<double> SimExperimenter::one_to_two_round(
    const std::vector<Triplet>& triplets, Bytes m, Bytes reply) {
  LMO_CHECK(!triplets.empty());
  auto build = [this, &triplets, m, reply](std::vector<double>& slots) {
    auto programs = vmpi::idle_programs(size());
    for (std::size_t e = 0; e < triplets.size(); ++e) {
      const auto [root, a, b] = triplets[e];
      double* slot = &slots[e];
      // Send order a then b, receive order b then a: with b the "far"
      // child (larger roundtrip), the root's processing fully serializes
      // on the critical path and eqs. (8)/(11) hold exactly.
      programs[std::size_t(root)] = [a, b, m, slot](Comm& c) -> Task {
        const SimTime t0 = c.now();
        co_await c.send(a, m);
        co_await c.send(b, m);
        co_await c.recv(b);
        co_await c.recv(a);
        *slot = (c.now() - t0).seconds();
      };
      const auto leaf = [root, reply](Comm& c) -> Task {
        co_await c.recv(root);
        co_await c.send(root, reply);
      };
      programs[std::size_t(a)] = leaf;
      programs[std::size_t(b)] = leaf;
    }
    return programs;
  };
  return measure_round(build, triplet_participants(triplets));
}

double SimExperimenter::send_overhead(int i, int j, Bytes m) {
  return send_overhead_round({{i, j}}, m)[0];
}

double SimExperimenter::recv_overhead(int i, int j, Bytes m) {
  return recv_overhead_round({{i, j}}, m)[0];
}

double SimExperimenter::saturation_gap(int i, int j, Bytes m, int count) {
  return saturation_gap_round({{i, j}}, m, count)[0];
}

std::vector<double> SimExperimenter::send_overhead_round(
    const std::vector<Pair>& pairs, Bytes m) {
  LMO_CHECK(!pairs.empty());
  auto build = [this, &pairs, m](std::vector<double>& slots) {
    auto programs = vmpi::idle_programs(size());
    for (std::size_t e = 0; e < pairs.size(); ++e) {
      const auto [i, j] = pairs[e];
      double* slot = &slots[e];
      programs[std::size_t(i)] = [j, m, slot](Comm& c) -> Task {
        const SimTime t0 = c.now();
        co_await c.send(j, m);
        *slot = (c.now() - t0).seconds();
        co_await c.recv(j);
      };
      programs[std::size_t(j)] = [i](Comm& c) -> Task {
        co_await c.recv(i);
        co_await c.send(i, 0);
      };
    }
    return programs;
  };
  return measure_round(build, pair_participants(pairs));
}

std::vector<double> SimExperimenter::recv_overhead_round(
    const std::vector<Pair>& pairs, Bytes m) {
  LMO_CHECK(!pairs.empty());
  // Wait long enough that the m-byte reply has certainly arrived before the
  // receive is posted; the receive's duration then approximates o_r(m).
  const SimTime wait =
      SimTime::from_seconds(0.1 + double(m) * 1e-6);  // >= 1 us/B cushion
  auto build = [this, &pairs, m, wait](std::vector<double>& slots) {
    auto programs = vmpi::idle_programs(size());
    for (std::size_t e = 0; e < pairs.size(); ++e) {
      const auto [i, j] = pairs[e];
      double* slot = &slots[e];
      programs[std::size_t(i)] = [j, wait, slot](Comm& c) -> Task {
        co_await c.send(j, 0);
        co_await c.sleep(wait);
        const SimTime t0 = c.now();
        co_await c.recv(j);
        *slot = (c.now() - t0).seconds();
      };
      programs[std::size_t(j)] = [i, m](Comm& c) -> Task {
        co_await c.recv(i);
        co_await c.send(i, m);
      };
    }
    return programs;
  };
  return measure_round(build, pair_participants(pairs));
}

std::vector<double> SimExperimenter::saturation_gap_round(
    const std::vector<Pair>& pairs, Bytes m, int count) {
  LMO_CHECK(!pairs.empty());
  LMO_CHECK(count >= 1);
  auto build = [this, &pairs, m, count](std::vector<double>& slots) {
    auto programs = vmpi::idle_programs(size());
    for (std::size_t e = 0; e < pairs.size(); ++e) {
      const auto [i, j] = pairs[e];
      double* slot = &slots[e];
      programs[std::size_t(i)] = [j, m, count, slot](Comm& c) -> Task {
        const SimTime t0 = c.now();
        for (int s = 0; s < count; ++s) co_await c.send(j, m);
        *slot = (c.now() - t0).seconds();
      };
      programs[std::size_t(j)] = [i, count](Comm& c) -> Task {
        for (int s = 0; s < count; ++s) co_await c.recv(i);
      };
    }
    return programs;
  };
  auto means = measure_round(build, pair_participants(pairs));
  for (double& g : means) g /= double(count);
  return means;
}

SimExperimenter::Settled SimExperimenter::settle(
    std::uint64_t stream, std::uint64_t index, double scale,
    const std::function<double(int attempt)>& run) const {
  Settled s;
  for (int attempt = 0; attempt <= measure_.max_retries; ++attempt) {
    const auto out = sim::inject_fault(measure_.fault, stream, index,
                                       std::uint64_t(attempt), run(attempt),
                                       scale);
    s.faults.add(out);
    if (!out.dropped) {
      s.seconds = out.seconds;
      s.retries = std::uint64_t(attempt);
      return s;
    }
  }
  // Every attempt dropped: substitute the hang bound — finite, and robust
  // summaries (the empirical fits use medians) shrug it off.
  s.seconds = measure_.fault.hang_delay_s;
  s.retries = std::uint64_t(measure_.max_retries);
  s.exhausted = true;
  return s;
}

void SimExperimenter::publish_faults(const FaultTally& faults) {
  fault_spikes_.inc(faults.spikes);
  fault_drops_.inc(faults.drops);
  fault_hangs_.inc(faults.hangs);
  fault_slow_.inc(faults.slows);
}

SimTime SimExperimenter::backoff(std::uint64_t retries) const {
  return SimTime::from_seconds(double(retries) * measure_.retry_backoff_s);
}

double SimExperimenter::recover_observation(
    const std::function<double()>& run_once, std::uint64_t obs_index) {
  // Observations carry no per-slot health; stale health from a previous
  // measured round must not leak into execute_plan's quarantine decision.
  last_health_.clear();
  // Observations occupy the whole cluster, so any node's slowdown episode
  // stretches them.
  const double scale = sim::slow_scale_for(measure_.fault, kObsFaultStream,
                                           obs_index, all_ranks(size()));
  const Settled s = settle(kObsFaultStream, obs_index, scale,
                           [&run_once](int) { return run_once(); });
  session_cost_ += backoff(s.retries);
  publish_faults(s.faults);
  recovery_retries_.inc(s.retries);
  if (s.exhausted) {
    recovery_timeouts_.inc();
    if (flight_) {
      flight_->record(wall_ns(), obs::FlightEvent::kFaultInjected,
                      std::uint16_t(obs_index), s.faults.packed());
      flight_->record(wall_ns(), obs::FlightEvent::kTimeout,
                      std::uint16_t(obs_index), 0);
      flight_->mark_degraded();
    }
  }
  return s.seconds;
}

double SimExperimenter::observe_scatter(int root, Bytes m) {
  return recover_observation(
      [this, root, m] {
        return observe_global(
            [root, m](Comm& c) { return coll::linear_scatter(c, root, m); });
      },
      obs_fault_seq_++);
}

double SimExperimenter::observe_gather(int root, Bytes m) {
  return recover_observation(
      [this, root, m] {
        return observe_global(
            [root, m](Comm& c) { return coll::linear_gather(c, root, m); });
      },
      obs_fault_seq_++);
}

double SimExperimenter::observe_global(
    const std::function<Task(Comm&)>& body) {
  return session_->run(coll::spmd(size(), body)).seconds();
}

std::vector<double> SimExperimenter::observe_global_samples(
    const std::function<Task(Comm&)>& body, int reps) {
  LMO_CHECK(reps >= 1);
  last_health_.clear();
  const obs::Span sp = obs::span("observe_global_samples", "measure");
  const std::uint64_t round = next_round();
  const std::uint64_t base = session_->seed();
  const std::vector<int> all = all_ranks(size());

  // One repetition — a pure function of `rep`, independent of scheduling:
  // its settled observation plus the cost and metrics of every attempt.
  // Dropped attempts retry on a session reset to an attempt-derived seed.
  struct ObsRep {
    Settled settled;
    SimTime cost;
    vmpi::SessionMetrics metrics;
  };
  std::vector<ObsRep> samples(static_cast<std::size_t>(reps));
  parallel_for(jobs(), reps, [&](int rep) {
    ObsRep& s = samples[std::size_t(rep)];
    const std::uint64_t rep_seed = derive_seed(base, round, std::uint64_t(rep));
    const double scale =
        sim::slow_scale_for(measure_.fault, round, std::uint64_t(rep), all);
    s.settled = settle(round, std::uint64_t(rep), scale, [&](int attempt) {
      Lease sess(*this, attempt == 0
                            ? rep_seed
                            : derive_seed(rep_seed, std::uint64_t(attempt)));
      const SimTime end = sess->run(coll::spmd(sess->size(), body));
      s.cost += end;
      s.metrics.merge(sess->metrics());
      return end.seconds();
    });
  });
  std::vector<double> out(static_cast<std::size_t>(reps));
  vmpi::SessionMetrics merged;
  FaultTally faults;
  std::uint64_t retries = 0, exhausted = 0;
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const ObsRep& s = samples[r];
    session_cost_ += s.cost;
    session_cost_ += backoff(s.settled.retries);
    merged.merge(s.metrics);
    out[r] = s.settled.seconds;
    faults.add(s.settled.faults);
    retries += s.settled.retries;
    exhausted += s.settled.exhausted ? 1 : 0;
  }
  session_runs_ += std::uint64_t(reps) + retries;
  observe_reps_.inc(std::uint64_t(reps));
  publish_faults(faults);
  recovery_retries_.inc(retries);
  recovery_timeouts_.inc(exhausted);
  if (flight_ && faults.any()) {
    flight_->record(wall_ns(), obs::FlightEvent::kFaultInjected,
                    std::uint16_t(round), faults.packed());
    if (exhausted > 0) {
      flight_->record(wall_ns(), obs::FlightEvent::kTimeout,
                      std::uint16_t(round), std::uint32_t(exhausted));
      flight_->mark_degraded();
    }
  }
  vmpi::publish_metrics(merged, obs::Registry::global());
  return out;
}

}  // namespace lmo::estimate
