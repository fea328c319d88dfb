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
/// One repetition of a measured round: the per-experiment elapsed times
/// (post fault injection), the session's simulated completion time (for
/// cost accounting), the session's observability counters (published only
/// when committed), and the injected-fault tallies of the repetition.
struct RepSample {
  std::vector<double> slots;
  SimTime end;
  vmpi::SessionMetrics metrics;
  int spikes = 0;
  int drops = 0;
  int hangs = 0;
  int slows = 0;
};

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

/// What survives recovery cleaning of one slot's sample pool: drop
/// non-finite and timed-out samples (timeout = timeout_factor x the
/// median of the finite samples — the round's own robust prediction of
/// itself, never below timeout_floor_s), then MAD-trim the remainder.
struct CleanedSlot {
  std::vector<double> kept;
  int timeouts = 0;  ///< non-finite or beyond the timeout
  int trimmed = 0;   ///< finite but MAD-rejected
  double timeout_s = 0.0;
};

CleanedSlot clean_slot(const std::vector<double>& pool,
                       const mpib::MeasureOptions& m) {
  CleanedSlot out;
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

/// Fault tallies packed into one 32-bit word, one byte per class
/// (saturating): spikes | drops | hangs | slowdowns, high byte first.
std::uint32_t pack_faults(std::uint64_t spikes, std::uint64_t drops,
                          std::uint64_t hangs, std::uint64_t slows) {
  const auto sat = [](std::uint64_t v) {
    return std::uint32_t(v > 255 ? 255 : v);
  };
  return (sat(spikes) << 24) | (sat(drops) << 16) | (sat(hangs) << 8) |
         sat(slows);
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
}  // namespace

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
  // Per-repetition isolated sessions never attach — they run concurrently.
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
  const bool faulty = fault.enabled();

  // sample(rep) is pure in `rep`: a fresh session seeded from (base,
  // round, rep), so repetitions can run on any thread in any order. With
  // faults enabled the measured slots are transformed by fault draws that
  // are likewise pure in (round, rep, slot) — still thread-order free.
  const obs::Span sp = obs::span("measure_round", "measure");
  auto sample = [&](int rep) {
    RepSample s;
    s.slots.assign(n_experiments, 0.0);
    vmpi::SimSession sess(session_->shared_config(),
                          derive_seed(base, round, std::uint64_t(rep)));
    const auto programs = build(s.slots);
    s.end = sess.run(programs);
    s.metrics = sess.metrics();
    if (faulty) {
      for (std::size_t e = 0; e < n_experiments; ++e) {
        const double scale = sim::slow_scale_for(fault, round,
                                                 std::uint64_t(rep),
                                                 participants[e]);
        const auto out = sim::inject_fault(fault, round, std::uint64_t(rep),
                                           e, s.slots[e], scale);
        s.slots[e] = out.seconds;
        s.spikes += out.spiked;
        s.drops += out.dropped;
        s.hangs += out.hung;
        s.slows += out.slowed;
      }
    }
    return s;
  };
  auto converged = [&](const std::vector<RepSample>& samples, int k) {
    for (std::size_t e = 0; e < n_experiments; ++e) {
      if (faulty) {
        // Judge the CI on what recovery would keep — a pure function of
        // the prefix, so the stopping rule stays jobs-independent and a
        // +inf dropped sample can never wedge the accumulator.
        std::vector<double> pool;
        for (int r = 0; r < k; ++r) pool.push_back(samples[std::size_t(r)].slots[e]);
        const CleanedSlot cs = clean_slot(pool, measure_);
        if (cs.kept.size() < 2) return false;
        stats::RunningStats acc;
        for (double x : cs.kept) acc.add(x);
        const auto ci = stats::confidence_interval(acc, measure_.confidence);
        if (ci.relative_error() > measure_.rel_err) return false;
      } else {
        stats::RunningStats acc;
        for (int r = 0; r < k; ++r) acc.add(samples[std::size_t(r)].slots[e]);
        const auto ci = stats::confidence_interval(acc, measure_.confidence);
        if (ci.relative_error() > measure_.rel_err) return false;
      }
    }
    return true;
  };
  AdaptiveRepsStats reps_stats;
  const auto used = adaptive_reps<RepSample>(jobs(), measure_.min_reps,
                                             measure_.max_reps, sample,
                                             converged, &reps_stats);

  session_runs_ += used.size();
  vmpi::SessionMetrics committed;
  for (const auto& s : used) {
    session_cost_ += s.end;
    committed.merge(s.metrics);
  }
  rounds_.inc();
  reps_committed_.inc(std::uint64_t(reps_stats.committed));
  reps_discarded_.inc(std::uint64_t(reps_stats.computed -
                                    reps_stats.committed));

  if (!faulty) {
    // Fault-free fast path: byte-for-byte the pre-fault pipeline.
    std::vector<double> means(n_experiments, 0.0);
    for (const auto& s : used)
      for (std::size_t e = 0; e < n_experiments; ++e) means[e] += s.slots[e];
    for (auto& m : means) m /= double(used.size());
    vmpi::publish_metrics(committed, obs::Registry::global());
    for (std::size_t e = 0; e < n_experiments; ++e) {
      stats::RunningStats acc;
      for (const auto& s : used) acc.add(s.slots[e]);
      ci_rel_err_.observe(stats::confidence_interval(acc, measure_.confidence)
                              .relative_error());
    }
    last_health_.assign(n_experiments, SlotHealth::kOk);
    if (flight_)
      flight_->record(wall_ns(), obs::FlightEvent::kRoundComplete,
                      std::uint16_t(round),
                      std::uint32_t(reps_stats.committed));
    return means;
  }

  // --- Recovery (runs serially on the committed, jobs-independent set) ---
  std::uint64_t spikes = 0, drops = 0, hangs = 0, slows = 0;
  std::vector<std::vector<double>> pools(n_experiments);
  for (const auto& s : used) {
    spikes += std::uint64_t(s.spikes);
    drops += std::uint64_t(s.drops);
    hangs += std::uint64_t(s.hangs);
    slows += std::uint64_t(s.slows);
    for (std::size_t e = 0; e < n_experiments; ++e)
      pools[e].push_back(s.slots[e]);
  }

  // Bounded retry with backoff: while any slot is short of min_reps clean
  // samples, run whole extra repetitions. Wave structure depends only on
  // the committed sample set, so it is identical for every --jobs level;
  // retry repetition indices live far above the adaptive range so retries
  // draw fresh noise and fresh fault decisions.
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
    for (const auto& s : retries) {
      session_cost_ += s.end;
      committed.merge(s.metrics);
      spikes += std::uint64_t(s.spikes);
      drops += std::uint64_t(s.drops);
      hangs += std::uint64_t(s.hangs);
      slows += std::uint64_t(s.slows);
      for (std::size_t e = 0; e < n_experiments; ++e)
        pools[e].push_back(s.slots[e]);
    }
    session_runs_ += std::uint64_t(need);
    reps_committed_.inc(std::uint64_t(need));
    recovery_retries_.inc(std::uint64_t(need));
    recovery_waves_.inc();
    if (flight_)
      flight_->record(wall_ns(), obs::FlightEvent::kRetryWave,
                      std::uint16_t(wave), std::uint32_t(need));
    // Each wave pays a (simulated) coordination backoff before re-issuing.
    session_cost_ += SimTime::from_seconds(measure_.retry_backoff_s);
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
    if (cs.kept.size() >= 2) {
      stats::RunningStats acc;
      for (double x : cs.kept) acc.add(x);
      ci_rel_err_.observe(stats::confidence_interval(acc, measure_.confidence)
                              .relative_error());
    }
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
  fault_spikes_.inc(spikes);
  fault_drops_.inc(drops);
  fault_hangs_.inc(hangs);
  fault_slow_.inc(slows);
  vmpi::publish_metrics(committed, obs::Registry::global());
  if (flight_) {
    if (spikes + drops + hangs + slows > 0)
      flight_->record(wall_ns(), obs::FlightEvent::kFaultInjected,
                      std::uint16_t(round),
                      pack_faults(spikes, drops, hangs, slows));
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

double SimExperimenter::recover_observation(
    const std::function<double()>& run_once, std::uint64_t obs_index) {
  // Observations carry no per-slot health; stale health from a previous
  // measured round must not leak into execute_plan's quarantine decision.
  last_health_.clear();
  const sim::FaultSpec& fault = measure_.fault;
  if (!fault.enabled()) return run_once();
  // Observations occupy the whole cluster, so any node's slowdown episode
  // stretches them.
  std::vector<int> all(static_cast<std::size_t>(size()));
  std::iota(all.begin(), all.end(), 0);
  const double scale =
      sim::slow_scale_for(fault, kObsFaultStream, obs_index, all);
  std::uint64_t spikes = 0, drops = 0, hangs = 0, slows = 0;
  for (int attempt = 0; attempt <= measure_.max_retries; ++attempt) {
    const double raw = run_once();
    const auto out =
        sim::inject_fault(fault, kObsFaultStream, obs_index,
                          std::uint64_t(attempt), raw, scale);
    spikes += out.spiked;
    drops += out.dropped;
    hangs += out.hung;
    slows += out.slowed;
    if (!out.dropped) {
      fault_spikes_.inc(spikes);
      fault_drops_.inc(drops);
      fault_hangs_.inc(hangs);
      fault_slow_.inc(slows);
      if (attempt > 0) recovery_retries_.inc(std::uint64_t(attempt));
      return out.seconds;
    }
    session_cost_ += SimTime::from_seconds(measure_.retry_backoff_s);
  }
  // Every attempt dropped: substitute the hang bound — finite, and robust
  // summaries (the empirical fits use medians) shrug it off.
  fault_spikes_.inc(spikes);
  fault_drops_.inc(drops);
  fault_hangs_.inc(hangs);
  fault_slow_.inc(slows);
  recovery_retries_.inc(std::uint64_t(measure_.max_retries));
  recovery_timeouts_.inc();
  if (flight_) {
    flight_->record(wall_ns(), obs::FlightEvent::kFaultInjected,
                    std::uint16_t(obs_index),
                    pack_faults(spikes, drops, hangs, slows));
    flight_->record(wall_ns(), obs::FlightEvent::kTimeout,
                    std::uint16_t(obs_index), 0);
    flight_->mark_degraded();
  }
  return fault.hang_delay_s;
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
  const sim::FaultSpec& fault = measure_.fault;
  const bool faulty = fault.enabled();
  std::vector<int> all(static_cast<std::size_t>(size()));
  std::iota(all.begin(), all.end(), 0);

  // One repetition: its committed observation value, cost, metrics, and
  // fault/retry tallies — a pure function of `rep`, independent of
  // scheduling. Dropped attempts retry on a fresh attempt-derived session
  // seed; when every attempt drops, the hang bound substitutes.
  struct ObsRep {
    double value = 0.0;
    SimTime cost;
    vmpi::SessionMetrics metrics;
    std::uint64_t spikes = 0, drops = 0, hangs = 0, slows = 0;
    std::uint64_t retries = 0, exhausted = 0;
  };
  std::vector<ObsRep> samples(static_cast<std::size_t>(reps));
  parallel_for(jobs(), reps, [&](int rep) {
    ObsRep& s = samples[std::size_t(rep)];
    const std::uint64_t rep_seed = derive_seed(base, round, std::uint64_t(rep));
    if (!faulty) {
      vmpi::SimSession sess(session_->shared_config(), rep_seed);
      s.cost = sess.run(coll::spmd(sess.size(), body));
      s.metrics = sess.metrics();
      s.value = s.cost.seconds();
      return;
    }
    const double scale =
        sim::slow_scale_for(fault, round, std::uint64_t(rep), all);
    bool settled = false;
    for (int attempt = 0; attempt <= measure_.max_retries; ++attempt) {
      vmpi::SimSession sess(session_->shared_config(),
                            attempt == 0 ? rep_seed
                                         : derive_seed(rep_seed,
                                                       std::uint64_t(attempt)));
      const SimTime end = sess.run(coll::spmd(sess.size(), body));
      s.cost += end;
      s.metrics.merge(sess.metrics());
      const auto out = sim::inject_fault(fault, round, std::uint64_t(rep),
                                         std::uint64_t(attempt),
                                         end.seconds(), scale);
      s.spikes += out.spiked;
      s.drops += out.dropped;
      s.hangs += out.hung;
      s.slows += out.slowed;
      if (!out.dropped) {
        s.value = out.seconds;
        s.retries = std::uint64_t(attempt);
        settled = true;
        break;
      }
    }
    if (!settled) {
      s.value = fault.hang_delay_s;
      s.retries = std::uint64_t(measure_.max_retries);
      s.exhausted = 1;
    }
  });
  std::vector<double> out(static_cast<std::size_t>(reps));
  vmpi::SessionMetrics merged;
  std::uint64_t spikes = 0, drops = 0, hangs = 0, slows = 0;
  std::uint64_t retries = 0, exhausted = 0, extra_runs = 0;
  for (std::size_t r = 0; r < samples.size(); ++r) {
    const ObsRep& s = samples[r];
    session_cost_ += s.cost;
    if (s.retries > 0)
      session_cost_ +=
          SimTime::from_seconds(double(s.retries) * measure_.retry_backoff_s);
    merged.merge(s.metrics);
    out[r] = s.value;
    spikes += s.spikes;
    drops += s.drops;
    hangs += s.hangs;
    slows += s.slows;
    retries += s.retries;
    exhausted += s.exhausted;
    extra_runs += s.retries;
  }
  session_runs_ += std::uint64_t(reps) + extra_runs;
  observe_reps_.inc(std::uint64_t(reps));
  if (faulty) {
    fault_spikes_.inc(spikes);
    fault_drops_.inc(drops);
    fault_hangs_.inc(hangs);
    fault_slow_.inc(slows);
    recovery_retries_.inc(retries);
    recovery_timeouts_.inc(exhausted);
    if (flight_ && spikes + drops + hangs + slows > 0) {
      flight_->record(wall_ns(), obs::FlightEvent::kFaultInjected,
                      std::uint16_t(round),
                      pack_faults(spikes, drops, hangs, slows));
      if (exhausted > 0) {
        flight_->record(wall_ns(), obs::FlightEvent::kTimeout,
                        std::uint16_t(round), std::uint32_t(exhausted));
        flight_->mark_degraded();
      }
    }
  }
  vmpi::publish_metrics(merged, obs::Registry::global());
  return out;
}

}  // namespace lmo::estimate
