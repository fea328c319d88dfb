// SimExperimenter: the communication experiments the estimators consume.
//
// This is the only place where estimation touches the simulated cluster —
// every primitive builds rank programs, runs them, and returns *measured*
// times (sender-side, per MPIBlib). Estimators therefore see the virtual
// cluster exactly the way the paper's software tool [13] sees a physical
// one. Batched variants run several experiments on disjoint processor sets
// concurrently (single-switch property) and repeat the whole round until
// every experiment meets the confidence-interval criterion.
//
// Concurrency model: each repetition of a measured round runs on a
// SimSession reset to a seed derived from (cluster seed, round index,
// repetition index), which makes it observably a fresh session. The
// sessions come from a free list the experimenter owns: at most jobs
// sessions exist, a repetition takes one under a mutex, resets it, runs,
// and hands it back, so a session migrates between pool workers only
// through that hand-off. Repetitions are therefore independent and fan
// out across the util thread pool — with the hard guarantee that jobs = 1
// and jobs = N produce bit-identical measured times, repetition counts,
// and cost accounting (see util/parallel.hpp adaptive_reps for how
// speculative extra repetitions are discarded).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "estimate/schedule.hpp"
#include "mpib/measure_options.hpp"
#include "obs/metrics.hpp"
#include "util/bytes.hpp"
#include "vmpi/world.hpp"

namespace lmo::obs {
class FlightRecorder;
}  // namespace lmo::obs

namespace lmo::estimate {

/// Post-recovery quality of one experiment slot in the last measured round.
enum class SlotHealth : std::uint8_t {
  kOk = 0,        ///< every committed repetition was clean
  kDegraded = 1,  ///< faults occurred but enough clean samples survived
  kPoisoned = 2,  ///< too few clean samples even after retries — the mean
                  ///< is a best effort and must not be cached as truth
};

/// The experiment primitives the estimators consume — the boundary between
/// the analytical machinery and the platform. Implement this over real MPI
/// to estimate physical clusters; SimExperimenter implements it over the
/// simulated one.
class Experimenter {
 public:
  virtual ~Experimenter() = default;

  /// Per-slot health of the most recent *_round call, in slot order. The
  /// default empty vector means "no fault tracking: all slots ok";
  /// execute_plan quarantines the keys of poisoned slots instead of
  /// caching them.
  [[nodiscard]] virtual std::vector<SlotHealth> last_round_health() const {
    return {};
  }

  /// The flight recorder capturing this experimenter's post-mortem trail,
  /// or nullptr (the default) when none is attached. execute_plan records
  /// quarantine decisions through it.
  [[nodiscard]] virtual obs::FlightRecorder* flight_recorder() const {
    return nullptr;
  }

  [[nodiscard]] virtual int size() const = 0;

  /// Resource tree of the platform, when it has a non-trivial one:
  /// planners use it to stamp LCA levels and avoid packing experiments
  /// over a shared contended switch, and fits use it to aggregate
  /// per-level parameters. nullptr (the default) means "flat single
  /// switch" — also returned for degenerate trees, so that planning and
  /// stores stay byte-identical with the flat pipeline.
  [[nodiscard]] virtual const sim::Topology* topology() const {
    return nullptr;
  }

  /// Batched round-trips over disjoint pairs, run concurrently and
  /// repeated to the CI criterion; means in input order [s]. T_ij: i sends
  /// m_fwd to j, j replies with m_back; measured at i.
  [[nodiscard]] virtual std::vector<double> roundtrip_round(
      const std::vector<Pair>& pairs, Bytes m_fwd, Bytes m_back) = 0;

  /// Batched one-to-two experiments over disjoint triplets {root, a, b}:
  /// the root sends m to a then b, receives `reply` bytes from b then a
  /// (far child last-sent/first-received); measured at the root.
  [[nodiscard]] virtual std::vector<double> one_to_two_round(
      const std::vector<Triplet>& triplets, Bytes m, Bytes reply) = 0;

  /// LogP/PLogP send overhead o_s(m): duration of the blocking send inside
  /// a roundtrip with an empty reply.
  [[nodiscard]] virtual double send_overhead(int i, int j, Bytes m) = 0;

  /// LogP/PLogP receive overhead o_r(m): duration of the receive posted
  /// after a delay long enough for the reply to have fully arrived.
  [[nodiscard]] virtual double recv_overhead(int i, int j, Bytes m) = 0;

  /// Saturation: `count` back-to-back sends of m bytes; returns T/count —
  /// the gap g(m).
  [[nodiscard]] virtual double saturation_gap(int i, int j, Bytes m,
                                              int count = 48) = 0;

  /// Batched variants of the overhead/gap primitives over disjoint sender
  /// -> receiver pairs (single-switch property), means in input order. The
  /// defaults fall back to one scalar measurement per pair, so platform
  /// implementations only need the scalar primitives.
  [[nodiscard]] virtual std::vector<double> send_overhead_round(
      const std::vector<Pair>& pairs, Bytes m);
  [[nodiscard]] virtual std::vector<double> recv_overhead_round(
      const std::vector<Pair>& pairs, Bytes m);
  [[nodiscard]] virtual std::vector<double> saturation_gap_round(
      const std::vector<Pair>& pairs, Bytes m, int count = 48);

  /// One observation (no repetition) of the native linear scatter/gather
  /// — the preliminary irregularity sweeps of Section IV need raw
  /// samples, not means.
  [[nodiscard]] virtual double observe_scatter(int root, Bytes m) = 0;
  [[nodiscard]] virtual double observe_gather(int root, Bytes m) = 0;

  /// Total experiment invocations and platform time consumed so far (the
  /// estimation cost of Section IV).
  [[nodiscard]] virtual std::uint64_t runs() const = 0;
  [[nodiscard]] virtual SimTime cost() const = 0;

  /// Measured-round cursor: the index the next measured round would use to
  /// derive its repetition seeds. Sharded plan execution pins it so every
  /// shard derives the same seeds the single-process run would, making the
  /// merged measurements bit-identical. Platforms without deterministic
  /// seeding can ignore both (the defaults are no-ops).
  [[nodiscard]] virtual std::uint64_t round_cursor() const { return 0; }
  virtual void set_round_cursor(std::uint64_t) {}

  // Single-experiment conveniences.
  [[nodiscard]] double roundtrip(int i, int j, Bytes m_fwd, Bytes m_back) {
    return roundtrip_round({{i, j}}, m_fwd, m_back)[0];
  }
  [[nodiscard]] double one_to_two(int i, int j, int k, Bytes m, Bytes reply) {
    return one_to_two_round({{i, j, k}}, m, reply)[0];
  }
};

class SimExperimenter final : public Experimenter {
 public:
  /// `session` is the long-lived anchor simulation: single observations
  /// run on it (its RNG persisting across calls supplies fresh noise), and
  /// its shared_config() and seed() configure the pooled repetition
  /// sessions of the measured primitives. measure.jobs controls their
  /// parallelism and bounds the pool.
  explicit SimExperimenter(vmpi::SimSession& session,
                           mpib::MeasureOptions measure = {});

  [[nodiscard]] int size() const override { return session_->size(); }
  [[nodiscard]] const sim::Topology* topology() const override;
  [[nodiscard]] vmpi::SimSession& session() { return *session_; }
  [[nodiscard]] const mpib::MeasureOptions& measure_options() const {
    return measure_;
  }

  [[nodiscard]] std::vector<double> roundtrip_round(
      const std::vector<Pair>& pairs, Bytes m_fwd, Bytes m_back) override;

  [[nodiscard]] std::vector<double> one_to_two_round(
      const std::vector<Triplet>& triplets, Bytes m, Bytes reply) override;

  [[nodiscard]] double send_overhead(int i, int j, Bytes m) override;
  [[nodiscard]] double recv_overhead(int i, int j, Bytes m) override;
  [[nodiscard]] double saturation_gap(int i, int j, Bytes m,
                                      int count = 48) override;

  [[nodiscard]] std::vector<double> send_overhead_round(
      const std::vector<Pair>& pairs, Bytes m) override;
  [[nodiscard]] std::vector<double> recv_overhead_round(
      const std::vector<Pair>& pairs, Bytes m) override;
  [[nodiscard]] std::vector<double> saturation_gap_round(
      const std::vector<Pair>& pairs, Bytes m, int count = 48) override;

  [[nodiscard]] double observe_scatter(int root, Bytes m) override;
  [[nodiscard]] double observe_gather(int root, Bytes m) override;

  [[nodiscard]] std::vector<SlotHealth> last_round_health() const override {
    return last_health_;
  }

  [[nodiscard]] std::uint64_t round_cursor() const override {
    return round_seq_;
  }
  void set_round_cursor(std::uint64_t cursor) override { round_seq_ = cursor; }

  /// Attach (or detach, with nullptr) a flight recorder. The recorder also
  /// attaches to the anchor session (single observations record their sim
  /// events), and the measurement pipeline adds host-side round/fault/
  /// retry/timeout events stamped with wall nanoseconds — always from the
  /// serial sections, never from pool threads, so the single-owner ring
  /// contract holds at any --jobs level. When a round ends with an
  /// unhealthy slot the ring is snapshotted via mark_degraded().
  /// Measured values, repetition counts, and cost are unchanged by
  /// attaching a recorder (pinned by tests/test_fidelity.cpp).
  void set_flight_recorder(obs::FlightRecorder* recorder);
  [[nodiscard]] obs::FlightRecorder* flight_recorder() const override {
    return flight_;
  }

  /// One observation of an SPMD collective's completion time across all
  /// ranks [s] — the "execution time of the collective" the figures plot.
  /// Runs on the anchor session.
  [[nodiscard]] double observe_global(
      const std::function<vmpi::Task(vmpi::Comm&)>& body);

  /// `reps` independent global observations, each on a pooled session
  /// reset to its own deterministic per-repetition seed, executed
  /// concurrently (measure_options().jobs); samples in repetition order,
  /// independent of the degree of parallelism. `body` must be safe to
  /// invoke concurrently (value-capturing lambdas are).
  [[nodiscard]] std::vector<double> observe_global_samples(
      const std::function<vmpi::Task(vmpi::Comm&)>& body, int reps);

  /// Total number of simulation runs issued through this experimenter
  /// (anchor-session runs plus committed pooled-session repetitions).
  [[nodiscard]] std::uint64_t runs() const override {
    return session_->total_runs() + session_runs_;
  }
  /// Total simulated time consumed — the estimation cost of Section IV.
  [[nodiscard]] SimTime cost() const override {
    return session_->accumulated_time() + session_cost_;
  }

 private:
  struct FaultTally;
  struct Settled;
  class Lease;

  /// Run one round of concurrent experiments (writing elapsed seconds into
  /// slots) repeatedly until all slots' CI criteria hold. Each repetition
  /// runs on a pooled session reset to its seed; repetitions fan out across
  /// the thread pool.
  /// `participants[e]` lists the processors experiment slot `e` occupies —
  /// fault injection targets per-node slowdown episodes through it.
  /// Recovery always runs and is inert when faults are off: dropped/hung/
  /// spiked repetitions are classified by a timeout derived from the
  /// round's own robust location estimate, retried in bounded
  /// deterministic waves, and MAD-trimmed before the mean is formed;
  /// per-slot outcomes land in last_health_.
  [[nodiscard]] std::vector<double> measure_round(
      const std::function<std::vector<vmpi::RankProgram>(
          std::vector<double>& slots)>& build,
      const std::vector<std::vector<int>>& participants);

  /// Run one single observation on the anchor session through settle();
  /// every retry adds one retry backoff to the cost. `obs_index`
  /// identifies the observation in the dedicated fault stream.
  [[nodiscard]] double recover_observation(
      const std::function<double()>& run_once, std::uint64_t obs_index);

  /// Attempt-until-arrived loop of single observations and of each
  /// observe_global_samples repetition: inject faults into `run(attempt)`
  /// at (stream, index, attempt) for attempt = 0..kMaxRetries until a
  /// result arrives; when every attempt drops, settle on hang_delay_s.
  /// Reads only measure_, so repetitions may call it concurrently.
  [[nodiscard]] Settled settle(
      std::uint64_t stream, std::uint64_t index, double scale,
      const std::function<double(int attempt)>& run) const;
  /// Add a tally to the fault.* counters.
  void publish_faults(const FaultTally& faults);
  /// Simulated cost of `retries` retry backoffs.
  [[nodiscard]] SimTime backoff(std::uint64_t retries) const;

  [[nodiscard]] int jobs() const;
  [[nodiscard]] std::uint64_t next_round() { return round_seq_++; }

  vmpi::SimSession* session_;
  mpib::MeasureOptions measure_;
  /// Monotonic index of measured rounds — the first seed-derivation key.
  std::uint64_t round_seq_ = 0;
  /// Monotonic index of fault-aware single observations (dedicated fault
  /// stream decorrelated from measured rounds).
  std::uint64_t obs_fault_seq_ = 0;
  /// Pooled repetition sessions: the idle ones, and how many exist (idle +
  /// on loan). At most jobs() exist; a repetition that finds none idle
  /// builds one below that bound, else waits for one to come back.
  struct SessionPool {
    std::mutex mu;
    std::condition_variable returned;
    std::vector<std::unique_ptr<vmpi::SimSession>> idle;
    int alive = 0;  ///< idle + on loan
  };
  SessionPool pool_;
  /// Runs/cost committed by pooled per-repetition sessions (speculative
  /// repetitions that the stopping rule discarded are not counted, so the
  /// totals match a serial run exactly).
  std::uint64_t session_runs_ = 0;
  SimTime session_cost_;
  /// Per-slot outcome of the most recent measured round.
  std::vector<SlotHealth> last_health_;
  /// Borrowed flight recorder (null = off); see set_flight_recorder.
  obs::FlightRecorder* flight_ = nullptr;

  // Metric handles, resolved once at construction. Only *committed*
  // repetitions publish session metrics, so everything except
  // reps_discarded_ is independent of the --jobs level.
  obs::Counter rounds_;
  obs::Counter reps_committed_;
  obs::Counter reps_discarded_;
  obs::Counter observe_reps_;
  obs::Histogram ci_rel_err_;
  // Fault/recovery accounting (committed repetitions and retry waves only,
  // so counts are independent of the --jobs level).
  obs::Counter fault_spikes_;
  obs::Counter fault_drops_;
  obs::Counter fault_hangs_;
  obs::Counter fault_slow_;
  obs::Counter recovery_timeouts_;
  obs::Counter recovery_trimmed_;
  obs::Counter recovery_retries_;
  obs::Counter recovery_waves_;
  obs::Counter recovery_poisoned_;
};

}  // namespace lmo::estimate
