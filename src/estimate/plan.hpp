// Declarative experiment plans (paper Section IV, taken seriously).
//
// The paper's estimation procedure already reuses one experiment set for
// several unknowns; this layer lifts that insight above the single
// estimator. Every estimator *declares* the experiments it needs as
// ExperimentKeys instead of driving the Experimenter imperatively; a
// PlanBuilder deduplicates the requests across estimators (Hockney's
// round-trips are LMO's round-trips are PLogP's RTT(0)) and packs them
// into rounds of resource-disjoint experiments (the single-switch
// property, plus no shared contended switch on a resource tree).
// execute_plan() then measures only the keys a MeasurementStore does not
// already hold, and the fits read measured summaries back from the store —
// so one measurement campaign serves all five models, and a saved store
// can be re-fit offline.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "estimate/schedule.hpp"
#include "obs/json.hpp"
#include "simnet/topology.hpp"
#include "util/bytes.hpp"

namespace lmo::estimate {

class Experimenter;
class MeasurementStore;

/// The experiment primitives a plan can request — one enumerator per
/// Experimenter measurement primitive plus the keyed single observations
/// the empirical estimator consumes.
enum class ExperimentKind : std::uint8_t {
  kRoundtrip = 0,      ///< a <-> b round-trip, measured at a
  kOneToTwo = 1,       ///< a -> {b, c} one-to-two, measured at the root a
  kSendOverhead = 2,   ///< o_s at a toward b
  kRecvOverhead = 3,   ///< o_r at a from b
  kSaturationGap = 4,  ///< gap g(m): `count` back-to-back sends a -> b
  kScatterObservation = 5,  ///< one raw linear-scatter sample (rep = count)
  kGatherObservation = 6,   ///< one raw linear-gather sample (rep = count)
};

[[nodiscard]] const char* kind_name(ExperimentKind k);

/// Identity of one experiment: kind, participants, and sizes. Keys order
/// deterministically (kind, nodes, sizes), serialize through obs::Json,
/// and act as the MeasurementStore's lookup key.
struct ExperimentKey {
  ExperimentKind kind = ExperimentKind::kRoundtrip;
  int a = 0;       ///< measuring processor (root/sender)
  int b = 0;       ///< peer (unused -1 for observation kinds)
  int c = -1;      ///< second peer (one-to-two only), else -1
  Bytes m_fwd = 0;  ///< payload size
  Bytes m_back = 0; ///< reply size (roundtrip/one-to-two), else 0
  int count = 0;   ///< saturation send count / observation repetition index

  /// LCA level of the participants in the cluster's resource tree —
  /// stamped by a topology-aware PlanBuilder, 0 when unknown/flat.
  /// Annotation only: NOT part of the key's identity (tie/ordering/JSON
  /// matching), so stores written before this field existed still match
  /// and cross-estimator dedup is unaffected.
  int level = 0;

  [[nodiscard]] static ExperimentKey roundtrip(int i, int j, Bytes fwd,
                                               Bytes back);
  [[nodiscard]] static ExperimentKey one_to_two(const Triplet& t, Bytes m,
                                                Bytes reply);
  [[nodiscard]] static ExperimentKey send_overhead(int i, int j, Bytes m);
  [[nodiscard]] static ExperimentKey recv_overhead(int i, int j, Bytes m);
  [[nodiscard]] static ExperimentKey saturation_gap(int i, int j, Bytes m,
                                                    int count);
  [[nodiscard]] static ExperimentKey scatter_observation(int root, Bytes m,
                                                         int rep);
  [[nodiscard]] static ExperimentKey gather_observation(int root, Bytes m,
                                                        int rep);

  [[nodiscard]] auto tie() const {
    return std::tie(kind, a, b, c, m_fwd, m_back, count);
  }
  friend bool operator<(const ExperimentKey& x, const ExperimentKey& y) {
    return x.tie() < y.tie();
  }
  friend bool operator==(const ExperimentKey& x, const ExperimentKey& y) {
    return x.tie() == y.tie();
  }
  friend bool operator!=(const ExperimentKey& x, const ExperimentKey& y) {
    return !(x == y);
  }

  /// Human-readable form for error messages ("roundtrip 3<->7 m=32768/32768").
  [[nodiscard]] std::string describe() const;

  /// {"kind": "roundtrip", "a": 3, "b": 7, "m": 32768, "reply": 32768, ...}
  /// — only the fields the kind uses are emitted — with room for `spare`
  /// more members the caller appends.
  [[nodiscard]] obs::Json to_json(std::size_t spare = 0) const;
  /// Throws lmo::Error naming the field: ranks must lie in
  /// [0, sim::kMaxRanks), sizes and counts must be >= 0.
  [[nodiscard]] static ExperimentKey from_json(const obs::JsonField& j);
  /// A standalone key document ("experiment key: field 'a' ...").
  [[nodiscard]] static ExperimentKey from_json(const obs::Json& j);

  /// Every processor the experiment occupies.
  [[nodiscard]] std::vector<int> participants() const;
};

/// One batch of resource-disjoint experiments of the same kind and sizes
/// — executable as a single concurrent measured round.
struct PlannedRound {
  ExperimentKind kind = ExperimentKind::kRoundtrip;
  Bytes m_fwd = 0;
  Bytes m_back = 0;
  int count = 0;
  std::vector<ExperimentKey> keys;
};

struct ExperimentPlan {
  std::vector<PlannedRound> rounds;
  std::size_t requested = 0;     ///< require() calls that produced this plan
  std::size_t deduplicated = 0;  ///< requests collapsed onto an earlier key

  [[nodiscard]] std::size_t experiments() const;
};

/// Collects experiment requirements from any number of estimators,
/// deduplicates them, and packs them into disjoint rounds. Deterministic:
/// the plan depends only on the set of keys, never on request order.
class PlanBuilder {
 public:
  PlanBuilder();

  /// Topology-aware builder: requirements get their LCA level stamped, and
  /// build() packs concurrently only experiments whose paths are disjoint
  /// in the resource tree (no shared contended switch). A null, empty, or
  /// contention-free topology behaves exactly like the default builder —
  /// degenerate trees produce identical plans. `topo` must outlive the
  /// builder.
  explicit PlanBuilder(const sim::Topology* topo);

  /// Record one requirement; duplicate keys collapse at build().
  void require(const ExperimentKey& key);

  [[nodiscard]] std::size_t requests() const { return requests_; }

  /// Pack into rounds. `parallel` batches resource-disjoint experiments of
  /// the same kind and sizes together (first-fit over the sorted key
  /// order, so all pairs of n nodes take 2^ceil(log2 n) - 1 rounds, not
  /// the n - 1 of a 1-factorization); false yields one experiment per
  /// round (the Section-IV serial baseline). Observation kinds always run
  /// one at a time (they sample the anchor session's live noise stream).
  /// Each key holds its participants and, on a contended topology, the
  /// contended switches on its paths, so experiments sharing either never
  /// share a round; first-fit reads per-resource bitmaps over rounds
  /// (`plan.conflict_probes` counts the bitmap words read).
  [[nodiscard]] ExperimentPlan build(bool parallel = true) const;

 private:
  /// The requested keys sorted, duplicates dropped (first request wins).
  [[nodiscard]] std::vector<ExperimentKey> sorted_unique() const;

  std::vector<ExperimentKey> keys_;  ///< every request, level stamped
  std::size_t requests_ = 0;
  const sim::Topology* topo_ = nullptr;
};

struct ExecuteStats {
  std::size_t measured = 0;  ///< keys actually run on the platform
  std::size_t cached = 0;    ///< keys served by the store
  std::size_t rounds = 0;    ///< measured rounds issued
};

/// Which slice of a plan's measured rounds this process executes. Rounds
/// are numbered by a work ordinal `w` over the plan's deterministic round
/// order (observation rounds excluded — they run in every shard, since
/// they sample the anchor session whose state measured rounds never
/// touch); shard i of k runs exactly the rounds with w % count == index.
/// The slices partition the work and are order-independent: merging the k
/// shard stores reconstructs the single-process store bit-exactly, because
/// each executed round pins the experimenter's round cursor to the ordinal
/// the single-process run would have reached.
struct ShardSpec {
  int index = 0;
  int count = 1;

  [[nodiscard]] bool active() const { return count > 1; }

  /// Parse "i/k" (e.g. "0/4"): 0 <= i < k, k >= 1. Throws lmo::Error
  /// naming the malformed value otherwise.
  [[nodiscard]] static ShardSpec parse(const std::string& text);
};

/// True when `store` holds a clean value for every key of `rounds` (a
/// whole stage, or one round of it). A stage the store holds whole needs
/// no more measuring; quarantined keys count as missing.
[[nodiscard]] bool store_holds(const MeasurementStore& store,
                               std::span<const PlannedRound> rounds);

/// Run every experiment in the plan that `store` does not already hold,
/// inserting the measured means; keys already present are skipped (their
/// cached value is authoritative — re-measuring would perturb nothing but
/// would cost platform time). Returns what was measured vs served.
///
/// With an active `shard`, only this shard's slice of the measured rounds
/// executes (see ShardSpec); the experimenter's round cursor is pinned
/// before every executed round and advanced past the whole plan on return,
/// so per-round seeds match the single-process run. The default (inactive)
/// shard never touches the cursor — unsharded execution is byte-identical
/// to what it was before sharding existed.
ExecuteStats execute_plan(const ExperimentPlan& plan, Experimenter& ex,
                          MeasurementStore& store,
                          const ShardSpec& shard = {});

}  // namespace lmo::estimate
