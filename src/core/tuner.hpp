// Model-driven collective tuning — the end-to-end application of the LMO
// model (the paper's software tool [13] and the HeteroMPI optimization
// [10]): given the estimated point-to-point parameters and the empirical
// gather band, decide per operation and message size which algorithm of
// the zoo to run, with which segment size and processor-to-tree mapping.
//
// decide() is pure (model-only); the caller executes the decision through
// coll::run_decision on a vmpi::SimSession — every candidate the tuner
// prices is executable with exactly the parameters it priced (algorithm,
// segment, mapping), which is what lets bench_ext_tuner replay decisions
// against simulated ground truth and report regret.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/empirical.hpp"
#include "core/lmo_model.hpp"
#include "core/optimize.hpp"
#include "core/predictions.hpp"
#include "obs/json.hpp"
#include "util/bytes.hpp"

namespace lmo::core {

[[nodiscard]] const char* collective_name(CollectiveKind kind);
/// Inverse of collective_name; throws lmo::Error naming the valid ops.
[[nodiscard]] CollectiveKind parse_collective(const std::string& name);

/// The collective algorithm zoo. kLinear is the flat tree (the paper's
/// native algorithms); the tree shapes follow Barchet-Estefanel & Mounié's
/// intra-cluster zoo; kScatterAllgather is the composite broadcast
/// (binomial scatter of m/n blocks + ring allgather).
enum class AlgorithmId {
  kLinear,
  kBinomial,
  kChain,
  kBinaryTree,
  kScatterAllgather,  ///< bcast only
};

[[nodiscard]] const char* algorithm_name(AlgorithmId id);
/// Inverse of algorithm_name; throws lmo::Error naming the valid names.
[[nodiscard]] AlgorithmId parse_algorithm(const std::string& name);

/// All AlgorithmId values, for exhaustive sweeps and tests.
[[nodiscard]] const std::vector<AlgorithmId>& all_algorithms();

struct TunedDecision {
  CollectiveKind kind = CollectiveKind::kScatter;
  AlgorithmId algorithm = AlgorithmId::kLinear;
  int root = 0;
  Bytes message = 0;
  /// Non-empty: use this processor-to-virtual-rank mapping (tree shapes).
  std::vector<int> mapping;
  /// > 0: chunk the message/block into segments of at most this size —
  /// a pipelined series of the base algorithm (generalizes split_gather:
  /// kLinear gather with a segment IS the Fig. 7 split plan).
  Bytes segment = 0;
  double predicted_seconds = 0.0;

  [[nodiscard]] std::string describe() const;
  /// Wire form for the serving protocol and run reports: {"op",
  /// "algorithm", "root", "message", "segment", "mapping", "describe",
  /// "predicted_seconds"}.
  [[nodiscard]] obs::Json to_json() const;
};

/// The (algorithm, segment) search tries pipelined tree collectives at
/// the fixed segment sizes 2, 8 and 32 KB (tuner.cpp's kSegmentCandidates);
/// only those below the message size apply.
struct TunerOptions {
  /// Optional hierarchical topology (not owned; must outlive the Tuner).
  /// When it constrains concurrency, predictions price contended shared
  /// segments (memory bus, oversubscribed uplink) and every algorithm
  /// routes through the schedule evaluators — the closed forms are blind
  /// to cross-transfer contention.
  const sim::Topology* topology = nullptr;
};

class Tuner {
 public:
  /// Throws lmo::Error naming the entry unless every C_i, t_i, L_ij and
  /// 1/beta_ij is finite and >= 0 (decide()'s pruning relies on it).
  Tuner(LmoParams params, GatherEmpirical gather_empirical,
        TunerOptions options = {});

  [[nodiscard]] const LmoParams& params() const { return params_; }

  /// Every (algorithm, segment, mapping) candidate the tuner prices for
  /// one collective invocation, each with its predicted cost — the search
  /// space decide() minimizes over and the validation harness replays.
  /// Candidates come in a fixed order: linear, binomial, the Fig. 7 split
  /// gather (in the band), the binomial with a climbed mapping, then chain
  /// and binary tree (each unsegmented, then per segment), the segmented
  /// linear and binomial, and the composite broadcast. candidates(),
  /// decide() and price() throw lmo::Error naming the root, or the
  /// negative size, and the processor count when the invocation is out of
  /// range.
  [[nodiscard]] std::vector<TunedDecision> candidates(CollectiveKind kind,
                                                      int root,
                                                      Bytes m) const;

  /// Choose the best plan for one collective invocation: the candidate
  /// with the least (predicted_seconds, position in candidates()), bit for
  /// bit. Candidates are priced best first: those not priced by a tree
  /// replay in enumeration order, then the replayed trees by ascending
  /// ScheduleSet::tree_lower_bound, until the next bound exceeds the best
  /// price so far; that candidate and every later one are skipped
  /// unpriced. Every replay runs with the best price so far as its cutoff,
  /// stopping once it has provably lost (one `tuner.replays_cut` each).
  /// The mapping climb runs last, and only when its floor —
  /// ScheduleSet::binomial_floor at every table's minimum, below the
  /// binomial's price under any mapping — does not exceed the best price
  /// of the others; its swaps are priced with the climb's best as their
  /// cutoff. Each skipped candidate counts one `tuner.pruned`. Throws
  /// lmo::Error (check_price) when the decided price is not finite.
  [[nodiscard]] TunedDecision decide(CollectiveKind kind, int root,
                                     Bytes m) const;

  /// Price an externally supplied decision (e.g. one parsed off the wire)
  /// with this tuner's model — the same evaluator candidates() uses, so a
  /// replayed decision re-prices to the bit. Throws lmo::Error naming the
  /// problem for an out-of-range root, a negative size, a mapping that
  /// is not a permutation of the ranks (trees::invert_mapping), or a price
  /// that is not finite (check_price).
  [[nodiscard]] double price(const TunedDecision& d) const;

 private:
  /// Throws lmo::Error unless 0 <= root < params_.size() and m >= 0.
  void check_invocation(int root, Bytes m) const;

  /// Throws lmo::Error naming the op, the size and the model's largest
  /// parameter unless `seconds` is finite: finite terms whose sums
  /// overflow.
  void check_price(double seconds, CollectiveKind kind, Bytes m) const;

  /// candidates() unpriced, in order, with the mapping climb deferred: the
  /// mapped-binomial candidate holds its position with an empty mapping,
  /// and its index is written to `mapped`.
  [[nodiscard]] std::vector<TunedDecision> enumerate(CollectiveKind kind,
                                                     int root, Bytes m,
                                                     std::size_t& mapped) const;

  /// Fills the mapped-binomial candidate `d` in: hill-climbs its mapping
  /// (pricing the swaps in `scratch`, each replay cut at the climb's best
  /// so far) and sets its price. Returns the climb's cost-oracle calls.
  std::uint64_t climb(TunedDecision& d, ScheduleScratch& scratch) const;

  /// True when predict() prices (kind, id, segment) by replaying a tree
  /// schedule — the candidates ScheduleSet::tree_lower_bound bounds.
  [[nodiscard]] bool replays_tree(CollectiveKind kind, AlgorithmId id,
                                  Bytes segment) const;

  /// The price of one candidate; replays stop at `cutoff` and return +inf
  /// (ScheduleSet::tree_time), the closed forms ignore it.
  [[nodiscard]] double predict(CollectiveKind kind, AlgorithmId id, int root,
                               Bytes m, const std::vector<int>& mapping,
                               Bytes segment, ScheduleScratch& scratch,
                               double cutoff = kNoCutoff) const;

  /// The replay workspace of every call. candidates(), decide() and
  /// price() take it with try_lock (Lease, tuner.cpp), and a call that
  /// finds it held evaluates in a scratch of its own. So a warm call grows
  /// no replay buffer, and a const Tuner shared across threads never
  /// blocks. A copy starts empty.
  struct SharedScratch {
    SharedScratch() = default;
    SharedScratch(const SharedScratch&) {}
    SharedScratch& operator=(const SharedScratch&) { return *this; }
    std::mutex mutex;
    ScheduleScratch scratch;
  };
  class Lease;

  LmoParams params_;
  GatherEmpirical gather_empirical_;
  TunerOptions options_;
  /// Every tree schedule of params_.size() ranks under options_.topology,
  /// compiled once.
  ScheduleSet schedules_;
  /// Every table's minimum over params_: the terms of the climb's floor.
  UniformLmo floor_terms_;
  mutable SharedScratch scratch_;
};

}  // namespace lmo::core
