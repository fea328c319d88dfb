#include "core/tuner.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "trees/mapping.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace lmo::core {

const char* collective_name(CollectiveKind kind) {
  switch (kind) {
    case CollectiveKind::kScatter:
      return "scatter";
    case CollectiveKind::kGather:
      return "gather";
    case CollectiveKind::kBcast:
      return "bcast";
    case CollectiveKind::kReduce:
      return "reduce";
  }
  return "?";
}

CollectiveKind parse_collective(const std::string& name) {
  for (const CollectiveKind kind :
       {CollectiveKind::kScatter, CollectiveKind::kGather,
        CollectiveKind::kBcast, CollectiveKind::kReduce})
    if (name == collective_name(kind)) return kind;
  throw Error("unknown collective '" + name +
              "' (expected scatter, gather, bcast, or reduce)");
}

const char* algorithm_name(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kLinear:
      return "linear";
    case AlgorithmId::kBinomial:
      return "binomial";
    case AlgorithmId::kChain:
      return "chain";
    case AlgorithmId::kBinaryTree:
      return "binary-tree";
    case AlgorithmId::kScatterAllgather:
      return "scatter-allgather";
  }
  return "?";
}

AlgorithmId parse_algorithm(const std::string& name) {
  for (const AlgorithmId id : all_algorithms())
    if (name == algorithm_name(id)) return id;
  throw Error("unknown algorithm '" + name +
              "' (expected linear, binomial, chain, binary-tree, or "
              "scatter-allgather)");
}

const std::vector<AlgorithmId>& all_algorithms() {
  static const std::vector<AlgorithmId> kAll = {
      AlgorithmId::kLinear, AlgorithmId::kBinomial, AlgorithmId::kChain,
      AlgorithmId::kBinaryTree, AlgorithmId::kScatterAllgather};
  return kAll;
}

std::string TunedDecision::describe() const {
  std::string out = algorithm_name(algorithm);
  if (!mapping.empty()) out += "+mapping";
  if (segment > 0) {
    // A segmented linear gather IS the Fig. 7 split plan; keep its name.
    const bool is_split = kind == CollectiveKind::kGather &&
                          algorithm == AlgorithmId::kLinear;
    out += (is_split ? " split@" : " seg@") + format_bytes(segment);
  }
  return out;
}

obs::Json TunedDecision::to_json() const {
  obs::Json j = obs::Json::object();
  j["op"] = collective_name(kind);
  j["algorithm"] = algorithm_name(algorithm);
  j["root"] = root;
  j["message"] = double(message);
  j["segment"] = double(segment);
  obs::Json map = obs::Json::array();
  for (const int rank : mapping) map.push_back(rank);
  j["mapping"] = std::move(map);
  j["describe"] = describe();
  j["predicted_seconds"] = predicted_seconds;
  return j;
}

namespace {
/// Segment sizes the (algorithm, segment) search tries for pipelined tree
/// collectives; only those below the message size apply.
constexpr std::array<Bytes, 3> kSegmentCandidates = {2 * 1024, 8 * 1024,
                                                     32 * 1024};

/// "table[i] = v", or "table[i][j] = v" when j >= 0.
std::string term_name(double v, const char* table, int i, int j = -1) {
  std::string what = std::string(table) + "[" + std::to_string(i) + "]";
  if (j >= 0) what += "[" + std::to_string(j) + "]";
  char value[32];
  std::snprintf(value, sizeof value, "%g", v);
  return what + " = " + value;
}

/// Throws unless table[i] (or table[i][j], when j >= 0) = v is finite and
/// >= 0.
void check_term(double v, const char* table, int i, int j = -1) {
  if (std::isfinite(v) && v >= 0.0) return;
  throw Error("tuner: model parameter " + term_name(v, table, i, j) +
              " must be finite and >= 0");
}

/// Publishes one call's work: messages replayed, candidates pruned,
/// replays stopped at their cutoff and cost-oracle calls of the mapping
/// climb.
void publish(const ScheduleScratch& scratch, std::uint64_t pruned,
             std::uint64_t climb_evals) {
  static obs::Counter sends =
      obs::Registry::global().counter("tuner.replay_sends");
  static obs::Counter skipped = obs::Registry::global().counter("tuner.pruned");
  static obs::Counter cut =
      obs::Registry::global().counter("tuner.replays_cut");
  static obs::Counter evals =
      obs::Registry::global().counter("tuner.climb_evals");
  sends.inc(scratch.sends);
  skipped.inc(pruned);
  cut.inc(scratch.cuts);
  evals.inc(climb_evals);
}
}  // namespace

Tuner::Tuner(LmoParams params, GatherEmpirical gather_empirical,
             TunerOptions options)
    : params_(std::move(params)),
      gather_empirical_(gather_empirical),
      options_(std::move(options)),
      schedules_(params_.size(), options_.topology) {
  params_.validate();
  const int n = params_.size();
  UniformLmo& lo = floor_terms_;
  lo.C = params_.C[0];
  lo.t = params_.t[0];
  lo.L = params_.L(0, 1);
  lo.inv_beta = params_.inv_beta(0, 1);
  for (int i = 0; i < n; ++i) {
    check_term(params_.C[std::size_t(i)], "C", i);
    check_term(params_.t[std::size_t(i)], "t", i);
    lo.C = std::min(lo.C, params_.C[std::size_t(i)]);
    lo.t = std::min(lo.t, params_.t[std::size_t(i)]);
    for (int j = 0; j < n; ++j) {
      if (j == i) continue;
      check_term(params_.L(i, j), "L", i, j);
      check_term(params_.inv_beta(i, j), "inv_beta", i, j);
      lo.L = std::min(lo.L, params_.L(i, j));
      lo.inv_beta = std::min(lo.inv_beta, params_.inv_beta(i, j));
    }
  }
}

namespace {
trees::TreeKind shape_of(AlgorithmId id) {
  switch (id) {
    case AlgorithmId::kLinear:
      return trees::TreeKind::kFlat;
    case AlgorithmId::kBinomial:
      return trees::TreeKind::kBinomial;
    case AlgorithmId::kChain:
      return trees::TreeKind::kChain;
    case AlgorithmId::kBinaryTree:
      return trees::TreeKind::kBinary;
    case AlgorithmId::kScatterAllgather:
      break;
  }
  LMO_CHECK_MSG(false, "algorithm has no tree shape");
  return trees::TreeKind::kFlat;
}

bool contends(const sim::Topology* topo) {
  return topo && !topo->empty() && topo->constrains_concurrency();
}
}  // namespace

/// The shared scratch while this lease holds its mutex, else a call-local
/// one; its work counts start at zero either way.
class Tuner::Lease {
 public:
  explicit Lease(SharedScratch& shared)
      : lock_(shared.mutex, std::try_to_lock),
        scratch_(lock_.owns_lock() ? &shared.scratch : &local_) {
    scratch_->sends = 0;
    scratch_->cuts = 0;
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  [[nodiscard]] ScheduleScratch& get() { return *scratch_; }

 private:
  std::unique_lock<std::mutex> lock_;
  ScheduleScratch local_;
  ScheduleScratch* scratch_;
};

bool Tuner::replays_tree(CollectiveKind kind, AlgorithmId id,
                         Bytes segment) const {
  if (id == AlgorithmId::kScatterAllgather) return false;
  if (segment > 0) return true;
  // Unsegmented linear gather carries the empirical band (see predict).
  if (id == AlgorithmId::kLinear && kind == CollectiveKind::kGather)
    return false;
  // Unsegmented linear and binomial keep the paper's closed forms on flat
  // clusters; contended topologies route through the schedule evaluator,
  // which the closed forms cannot price (cross-transfer contention).
  return contends(options_.topology) ||
         (id != AlgorithmId::kLinear && id != AlgorithmId::kBinomial);
}

double Tuner::predict(CollectiveKind kind, AlgorithmId id, int root, Bytes m,
                      const std::vector<int>& mapping, Bytes segment,
                      ScheduleScratch& scratch, double cutoff) const {
  // The schedule evaluator prices the exact chunked schedule coll::tree_*
  // executes.
  if (replays_tree(kind, id, segment))
    return schedules_.tree_time(params_, shape_of(id), kind, root, m, mapping,
                                segment, scratch, cutoff);
  if (id == AlgorithmId::kScatterAllgather) {
    LMO_CHECK_MSG(kind == CollectiveKind::kBcast,
                  "scatter+allgather is a broadcast algorithm");
    return schedules_.scatter_allgather_bcast_time(params_, root, m, scratch,
                                                   cutoff);
  }
  // The empirical gather band rides on top of whichever base the topology
  // calls for: the closed form on flat clusters, the schedule evaluator's
  // contention-aware base otherwise. The large regime's serialized-sum
  // branch always keeps the closed form — that behavior is a protocol
  // switch, not a wire effect.
  if (id == AlgorithmId::kLinear && kind == CollectiveKind::kGather) {
    const GatherPrediction g =
        linear_gather_time(params_, gather_empirical_, root, m);
    if (!contends(options_.topology) || g.regime == GatherRegime::kLarge)
      return g.expected();
    return schedules_.tree_time(params_, trees::TreeKind::kFlat,
                                CollectiveKind::kGather, root, m, mapping, 0,
                                scratch) +
           g.expected_escalation;
  }
  // What remains is unsegmented linear or binomial on a flat cluster.
  if (id == AlgorithmId::kBinomial)
    return schedules_.binomial_closed_time(params_, kind, root, m, mapping,
                                           scratch);
  switch (kind) {
    case CollectiveKind::kScatter:
      return linear_scatter_time(params_, root, m);
    case CollectiveKind::kGather:
      break;  // handled above
    case CollectiveKind::kBcast:
      return linear_bcast_time(params_, root, m);
    case CollectiveKind::kReduce:
      return linear_reduce_time(params_, root, m);
  }
  LMO_CHECK_MSG(false, "unreachable prediction branch");
  return 0.0;
}

void Tuner::check_price(double seconds, CollectiveKind kind, Bytes m) const {
  if (std::isfinite(seconds)) return;
  // Every term is finite, so the sums overflowed: name the largest term.
  std::string largest = term_name(params_.C[0], "C", 0);
  double top = params_.C[0];
  auto see = [&](double v, const char* table, int i, int j = -1) {
    if (v <= top) return;
    top = v;
    largest = term_name(v, table, i, j);
  };
  for (int i = 0; i < params_.size(); ++i) {
    see(params_.C[std::size_t(i)], "C", i);
    see(params_.t[std::size_t(i)], "t", i);
    for (int j = 0; j < params_.size(); ++j) {
      if (j == i) continue;
      see(params_.L(i, j), "L", i, j);
      see(params_.inv_beta(i, j), "inv_beta", i, j);
    }
  }
  throw Error(std::string("tuner: the ") + collective_name(kind) + " of " +
              std::to_string(m) +
              " bytes has no finite price: the model's parameters overflow "
              "(largest " +
              largest + ")");
}

void Tuner::check_invocation(int root, Bytes m) const {
  const bool bad_root = root < 0 || root >= params_.size();
  if (!bad_root && m >= 0) return;
  throw Error("tuner: " +
              (bad_root ? "root " + std::to_string(root) + " is out of range"
                        : "message size " + std::to_string(m) +
                              " is negative") +
              " (the model has " + std::to_string(params_.size()) +
              " processors)");
}

std::vector<TunedDecision> Tuner::enumerate(CollectiveKind kind, int root,
                                            Bytes m,
                                            std::size_t& mapped) const {
  check_invocation(root, m);
  std::vector<TunedDecision> out;
  // Every candidate below at most once: linear, binomial, the split
  // gather, the mapped binomial, chain and binary tree unsegmented, four
  // per segment and the composite broadcast.
  out.reserve(7 + 4 * kSegmentCandidates.size());
  auto add = [&](AlgorithmId id, std::vector<int> mapping, Bytes segment) {
    for (const TunedDecision& d : out)
      if (d.algorithm == id && d.segment == segment &&
          d.mapping == mapping)
        return;  // deduplicate (e.g. split chunk == a grid segment)
    TunedDecision d;
    d.kind = kind;
    d.algorithm = id;
    d.root = root;
    d.message = m;
    d.mapping = std::move(mapping);
    d.segment = segment;
    out.push_back(std::move(d));
  };

  // The paper's native pair first: ties go to the simplest algorithm.
  add(AlgorithmId::kLinear, {}, 0);
  add(AlgorithmId::kBinomial, {}, 0);

  // Fig. 7 split plan: a segmented linear gather chunked at the empirical
  // band edge m1 (the split_gather series).
  if (kind == CollectiveKind::kGather) {
    const auto plan =
        plan_optimized_gather(params_, gather_empirical_, root, m);
    if (plan.split) add(AlgorithmId::kLinear, {}, plan.chunk);
  }

  // Binomial with an LMO-optimized processor-to-tree mapping: a copy of
  // the unsegmented binomial whose mapping the caller climbs. A climbed
  // mapping is a full permutation, unlike every other candidate's, so the
  // slot needs no deduplication.
  mapped = out.size();
  out.push_back(TunedDecision(out[1]));

  // The tree zoo with segmented pipelining.
  for (const AlgorithmId id : {AlgorithmId::kChain, AlgorithmId::kBinaryTree}) {
    add(id, {}, 0);
    for (const Bytes seg : kSegmentCandidates)
      if (seg < m) add(id, {}, seg);
  }
  for (const Bytes seg : kSegmentCandidates) {
    if (seg < m) {
      add(AlgorithmId::kLinear, {}, seg);
      add(AlgorithmId::kBinomial, {}, seg);
    }
  }
  if (kind == CollectiveKind::kBcast)
    add(AlgorithmId::kScatterAllgather, {}, 0);
  return out;
}

std::uint64_t Tuner::climb(TunedDecision& d, ScheduleScratch& scratch) const {
  const trees::MappingResult result = trees::optimize_mapping(
      params_.size(), d.root,
      [&](const std::vector<int>& mapping, double cutoff) {
        return predict(d.kind, AlgorithmId::kBinomial, d.root, d.message,
                       mapping, 0, scratch, cutoff);
      });
  d.mapping = result.mapping;
  // The climb's cost of its final mapping is predict()'s price of it.
  d.predicted_seconds = result.cost;
  return std::uint64_t(result.evaluations);
}

std::vector<TunedDecision> Tuner::candidates(CollectiveKind kind, int root,
                                             Bytes m) const {
  // One workspace for every evaluation of this call: the mapping climb and
  // the zoo replay into the same buffers.
  Lease lease(scratch_);
  ScheduleScratch& scratch = lease.get();
  std::size_t mapped = 0;
  std::vector<TunedDecision> out = enumerate(kind, root, m, mapped);
  const std::uint64_t evals = climb(out[mapped], scratch);
  for (TunedDecision& d : out)
    d.predicted_seconds =
        predict(kind, d.algorithm, root, m, d.mapping, d.segment, scratch);
  publish(scratch, 0, evals);
  return out;
}

TunedDecision Tuner::decide(CollectiveKind kind, int root, Bytes m) const {
  Lease lease(scratch_);
  ScheduleScratch& scratch = lease.get();
  std::size_t mapped = 0;
  std::vector<TunedDecision> all = enumerate(kind, root, m, mapped);
  // Best first: every tree replay's lower bound, every other candidate at
  // 0 (priced first, in enumeration order), stably sorted by bound.
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (i == mapped) continue;
    const TunedDecision& d = all[i];
    order.push_back(
        {replays_tree(kind, d.algorithm, d.segment)
             ? schedules_.tree_lower_bound(params_, shape_of(d.algorithm),
                                           kind, root, m, d.mapping,
                                           d.segment, scratch)
             : 0.0,
         i});
  }
  std::stable_sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  // A replay never finishes before its bound, so once the next bound
  // exceeds the best price by more than the rounding slack, that candidate
  // and every later one cost strictly more than the best and cannot win,
  // not even a tie on position.
  std::size_t best = all.size();
  std::uint64_t pruned = 0;
  auto consider = [&](std::size_t i) {
    const double price = all[i].predicted_seconds;
    if (best == all.size() || price < all[best].predicted_seconds ||
        (price == all[best].predicted_seconds && i < best))
      best = i;
  };
  for (std::size_t k = 0; k < order.size(); ++k) {
    const auto [bound, i] = order[k];
    if (best < all.size() &&
        bound * (1.0 - kBoundSlack) > all[best].predicted_seconds) {
      pruned += order.size() - k;
      break;
    }
    // A replay stopped at the best price so far returns +inf: it would
    // have cost strictly more, so it cannot win either.
    TunedDecision& d = all[i];
    d.predicted_seconds =
        predict(kind, d.algorithm, root, m, d.mapping, d.segment, scratch,
                best < all.size() ? all[best].predicted_seconds : kNoCutoff);
    consider(i);
  }
  // The climbed binomial costs at least its floor under any mapping (up to
  // the replay's rounding), so a floor above the best price by more than
  // the slack proves the climb cannot win.
  std::uint64_t evals = 0;
  if (schedules_.binomial_floor(floor_terms_, kind, m, scratch) *
          (1.0 - kBoundSlack) >
      all[best].predicted_seconds) {
    ++pruned;
  } else {
    evals = climb(all[mapped], scratch);
    consider(mapped);
  }
  publish(scratch, pruned, evals);
  check_price(all[best].predicted_seconds, kind, m);
  return std::move(all[best]);
}

double Tuner::price(const TunedDecision& d) const {
  check_invocation(d.root, d.message);
  Lease lease(scratch_);
  ScheduleScratch& scratch = lease.get();
  // The closed forms index the parameter tables through the mapping
  // unchecked, so a decision off the wire is checked here, once.
  trees::invert_mapping(d.mapping, params_.size(), scratch.inverse);
  const double seconds = predict(d.kind, d.algorithm, d.root, d.message,
                                 d.mapping, d.segment, scratch);
  publish(scratch, 0, 0);
  check_price(seconds, d.kind, d.message);
  return seconds;
}

}  // namespace lmo::core
