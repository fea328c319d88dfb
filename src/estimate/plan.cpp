#include "estimate/plan.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <tuple>

#include "estimate/experimenter.hpp"
#include "estimate/measurement_store.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace lmo::estimate {

const char* kind_name(ExperimentKind k) {
  switch (k) {
    case ExperimentKind::kRoundtrip: return "roundtrip";
    case ExperimentKind::kOneToTwo: return "one_to_two";
    case ExperimentKind::kSendOverhead: return "send_overhead";
    case ExperimentKind::kRecvOverhead: return "recv_overhead";
    case ExperimentKind::kSaturationGap: return "saturation_gap";
    case ExperimentKind::kScatterObservation: return "scatter_observation";
    case ExperimentKind::kGatherObservation: return "gather_observation";
  }
  LMO_CHECK_MSG(false, "unknown experiment kind");
  return "?";
}

namespace {
ExperimentKind kind_from_json(const obs::JsonField& field) {
  const std::string_view name = field.string();
  for (const auto k :
       {ExperimentKind::kRoundtrip, ExperimentKind::kOneToTwo,
        ExperimentKind::kSendOverhead, ExperimentKind::kRecvOverhead,
        ExperimentKind::kSaturationGap, ExperimentKind::kScatterObservation,
        ExperimentKind::kGatherObservation})
    if (name == kind_name(k)) return k;
  field.fail("= '" + std::string(name) + "' is not an experiment kind");
}
}  // namespace

ExperimentKey ExperimentKey::roundtrip(int i, int j, Bytes fwd, Bytes back) {
  LMO_CHECK(i != j && i >= 0 && j >= 0);
  // A symmetric round-trip T_ij(m, m) measures the same quantity from
  // either end; canonicalize so Hockney's, LMO's, and PLogP's requests for
  // the same pair collapse onto one experiment.
  if (fwd == back && i > j) std::swap(i, j);
  ExperimentKey k;
  k.kind = ExperimentKind::kRoundtrip;
  k.a = i;
  k.b = j;
  k.m_fwd = fwd;
  k.m_back = back;
  return k;
}

ExperimentKey ExperimentKey::one_to_two(const Triplet& t, Bytes m,
                                        Bytes reply) {
  LMO_CHECK(t[0] != t[1] && t[0] != t[2] && t[1] != t[2]);
  ExperimentKey k;
  k.kind = ExperimentKind::kOneToTwo;
  k.a = t[0];
  k.b = t[1];
  k.c = t[2];
  k.m_fwd = m;
  k.m_back = reply;
  return k;
}

ExperimentKey ExperimentKey::send_overhead(int i, int j, Bytes m) {
  LMO_CHECK(i != j && i >= 0 && j >= 0);
  ExperimentKey k;
  k.kind = ExperimentKind::kSendOverhead;
  k.a = i;
  k.b = j;
  k.m_fwd = m;
  return k;
}

ExperimentKey ExperimentKey::recv_overhead(int i, int j, Bytes m) {
  ExperimentKey k = send_overhead(i, j, m);
  k.kind = ExperimentKind::kRecvOverhead;
  return k;
}

ExperimentKey ExperimentKey::saturation_gap(int i, int j, Bytes m,
                                            int count) {
  LMO_CHECK(count >= 1);
  ExperimentKey k = send_overhead(i, j, m);
  k.kind = ExperimentKind::kSaturationGap;
  k.count = count;
  return k;
}

ExperimentKey ExperimentKey::scatter_observation(int root, Bytes m, int rep) {
  LMO_CHECK(root >= 0 && rep >= 0);
  ExperimentKey k;
  k.kind = ExperimentKind::kScatterObservation;
  k.a = root;
  k.b = -1;
  k.m_fwd = m;
  k.count = rep;
  return k;
}

ExperimentKey ExperimentKey::gather_observation(int root, Bytes m, int rep) {
  ExperimentKey k = scatter_observation(root, m, rep);
  k.kind = ExperimentKind::kGatherObservation;
  return k;
}

std::string ExperimentKey::describe() const {
  std::string s = kind_name(kind);
  switch (kind) {
    case ExperimentKind::kRoundtrip:
      s += " " + std::to_string(a) + "<->" + std::to_string(b) + " m=" +
           std::to_string(m_fwd) + "/" + std::to_string(m_back);
      break;
    case ExperimentKind::kOneToTwo:
      s += " " + std::to_string(a) + "->(" + std::to_string(b) + "," +
           std::to_string(c) + ") m=" + std::to_string(m_fwd) +
           " reply=" + std::to_string(m_back);
      break;
    case ExperimentKind::kSendOverhead:
    case ExperimentKind::kRecvOverhead:
      s += " " + std::to_string(a) + "->" + std::to_string(b) + " m=" +
           std::to_string(m_fwd);
      break;
    case ExperimentKind::kSaturationGap:
      s += " " + std::to_string(a) + "->" + std::to_string(b) + " m=" +
           std::to_string(m_fwd) + " x" + std::to_string(count);
      break;
    case ExperimentKind::kScatterObservation:
    case ExperimentKind::kGatherObservation:
      s += " root=" + std::to_string(a) + " m=" + std::to_string(m_fwd) +
           " rep=" + std::to_string(count);
      break;
  }
  return s;
}

obs::Json ExperimentKey::to_json(std::size_t spare) const {
  const bool reply = kind == ExperimentKind::kRoundtrip ||
                     kind == ExperimentKind::kOneToTwo;
  const bool counted = kind == ExperimentKind::kSaturationGap ||
                       kind == ExperimentKind::kScatterObservation ||
                       kind == ExperimentKind::kGatherObservation;
  obs::Json j = obs::Json::object();
  j.reserve(3 + std::size_t(b >= 0) + std::size_t(c >= 0) +
            std::size_t(reply) + std::size_t(counted) +
            std::size_t(level != 0) + spare);
  j["kind"] = kind_name(kind);
  j["a"] = a;
  if (b >= 0) j["b"] = b;
  if (c >= 0) j["c"] = c;
  j["m"] = m_fwd;
  if (reply) j["reply"] = m_back;
  if (counted) j["count"] = count;
  // Annotation only — stores that predate the field parse unchanged.
  if (level != 0) j["level"] = level;
  return j;
}

ExperimentKey ExperimentKey::from_json(const obs::JsonField& j) {
  constexpr std::int64_t kRankMax = sim::kMaxRanks - 1;
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  ExperimentKey k;
  k.kind = kind_from_json(j["kind"]);
  k.a = int(j["a"].integer(0, kRankMax));
  const auto b = j.find("b");
  k.b = b ? int(b->integer(0, kRankMax)) : -1;
  const auto c = j.find("c");
  k.c = c ? int(c->integer(0, kRankMax)) : -1;
  k.m_fwd = j["m"].integer(0);
  if (const auto reply = j.find("reply")) k.m_back = reply->integer(0);
  if (const auto n = j.find("count")) k.count = int(n->integer(0, kIntMax));
  if (const auto lv = j.find("level")) k.level = int(lv->integer(0, kIntMax));
  return k;
}

ExperimentKey ExperimentKey::from_json(const obs::Json& j) {
  return from_json(obs::JsonField(j, "experiment key"));
}

std::vector<int> ExperimentKey::participants() const {
  switch (kind) {
    case ExperimentKind::kOneToTwo:
      return {a, b, c};
    case ExperimentKind::kScatterObservation:
    case ExperimentKind::kGatherObservation:
      return {a};  // occupies the whole cluster in truth; packed alone
    default:
      return {a, b};
  }
}

std::size_t ExperimentPlan::experiments() const {
  std::size_t n = 0;
  for (const auto& r : rounds) n += r.keys.size();
  return n;
}

namespace {
/// Invoke f(i, j) for every point-to-point path the experiment occupies in
/// the resource tree (none for observation kinds, which are packed alone).
template <class F>
void for_each_path(const ExperimentKey& k, F&& f) {
  if (k.b < 0) return;
  f(k.a, k.b);
  if (k.kind == ExperimentKind::kOneToTwo) f(k.a, k.c);
}

/// Greedy first-fit of `keys`, in order, into resource-disjoint rounds.
/// Resource ids are the participants 0..p-1 (p one past the largest),
/// then, when `topo` constrains concurrency, one id per contended
/// (level, group) switch. A key holds its participants plus every
/// contended switch on its paths, so two keys conflict exactly when they
/// share an id. Each id keeps a bitmap over round indices (word w of id r
/// at words[w * width + r]); a key goes to the lowest round whose bit is
/// clear in the OR of its ids' bitmaps — the round a pairwise first-fit
/// would pick, without visiting any round member. `probes` counts the
/// bitmap words OR'd.
std::vector<std::vector<ExperimentKey>> pack_rounds(
    const sim::Topology* topo, const std::vector<ExperimentKey>& keys,
    std::uint64_t& probes) {
  int ids = 0;
  for (const ExperimentKey& k : keys)
    for (const int p : k.participants()) {
      LMO_CHECK(p >= 0);
      ids = std::max(ids, p + 1);
    }
  const bool contended = topo != nullptr && topo->constrains_concurrency();
  std::vector<int> base(contended ? std::size_t(topo->depth()) + 1 : 0, 0);
  for (int l = 1; l < int(base.size()); ++l)
    if (topo->level(l).contended) {
      base[std::size_t(l)] = ids;
      ids += topo->group_count(l);
    }
  const auto width = std::size_t(ids);

  std::vector<std::vector<ExperimentKey>> rounds;
  std::vector<std::uint64_t> words;
  for (const ExperimentKey& k : keys) {
    std::vector<int> held = k.participants();
    if (contended)
      for_each_path(k, [&](int i, int j) {
        topo->for_each_contended_segment(i, j, [&](int l, int g) {
          held.push_back(base[std::size_t(l)] + g);
        });
      });

    // Rounds past the last one have no bits set anywhere, so the first
    // clear bit is at most one past the last round.
    const std::size_t filled = words.size() / width;
    std::size_t w = 0;
    int bit = 0;
    for (; w < filled; ++w) {
      std::uint64_t used = 0;
      for (const int r : held) used |= words[w * width + std::size_t(r)];
      probes += held.size();
      if (~used != 0) {
        bit = std::countr_zero(~used);
        break;
      }
    }
    if (w == filled) words.resize(words.size() + width, 0);
    const std::size_t round = w * 64 + std::size_t(bit);
    if (round == rounds.size()) rounds.emplace_back();
    rounds[round].push_back(k);
    for (const int r : held)
      words[w * width + std::size_t(r)] |= std::uint64_t(1) << bit;
  }
  return rounds;
}
}  // namespace

PlanBuilder::PlanBuilder() = default;

PlanBuilder::PlanBuilder(const sim::Topology* topo) : topo_(topo) {}

void PlanBuilder::require(const ExperimentKey& key) {
  ++requests_;
  keys_.push_back(key);
  if (topo_ != nullptr && !topo_->empty()) {
    int& level = keys_.back().level;
    level = 0;
    for_each_path(key, [&](int a, int b) {
      level = std::max(level, topo_->lca_level(a, b));
    });
  }
}

std::vector<ExperimentKey> PlanBuilder::sorted_unique() const {
  // Stable: of equal keys, the first request (and its level) is kept.
  std::vector<ExperimentKey> keys = keys_;
  std::stable_sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

ExperimentPlan PlanBuilder::build(bool parallel) const {
  const obs::Span sp = obs::span("plan.build");
  const std::vector<ExperimentKey> unique_keys = sorted_unique();
  // Group by (kind, sizes, count): experiments in one measured round must
  // be homogeneous because the round's CI stopping rule repeats them
  // together. Groups come out in deterministic (kind, m, reply, count)
  // order regardless of request order.
  using GroupKey = std::tuple<ExperimentKind, Bytes, Bytes, int>;
  std::map<GroupKey, std::vector<ExperimentKey>> groups;
  for (const ExperimentKey& k : unique_keys)
    groups[{k.kind, k.m_fwd, k.m_back, k.count}].push_back(k);

  ExperimentPlan plan;
  plan.requested = requests_;
  plan.deduplicated = requests_ - unique_keys.size();
  std::uint64_t probes = 0;
  for (const auto& [gk, keys] : groups) {
    const auto [kind, m_fwd, m_back, count] = gk;
    auto add_round = [&](std::vector<ExperimentKey> round_keys) {
      PlannedRound r;
      r.kind = kind;
      r.m_fwd = m_fwd;
      r.m_back = m_back;
      r.count = count;
      r.keys = std::move(round_keys);
      plan.rounds.push_back(std::move(r));
    };
    const bool observation = kind == ExperimentKind::kScatterObservation ||
                             kind == ExperimentKind::kGatherObservation;
    if (!parallel || observation) {
      // Observations sample the anchor session's live noise stream one at
      // a time; serial mode is the Section-IV baseline.
      for (const ExperimentKey& k : keys) add_round({k});
    } else {
      // Node-disjoint rounds; on a contended tree also switch-disjoint,
      // since two pairs off one memory bus or uplink perturb each other.
      for (auto& round : pack_rounds(topo_, keys, probes))
        add_round(std::move(round));
    }
  }

  obs::Registry& reg = obs::Registry::global();
  reg.counter("plan.requests").inc(plan.requested);
  reg.counter("plan.deduplicated").inc(plan.deduplicated);
  reg.counter("plan.conflict_probes").inc(probes);
  return plan;
}

ShardSpec ShardSpec::parse(const std::string& text) {
  const auto bad = [&text](const std::string& why) {
    return Error("shard spec \"" + text + "\": " + why +
                 " (expected \"i/k\" with 0 <= i < k)");
  };
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) throw bad("missing '/'");
  ShardSpec s;
  try {
    std::size_t pos = 0;
    const std::string lhs = text.substr(0, slash);
    const std::string rhs = text.substr(slash + 1);
    s.index = std::stoi(lhs, &pos);
    if (pos != lhs.size()) throw bad("trailing garbage in shard index");
    s.count = std::stoi(rhs, &pos);
    if (pos != rhs.size()) throw bad("trailing garbage in shard count");
  } catch (const std::invalid_argument&) {
    throw bad("not a number");
  } catch (const std::out_of_range&) {
    throw bad("out of range");
  }
  if (s.count < 1) throw bad("shard count must be >= 1");
  if (s.index < 0 || s.index >= s.count)
    throw bad("shard index out of range");
  return s;
}

bool store_holds(const MeasurementStore& store,
                 std::span<const PlannedRound> rounds) {
  for (const PlannedRound& round : rounds)
    for (const ExperimentKey& key : round.keys)
      if (!store.contains(key)) return false;
  return true;
}

ExecuteStats execute_plan(const ExperimentPlan& plan, Experimenter& ex,
                          MeasurementStore& store, const ShardSpec& shard) {
  const obs::Span sp = obs::span("plan.execute");
  ExecuteStats stats;
  obs::Registry& reg = obs::Registry::global();
  obs::Counter measured_ctr = reg.counter("plan.experiments_measured");
  obs::Counter cached_ctr = reg.counter("plan.cache_hits");

  // Sharding: measured rounds are numbered by a work ordinal over the
  // plan's deterministic round order; shard i of k executes ordinals
  // congruent to i, pinning the experimenter's round cursor to the value
  // the single-process run would have reached so per-repetition seeds are
  // identical. Observation rounds are excluded from the ordinal and run in
  // every shard: they sample the anchor session, whose RNG state measured
  // rounds never advance, so every process observes the same values. An
  // inactive shard makes zero cursor calls — the unsharded path is
  // untouched, byte for byte.
  const bool sharded = shard.active();
  const std::uint64_t base = sharded ? ex.round_cursor() : 0;
  std::uint64_t work = 0;

  for (const PlannedRound& round : plan.rounds) {
    const bool observation =
        round.kind == ExperimentKind::kScatterObservation ||
        round.kind == ExperimentKind::kGatherObservation;
    const std::uint64_t w = work;
    if (!observation) ++work;
    if (sharded && !observation &&
        w % std::uint64_t(shard.count) != std::uint64_t(shard.index))
      continue;
    // A key the store already holds is authoritative — skip it. The
    // survivors of a partially cached round are a subset of a
    // resource-disjoint set, hence still resource-disjoint.
    std::vector<ExperimentKey> missing;
    for (const ExperimentKey& k : round.keys) {
      if (store.lookup(k).has_value())
        ++stats.cached;
      else
        missing.push_back(k);
    }
    if (missing.empty()) continue;
    if (sharded && !observation) ex.set_round_cursor(base + w);

    std::vector<Pair> pairs;  // what the pair primitives take
    for (const ExperimentKey& k : missing) pairs.emplace_back(k.a, k.b);
    std::vector<double> values;
    switch (round.kind) {
      case ExperimentKind::kRoundtrip:
        values = ex.roundtrip_round(pairs, round.m_fwd, round.m_back);
        break;
      case ExperimentKind::kOneToTwo: {
        std::vector<Triplet> triplets;
        for (const ExperimentKey& k : missing)
          triplets.push_back({k.a, k.b, k.c});
        values = ex.one_to_two_round(triplets, round.m_fwd, round.m_back);
        break;
      }
      case ExperimentKind::kSendOverhead:
        values = ex.send_overhead_round(pairs, round.m_fwd);
        break;
      case ExperimentKind::kRecvOverhead:
        values = ex.recv_overhead_round(pairs, round.m_fwd);
        break;
      case ExperimentKind::kSaturationGap:
        values = ex.saturation_gap_round(pairs, round.m_fwd, round.count);
        break;
      case ExperimentKind::kScatterObservation:
        LMO_CHECK(missing.size() == 1);
        values = {ex.observe_scatter(missing[0].a, round.m_fwd)};
        break;
      case ExperimentKind::kGatherObservation:
        LMO_CHECK(missing.size() == 1);
        values = {ex.observe_gather(missing[0].a, round.m_fwd)};
        break;
    }
    LMO_CHECK(values.size() == missing.size());
    // Slots the experimenter reports as poisoned (too few clean samples
    // even after retries) are quarantined: the suspect value is kept for
    // graceful offline fits, but a warm store re-measures the key instead
    // of treating it as truth. Observation kinds carry no health channel;
    // their recovered values are cached as-is.
    const std::vector<SlotHealth> health = ex.last_round_health();
    const bool health_valid = health.size() == missing.size();
    for (std::size_t e = 0; e < missing.size(); ++e) {
      if (health_valid && health[e] == SlotHealth::kPoisoned) {
        store.quarantine(missing[e], values[e]);
        if (obs::FlightRecorder* fr = ex.flight_recorder()) {
          fr->record(std::uint64_t(obs::wall_now_us() * 1e3),
                     obs::FlightEvent::kQuarantine, std::uint16_t(e), 0);
          fr->mark_degraded();
        }
      } else {
        store.insert(missing[e], values[e]);
      }
    }
    stats.measured += missing.size();
    ++stats.rounds;
  }
  // Leave the cursor where the single-process run would have left it, so
  // a later plan executed on the same experimenter keeps matching seeds.
  if (sharded) ex.set_round_cursor(base + work);

  measured_ctr.inc(stats.measured);
  cached_ctr.inc(stats.cached);
  return stats;
}

}  // namespace lmo::estimate
