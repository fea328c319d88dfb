// LMO predictions of collective execution times (paper Sections III, V).
//
// These are the "intuitive" formulas: serialized root processing appears as
// a sum of processor terms, parallel transmission and remote processing as
// a maximum over destinations, and the empirical parameters capture the
// regime switches of linear gather.
//
// Beyond the flat-tree closed forms kept here (the paper's eqs. (4) and
// (5), and their bcast/reduce siblings), every tree collective is priced
// by ScheduleSet below, and code outside src/core reaches it through
// core::Tuner (price, candidates, decide): one pricing path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "core/empirical.hpp"
#include "core/lmo_model.hpp"
#include "trees/shapes.hpp"
#include "util/bytes.hpp"

namespace lmo::core {

enum class CollectiveKind { kScatter, kGather, kBcast, kReduce };

/// Linear (flat-tree) scatter, eq. (4):
/// (n-1)(C_r + M t_r) + max_i (L_ri + M/beta_ri + C_i + M t_i).
[[nodiscard]] double linear_scatter_time(const LmoParams& p, int root,
                                         Bytes m);

/// Same under the original 5-parameter model (no separate latency):
/// (n-1)(C_r + M t_r) + max_i (M/beta_ri + C_i + M t_i).
[[nodiscard]] double linear_scatter_time(const LmoOriginalParams& p, int root,
                                         Bytes m);

enum class GatherRegime { kSmall, kMedium, kLarge };

struct GatherPrediction {
  GatherRegime regime = GatherRegime::kSmall;
  /// The analytical branch of eq. (5): max branch for small/medium,
  /// sum branch for large.
  double base = 0.0;
  /// Probability-weighted mean escalation (medium regime only).
  double expected_escalation = 0.0;
  /// Worst-case escalation magnitude (medium regime only).
  double max_escalation = 0.0;
  /// P(the observation fits the linear small-message model).
  double linear_probability = 1.0;

  [[nodiscard]] double expected() const { return base + expected_escalation; }
  [[nodiscard]] double worst_case() const { return base + max_escalation; }
};

/// Linear (flat-tree) gather, eq. (5) with the empirical medium band.
[[nodiscard]] GatherPrediction linear_gather_time(const LmoParams& p,
                                                  const GatherEmpirical& emp,
                                                  int root, Bytes m);

// --- Extension: the same sums-and-maxima style for other collectives. ---

/// Flat-tree broadcast: structurally identical to eq. (4) — the root's
/// (n-1) serialized message preparations plus the slowest parallel
/// delivery (all messages are m bytes).
[[nodiscard]] double linear_bcast_time(const LmoParams& p, int root, Bytes m);

/// Flat-tree reduce: linear gather's small branch plus one serialized
/// combine (C_r + m t_r) per received block.
[[nodiscard]] double linear_reduce_time(const LmoParams& p, int root,
                                        Bytes m);

// --- Compiled schedules: the zoo's tree shapes, segmented. ---
//
// ScheduleSet prices the exact schedule coll::tree_* executes, from the
// same fitted LMO parameters the closed forms use: per-node CPU terms
// (C_i + b t_i per message, serialized on the rank's coroutine), per-node
// egress/ingress wire occupancy (b/beta_ij, serialized per port), and
// L_ij on every arc. `segment` > 0 chunks the message (bcast/reduce) or
// the per-rank block (scatter/gather) into a pipelined series — chunk s+1
// flows down the upper tree while chunk s drains below, which is how a
// segmented chain becomes the classic pipelined broadcast. The evaluator
// walks virtual ranks in topological order, so it is O(n * segments).
// Every (kind, mapping, segment) triple priced here is executable by
// coll::run_decision with the same arguments — the tuner never prices a
// schedule the simulator cannot run.
//
// A topology adds hierarchical contention: every transfer also occupies
// the contended shared segments on its path (memory bus, oversubscribed
// uplink), serialized exactly like sim::Fabric does. Flat topologies and
// nullptr price identically to the port-only model.
//
// A schedule template is one tree shape's per-chunk program for one
// collective, over *virtual* ranks: per rank, the receives and sends it
// issues for every chunk, in order. It depends only on (shape, kind, n),
// so it is compiled once and replayed for any root, mapping and segment
// size — the replay walks each rank's template lazily, chunk by chunk,
// mapping virtual ranks to physical ones as it goes.

/// One step of a virtual rank's per-chunk program.
struct TemplateOp {
  bool recv = false;     ///< blocking receive; otherwise an eager send
  bool combine = false;  ///< reduce: a second processing term per block
  int peer = 0;          ///< virtual rank on the other side
  int edge = 0;          ///< arc id: chunk s arrives in slot edge * S + s
  double factor = 1.0;   ///< message bytes = factor * chunk bytes
};

/// Per-virtual-rank op lists in CSR form: rank v's program is
/// ops[start[v] .. start[v + 1]).
struct ScheduleTemplate {
  std::vector<int> start;
  std::vector<TemplateOp> ops;

  [[nodiscard]] const TemplateOp* begin(int v) const {
    return ops.data() + start[std::size_t(v)];
  }
  [[nodiscard]] const TemplateOp* end(int v) const {
    return ops.data() + start[std::size_t(v) + 1];
  }
};

/// The shared segments of a contended topology, flattened for replay: one
/// cursor per (level, group) in a flat array, groups of level l starting
/// at a per-level offset (the layout of sim::Fabric's shared timelines),
/// and each rank's cursor index per level precomputed, so a message finds
/// its path's segments without asking the topology. Empty topologies,
/// uncontended ones and nullptr carry no levels: a port-only model.
struct WireLayout {
  int levels = 0;
  std::vector<char> contended;     ///< per level l - 1
  std::vector<std::size_t> slot;   ///< rank r, level l: [r * levels + l - 1]
  std::size_t cursors = 0;
};

/// Workspace of one replay: arrivals, clocks, cursors, port and segment
/// occupancy, the send order's tournament tree, and the bound mapping.
/// Reusing one across replays avoids every per-call allocation once the
/// buffers have grown; a scratch serves one replay at a time, so
/// concurrent callers each use their own. Contents between calls are
/// unspecified, except the work counts `sends` and `cuts`.
struct ScheduleScratch {
  struct Cursor {
    const TemplateOp* op = nullptr;     ///< next op of the current chunk
    const TemplateOp* begin = nullptr;  ///< the rank's template, this phase
    const TemplateOp* end = nullptr;
    double bytes = 0.0;    ///< this chunk's bytes (times the op's factor)
    std::size_t slot = 0;  ///< arc e's arrival slot is slot + e * stride
    std::size_t stride = 0;
    std::size_t chunk = 0;
    std::size_t phase = 0;
  };
  std::vector<double> arrival, clock, egress, ingress, shared;
  /// Per rank, the serialized CPU work still to run plus its tail (a
  /// cutoff replay only).
  std::vector<double> remaining;
  /// Per virtual rank, the critical-path terms of a tree schedule: the
  /// earliest arrival of its first chunk (bcast, scatter) and the least
  /// time from its final op to the end of the collective.
  std::vector<double> head, tail;
  std::vector<Cursor> cursor;
  /// The send order: a tournament tree over physical ranks, node i's
  /// winner (post time, rank) at [i], its children at 2i and 2i + 1, rank
  /// r's leaf at leaves + r (leaves = the least power of two >= n).
  std::vector<double> winner_time;
  std::vector<int> winner_rank;
  std::vector<int> map, inverse, ring;
  /// Messages replayed, and replays stopped at their cutoff, summed over
  /// every replay run in this scratch (work counts the caller reads and
  /// publishes).
  std::uint64_t sends = 0;
  std::uint64_t cuts = 0;
};

/// Relative slack of every test of a lower bound against a price: far
/// above the rounding by which a bound's sums (tree_lower_bound,
/// binomial_floor, a replay's cutoff) may differ from the replay's own.
inline constexpr double kBoundSlack = 1e-9;

/// The cutoff of a replay that prices its schedule fully.
inline constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

/// One value per LMO term for every processor and every link — with each
/// at its table's minimum, the terms of a mapping-free floor.
struct UniformLmo {
  double C = 0.0;
  double t = 0.0;
  double L = 0.0;
  double inv_beta = 0.0;
};

/// Chunks a replay pipelines a message of m bytes into: ceil(m / segment)
/// when 0 < segment < m, otherwise one.
[[nodiscard]] std::size_t chunk_count(Bytes m, Bytes segment);

/// Every tree schedule of one communicator size and topology, compiled
/// once: the evaluator core::Tuner prices candidates with. `topology` is
/// only read by the constructor. Mappings must be permutations (replays
/// check theirs; the closed form trusts the caller — see
/// trees::invert_mapping).
class ScheduleSet {
 public:
  ScheduleSet(int n, const sim::Topology* topology);

  /// The replayed price of `shape`'s `kind` collective from `root` (m
  /// bytes per message or block, chunked at `segment`, virtual ranks
  /// placed by `mapping`, empty = the MPI default (v + root) mod n), or
  /// +inf once the replay proves that price exceeds `cutoff`. After every
  /// clock update the replay tests one rank: its clock plus its serialized
  /// CPU work still to run is a lower bound on its final clock, because
  /// the replay only adds non-negative terms to a clock, and its tail (see
  /// tree_lower_bound) is a lower bound on the time from there to the end.
  /// When that sum, less kBoundSlack, exceeds `cutoff`, the replay stops
  /// and returns +inf (counted in scratch.cuts). So a price equal to
  /// `cutoff` is always returned in full, to the bit; kNoCutoff prices
  /// every schedule fully.
  [[nodiscard]] double tree_time(const LmoParams& p, trees::TreeKind shape,
                                 CollectiveKind kind, int root, Bytes m,
                                 const std::vector<int>& mapping,
                                 Bytes segment, ScheduleScratch& scratch,
                                 double cutoff = kNoCutoff) const;

  /// A lower bound on tree_time with the same arguments, in
  /// O(template ops) whatever the chunk count S: the largest over ranks r
  /// of head_r + cpu_r + tail_r, of r's egress wire occupancy, and of its
  /// ingress wire occupancy (each chunk at least one minimal frame).
  /// cpu_r is r's serialized CPU time, sum over its ops of (2 if combine
  /// else 1) x (S C_r + factor m t_r). head_r (bcast, scatter; 0
  /// otherwise) is the earliest time chunk 0 can land at r: its parent's
  /// head, plus the parent's chunk-0 CPU terms up to and including the
  /// send to r, plus L and the wire of one chunk. tail_r is the least time
  /// from r's final op to the end: the last chunk's latency and wire to
  /// the next rank, plus that rank's CPU terms for the last chunk and its
  /// own tail — the last child's for bcast and scatter, the parent's
  /// receive (twice for reduce) and send for gather and reduce. The
  /// replay only ever adds these non-negative terms to a clock or port
  /// cursor, so the bound holds up to rounding (about ops x 2^-53,
  /// relative) provided every C_i, t_i, L_ij and 1/beta_ij is finite and
  /// >= 0. Checks `mapping` like tree_time.
  [[nodiscard]] double tree_lower_bound(const LmoParams& p,
                                        trees::TreeKind shape,
                                        CollectiveKind kind, int root,
                                        Bytes m,
                                        const std::vector<int>& mapping,
                                        Bytes segment,
                                        ScheduleScratch& scratch) const;

  /// The unsegmented binomial tree in closed form, walking the compiled
  /// children lists: per subtree root, CPU processing of the child
  /// messages is serialized while transmissions and remote processing run
  /// in parallel — the recursion of eqs. (1)-(2) with separated terms.
  /// Gather and reduce mirror it (children arrive in parallel, the
  /// parent's receive processing serializes; reduce adds a combine per
  /// child).
  [[nodiscard]] double binomial_closed_time(const LmoParams& p,
                                            CollectiveKind kind, int root,
                                            Bytes m,
                                            const std::vector<int>& mapping,
                                            ScheduleScratch& scratch) const;

  /// The binomial_closed_time recursion with every processor at
  /// (terms.C, terms.t) and every link at (terms.L, terms.inv_beta). The
  /// closed forms are sums and maxima of non-negative terms, monotone in
  /// each, so when every term of p is >= its `terms` value this is <=
  /// binomial_closed_time(p, kind, root, m, mapping, ...) for every root
  /// and mapping, exactly (rounding is monotone too). A replay only adds
  /// port and segment waits and the minimal frame to each closed-form
  /// term, so it is also <= tree_time's binomial replay up to rounding.
  [[nodiscard]] double binomial_floor(const UniformLmo& terms,
                                      CollectiveKind kind, Bytes m,
                                      ScheduleScratch& scratch) const;

  /// Composite broadcast: binomial scatter of ceil(m/n) blocks followed by
  /// a ring allgather of the same block size (van-de-Geijn style), replayed
  /// as one schedule (the ring pipelines across steps, unlike the
  /// ring_allgather_time bound), with tree_time's `cutoff`.
  [[nodiscard]] double scatter_allgather_bcast_time(
      const LmoParams& p, int root, Bytes m, ScheduleScratch& scratch,
      double cutoff = kNoCutoff) const;

 private:
  [[nodiscard]] const ScheduleTemplate& plan(trees::TreeKind shape,
                                             CollectiveKind kind) const;

  std::vector<ScheduleTemplate> trees_;  ///< [shape * 4 + kind]
  ScheduleTemplate ring_;
  WireLayout wires_;
};

/// Ring allgather: n-1 synchronized steps, each bounded by the slowest
/// neighbour link (approximation: steps do not pipeline).
[[nodiscard]] double ring_allgather_time(const LmoParams& p, Bytes m);

}  // namespace lmo::core
