#include "core/predictions.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "trees/mapping.hpp"
#include "util/error.hpp"

namespace lmo::core {

namespace {
/// (n-1)(C_r + M t_r): the root's serialized message processing.
double root_serial(const LmoParams& p, int root, Bytes m) {
  return double(p.size() - 1) *
         (p.C[std::size_t(root)] + double(m) * p.t[std::size_t(root)]);
}

/// max_i / sum_i of (L + M/beta + C_i + M t_i), each message priced on
/// the link it crosses: root -> i for scatter and bcast, i -> root for
/// gather and reduce (`to_root`).
struct Tail {
  double max = 0.0;
  double sum = 0.0;
};
Tail remote_tail(const LmoParams& p, int root, Bytes m, bool to_root) {
  Tail tail;
  for (int i = 0; i < p.size(); ++i) {
    if (i == root) continue;
    const int src = to_root ? i : root;
    const int dst = to_root ? root : i;
    const double term =
        p.L(src, dst) + double(m) * p.inv_beta(src, dst) +
        p.C[std::size_t(i)] + double(m) * p.t[std::size_t(i)];
    tail.max = std::max(tail.max, term);
    tail.sum += term;
  }
  return tail;
}
}  // namespace

double linear_scatter_time(const LmoParams& p, int root, Bytes m) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  return root_serial(p, root, m) + remote_tail(p, root, m, false).max;
}

double linear_scatter_time(const LmoOriginalParams& p, int root, Bytes m) {
  LMO_CHECK(p.size() >= 2);
  LMO_CHECK(root >= 0 && root < p.size());
  const double serial =
      double(p.size() - 1) *
      (p.C[std::size_t(root)] + double(m) * p.t[std::size_t(root)]);
  double mx = 0.0;
  for (int i = 0; i < p.size(); ++i) {
    if (i == root) continue;
    mx = std::max(mx, double(m) * p.inv_beta(root, i) +
                          p.C[std::size_t(i)] +
                          double(m) * p.t[std::size_t(i)]);
  }
  return serial + mx;
}

GatherPrediction linear_gather_time(const LmoParams& p,
                                    const GatherEmpirical& emp, int root,
                                    Bytes m) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  const double serial = root_serial(p, root, m);
  const Tail tail = remote_tail(p, root, m, true);

  GatherPrediction out;
  if (emp.m2 > 0 && m >= emp.m2) {
    out.regime = GatherRegime::kLarge;
    out.base = serial + tail.sum;
    out.linear_probability = 0.0;
    return out;
  }
  out.base = serial + tail.max;
  if (emp.in_band(m)) {
    out.regime = GatherRegime::kMedium;
    out.expected_escalation = emp.expected_escalation(m);
    out.max_escalation = emp.max_escalation();
    out.linear_probability = emp.linear_probability(m);
  }
  return out;
}

double linear_bcast_time(const LmoParams& p, int root, Bytes m) {
  // Same structure as eq. (4): all messages carry m bytes.
  return linear_scatter_time(p, root, m);
}

double linear_reduce_time(const LmoParams& p, int root, Bytes m) {
  p.validate();
  LMO_CHECK(root >= 0 && root < p.size());
  // One receive processing plus one combine per block, both at the root.
  return 2.0 * root_serial(p, root, m) + remote_tail(p, root, m, true).max;
}

std::size_t chunk_count(Bytes m, Bytes segment) {
  if (m <= 0 || segment <= 0 || segment >= m) return 1;
  return std::size_t((m + segment - 1) / segment);
}

namespace {
/// Template of coll::tree_<kind> over n virtual ranks: bcast/scatter
/// receive from the parent then send to each child (tree_children order);
/// gather/reduce receive from each child (tree_recv_order) then send up.
/// Arc ids are the child's virtual rank; the byte factor is
/// tree_subtree_size for scatter and gather, 1 for bcast and reduce.
ScheduleTemplate compile_tree_schedule(trees::TreeKind shape,
                                       CollectiveKind kind, int n) {
  const bool down =
      kind == CollectiveKind::kScatter || kind == CollectiveKind::kBcast;
  const bool blocks =
      kind == CollectiveKind::kScatter || kind == CollectiveKind::kGather;
  const bool combine = kind == CollectiveKind::kReduce;
  auto factor = [&](int v) {
    return blocks ? double(trees::tree_subtree_size(shape, v, n)) : 1.0;
  };
  ScheduleTemplate out;
  out.start.reserve(std::size_t(n) + 1);
  out.ops.reserve(2 * std::size_t(n));
  out.start.push_back(0);
  for (int v = 0; v < n; ++v) {
    if (down) {
      if (v != 0)
        out.ops.push_back({true, false, trees::tree_parent(shape, v), v,
                           factor(v)});
      for (const int child : trees::tree_children(shape, v, n))
        out.ops.push_back({false, false, child, child, factor(child)});
    } else {
      for (const int child : trees::tree_recv_order(shape, v, n))
        out.ops.push_back({true, combine, child, child, factor(child)});
      if (v != 0)
        out.ops.push_back({false, false, trees::tree_parent(shape, v), v,
                           factor(v)});
    }
    out.start.push_back(int(out.ops.size()));
  }
  return out;
}

/// Template of coll::ring_allgather's steps: each rank posts the eager send
/// to its right, then blocks on the receive from its left (arc id = the
/// sender's rank; the trailing wait costs nothing extra — the send clock
/// already carries the CPU charge).
ScheduleTemplate compile_ring_schedule(int n) {
  ScheduleTemplate out;
  out.start.push_back(0);
  for (int i = 0; i < n; ++i) {
    const int left = (i - 1 + n) % n;
    out.ops.push_back({false, false, (i + 1) % n, i, 1.0});
    out.ops.push_back({true, false, left, left, 1.0});
    out.start.push_back(int(out.ops.size()));
  }
  return out;
}

/// Layout of `topology`'s shared segments for ranks 0..n-1.
WireLayout wire_layout(const sim::Topology* topology, int n) {
  WireLayout out;
  if (!topology || topology->empty() || !topology->any_contended())
    return out;
  out.levels = topology->depth();
  std::vector<std::size_t> offset;
  for (int l = 1; l <= out.levels; ++l) {
    out.contended.push_back(topology->level(l).contended ? 1 : 0);
    offset.push_back(out.cursors);
    out.cursors += std::size_t(topology->group_count(l));
  }
  out.slot.reserve(std::size_t(n) * std::size_t(out.levels));
  for (int r = 0; r < n; ++r)
    for (int l = 1; l <= out.levels; ++l)
      out.slot.push_back(offset[std::size_t(l - 1)] +
                         std::size_t(topology->group(l, r)));
  return out;
}

/// The parameter views the closed forms read: the dense fitted tables, or
/// one value per term for every processor and link (UniformLmo).
struct DenseTerms {
  const LmoParams& p;
  double C(int i) const { return p.C[std::size_t(i)]; }
  double t(int i) const { return p.t[std::size_t(i)]; }
  double L(int i, int j) const { return p.L(i, j); }
  double inv_beta(int i, int j) const { return p.inv_beta(i, j); }
};

struct UniformTerms {
  const UniformLmo& u;
  double C(int) const { return u.C; }
  double t(int) const { return u.t; }
  double L(int, int) const { return u.L; }
  double inv_beta(int, int) const { return u.inv_beta; }
};

/// Completion time of the subtree rooted at virtual rank v, measured from
/// the instant v's processor holds its data. The parent's per-child CPU
/// terms accumulate (serialized); wire and child processing overlap.
/// Walks v's sends in a bcast/scatter template (children in send order).
template <class Terms>
double lmo_subtree(const Terms& p, const ScheduleTemplate& plan,
                   const int* map, double m, int v) {
  const int pv = map[v];
  double cpu_done = 0.0;
  double total = 0.0;
  for (const TemplateOp* op = plan.begin(v); op != plan.end(v); ++op) {
    if (op->recv) continue;
    const int pc = map[op->peer];
    const double bytes = op->factor * m;
    cpu_done += p.C(pv) + bytes * p.t(pv);
    const double arrival = cpu_done + p.L(pv, pc) +
                           bytes * p.inv_beta(pv, pc) + p.C(pc) +
                           bytes * p.t(pc);
    total = std::max(total, arrival + lmo_subtree(p, plan, map, m, op->peer));
  }
  return std::max(total, cpu_done);
}

/// Gather mirror: children's subtrees complete, then their messages travel
/// up; the parent's receive processing is serialized, transmissions are
/// parallel. Children finish in reverse send order (smallest subtree
/// first), matching the binomial tree_gather in coll/zoo — the receive
/// order of a gather/reduce template, whose combine flag (reduce) adds one
/// extra serialized processing per received block.
template <class Terms>
double lmo_subtree_gather(const Terms& p, const ScheduleTemplate& plan,
                          const int* map, double m, int v) {
  const int pv = map[v];
  double done = 0.0;
  for (const TemplateOp* op = plan.begin(v); op != plan.end(v); ++op) {
    if (!op->recv) continue;
    const int pc = map[op->peer];
    const double bytes = op->factor * m;
    // The child's message is ready after its own subtree completes plus its
    // send processing; it then needs the wire (child to parent, the link
    // the replay and the simulator use) plus the parent's receive
    // processing, which queues behind the previous child's.
    const double ready = lmo_subtree_gather(p, plan, map, m, op->peer) +
                         p.C(pc) + bytes * p.t(pc) + p.L(pc, pv) +
                         bytes * p.inv_beta(pc, pv);
    const double processing =
        (op->combine ? 2.0 : 1.0) * (p.C(pv) + bytes * p.t(pv));
    done = std::max(done, ready) + processing;
  }
  return done;
}

/// The closed-form recursion of `kind` over a binomial template, with
/// `map` assigning physical ranks to virtual ones.
template <class Terms>
double binomial_closed(const Terms& p, const ScheduleTemplate& plan,
                       CollectiveKind kind, const int* map, Bytes m) {
  if (kind == CollectiveKind::kScatter || kind == CollectiveKind::kBcast)
    return lmo_subtree(p, plan, map, double(m), 0);
  return lmo_subtree_gather(p, plan, map, double(m), 0);
}

/// Virtual -> physical map for `mapping`: the mapping itself, or the MPI
/// default (v + root) mod n written into w.map (inverse into w.inverse).
const int* default_or(const std::vector<int>& mapping, int root, int n,
                      ScheduleScratch& w) {
  if (!mapping.empty()) return mapping.data();
  w.map.resize(std::size_t(n));
  w.inverse.resize(std::size_t(n));
  for (int v = 0; v < n; ++v) {
    const int r = (v + root) % n;
    w.map[std::size_t(v)] = r;
    w.inverse[std::size_t(r)] = v;
  }
  return w.map.data();
}

/// Checks `mapping` (trees::invert_mapping) and binds it for a replay:
/// returns virtual -> physical, leaves physical -> virtual in w.inverse.
const int* bind_mapping(const std::vector<int>& mapping, int root, int n,
                        ScheduleScratch& w) {
  trees::invert_mapping(mapping, n, w.inverse);
  return default_or(mapping, root, n, w);
}

/// The fabric charges at least one minimal Ethernet frame per message on
/// the wire; segment grids that go tiny would otherwise look free.
constexpr double kMinFrameBytes = 64.0;

/// One template replayed over `chunks` pipelined chunks: chunk s of arc e
/// lands in arrival slot base + e * chunks + s.
struct Phase {
  const ScheduleTemplate* plan = nullptr;
  const int* to_physical = nullptr;  ///< virtual -> physical
  const int* to_virtual = nullptr;   ///< physical -> virtual
  std::size_t chunks = 1;
  double full = 0.0;  ///< bytes of chunks 0 .. chunks-2
  double last = 0.0;  ///< bytes of the final chunk
  std::size_t base = 0;
};

/// Segment `total` into a pipelined series of chunks of at most `segment`
/// bytes, the remainder last (one full-size chunk when segment is 0 or
/// >= total).
Phase chunked(Bytes total, Bytes segment) {
  Phase ph;
  ph.chunks = chunk_count(total, segment);
  if (ph.chunks == 1) {
    ph.full = ph.last = double(total > 0 ? total : 0);
    return ph;
  }
  ph.full = double(segment);
  ph.last = double(total - Bytes(ph.chunks - 1) * segment);
  return ph;
}

/// Bytes of chunk `chunk` of phase ph: full-size, the remainder last.
double chunk_bytes(const Phase& ph, std::size_t chunk) {
  return chunk + 1 < ph.chunks ? ph.full : ph.last;
}

/// Serialized CPU work of physical rank r running virtual rank v's program
/// in phase ph: over v's ops, (2 if combine else 1) x (S C_r + factor B
/// t_r), with S the phase's chunks and B their bytes. The replay charges
/// exactly these terms to r's clock, chunk by chunk; tree_lower_bound's
/// CPU term and run_schedule's cutoff both start from this sum.
double serial_cpu(const LmoParams& p, const Phase& ph, int v, int r) {
  const double chunks = double(ph.chunks);
  const double total = (chunks - 1.0) * ph.full + ph.last;
  const double c = p.C[std::size_t(r)], t = p.t[std::size_t(r)];
  double cpu = 0.0;
  for (const TemplateOp* op = ph.plan->begin(v); op != ph.plan->end(v);
       ++op) {
    const double proc = chunks * c + op->factor * total * t;
    cpu += op->combine ? 2.0 * proc : proc;
  }
  return cpu;
}

/// The critical-path terms of the tree `kind` collective in phase ph, per
/// virtual rank v (ScheduleSet::tree_lower_bound): w.head[v], the earliest
/// time chunk 0 can land at v (bcast and scatter; 0 otherwise), and
/// w.tail[v], the least time from v's final op to the end. Each sums terms
/// the replay adds to a clock on the way: a message lands no earlier than
/// its send CPU finishes plus L plus its wire time (send_on_wire), and its
/// receiver's later ops each add their CPU term. The direction comes from
/// `kind`, not from the template, whose inner gather ranks also start with
/// a receive. Every shape numbers a parent below its children, so one pass
/// each way covers the tree. O(template ops), whatever the chunk count.
void critical_path(const LmoParams& p, const Phase& ph, CollectiveKind kind,
                   ScheduleScratch& w) {
  const ScheduleTemplate& plan = *ph.plan;
  const int n = int(plan.start.size()) - 1;
  const int* map = ph.to_physical;
  w.head.assign(std::size_t(n), 0.0);
  w.tail.assign(std::size_t(n), 0.0);
  auto proc = [&](int r, double bytes) {
    return p.C[std::size_t(r)] + bytes * p.t[std::size_t(r)];
  };
  auto hop = [&](int src, int dst, double bytes) {
    return p.L(src, dst) +
           std::max(bytes, kMinFrameBytes) * p.inv_beta(src, dst);
  };
  const double first = chunk_bytes(ph, 0);
  if (kind == CollectiveKind::kScatter || kind == CollectiveKind::kBcast) {
    // Chunk 0 leaves v after v's chunk-0 ops up to and including its send.
    for (int v = 0; v < n; ++v) {
      const int r = map[v];
      double clock = w.head[std::size_t(v)];
      for (const TemplateOp* op = plan.begin(v); op != plan.end(v); ++op) {
        clock += proc(r, op->factor * first);
        if (!op->recv)
          w.head[std::size_t(op->peer)] =
              clock + hop(r, map[op->peer], op->factor * first);
      }
    }
    // v's final op sends the last chunk to its last child c, which then
    // runs its last-chunk ops.
    for (int v = n; v-- > 0;) {
      if (plan.begin(v) == plan.end(v) || plan.end(v)[-1].recv) continue;
      const TemplateOp& send = plan.end(v)[-1];
      const int c = map[send.peer];
      double drain = hop(map[v], c, send.factor * ph.last);
      for (const TemplateOp* op = plan.begin(send.peer);
           op != plan.end(send.peer); ++op)
        drain += proc(c, op->factor * ph.last);
      w.tail[std::size_t(v)] = drain + w.tail[std::size_t(send.peer)];
    }
    return;
  }
  // v's final op sends its last chunk up; the parent receives it (and
  // combines, for reduce), then, below the root, sends its own last chunk.
  const double receives = kind == CollectiveKind::kReduce ? 2.0 : 1.0;
  for (int v = 1; v < n; ++v) {
    const TemplateOp& send = plan.end(v)[-1];
    const int parent = map[send.peer];
    const double bytes = send.factor * ph.last;
    double drain = hop(map[v], parent, bytes) + receives * proc(parent, bytes);
    if (send.peer != 0)
      drain += proc(parent, plan.end(send.peer)[-1].factor * ph.last) +
               w.tail[std::size_t(send.peer)];
    w.tail[std::size_t(v)] = drain;
  }
}

/// Replays Fabric::transfer's resource chain for one message priced from
/// the fitted parameters: the sender's egress port, every *contended*
/// shared segment on the path (memory bus, oversubscribed uplink — only
/// when the layout has levels), then the receiver's ingress port.
/// Flat clusters carry no contended segments, so the shared-cursor loop is
/// a no-op there. Returns the arrival time at dst (ingress grant + wire
/// occupancy) of a message whose send CPU finishes at `ready`.
double send_on_wire(const LmoParams& p, const WireLayout& wires,
                    ScheduleScratch& w, int src, int dst, double bytes,
                    double ready) {
  const double wire = std::max(bytes, kMinFrameBytes) * p.inv_beta(src, dst);
  const double eg = std::max(ready, w.egress[std::size_t(src)]);
  w.egress[std::size_t(src)] = eg + wire;
  double avail = eg;
  if (wires.levels > 0) {
    // sim::Topology::for_each_contended_segment's order: src side up, the
    // lowest common level, dst side down. The top level is one group, so
    // the scan for the common level terminates.
    const std::size_t L = std::size_t(wires.levels);
    const std::size_t* up = wires.slot.data() + std::size_t(src) * L;
    const std::size_t* down = wires.slot.data() + std::size_t(dst) * L;
    std::size_t k = 0;
    while (up[k] != down[k]) ++k;
    auto occupy = [&](std::size_t slot) {
      double& cursor = w.shared[slot];
      avail = std::max(avail, cursor);
      cursor = avail + wire;
    };
    for (std::size_t l = 0; l < k; ++l)
      if (wires.contended[l]) occupy(up[l]);
    if (wires.contended[k]) occupy(up[k]);
    for (std::size_t l = k; l-- > 0;)
      if (wires.contended[l]) occupy(down[l]);
  }
  const double in =
      std::max(avail + p.L(src, dst), w.ingress[std::size_t(dst)]);
  w.ingress[std::size_t(dst)] = in + wire;
  return in + wire;
}

/// Event-driven replay of a schedule: each rank executes its programs —
/// phase by phase, chunk by chunk through its template — on a private
/// clock; blocking receives consume already-known arrivals immediately
/// (they reserve nothing), while sends are granted their wire resources in
/// global post-time order with ties broken by rank — exactly the order the
/// fabric's Timelines see them, which is what keeps chunked pipelines from
/// looking serialized on shared segments. Allocates nothing once the
/// scratch has grown to the schedule's size. With a finite `cutoff`, stops
/// and returns +inf as soon as one rank's clock plus its serialized CPU
/// work still to run plus its tail, less kBoundSlack, exceeds it
/// (ScheduleSet::tree_time). `tail` holds phase 0's tails per virtual rank
/// (critical_path), or is null for none.
double run_schedule(const LmoParams& p, const Phase* phases,
                    std::size_t count, std::size_t slots,
                    const WireLayout& wires, ScheduleScratch& w,
                    double cutoff, const double* tail) {
  using Cursor = ScheduleScratch::Cursor;
  const int n = p.size();
  const std::size_t un = std::size_t(n);
  // Every priced arrival is >= 0, so a negative one is a message not sent
  // yet.
  w.arrival.assign(slots, -1.0);
  w.clock.assign(un, 0.0);
  w.egress.assign(un, 0.0);
  w.ingress.assign(un, 0.0);
  w.shared.assign(wires.cursors, 0.0);
  w.cursor.resize(un);
  // The ranks whose next op is a send, in a tournament tree: leaf
  // leaves + r holds (r's clock, r), or the idle key once r is not ready,
  // and every inner node the lesser of its children by (time, rank), so
  // node 1 is the next send. Every ready rank beats the idle key, even one
  // whose clock overflowed to +inf.
  constexpr int kIdle = std::numeric_limits<int>::max();
  std::size_t leaves = 1;
  while (leaves < un) leaves *= 2;
  w.winner_time.assign(2 * leaves, kNoCutoff);
  w.winner_rank.assign(2 * leaves, kIdle);
  double* const win_t = w.winner_time.data();
  int* const win_r = w.winner_rank.data();
  // Keys rank r's leaf (kt, kr) and walks to the root carrying the winner,
  // against each sibling's stored winner without a branch.
  auto key = [&](int r, double kt, int kr) {
    std::size_t i = leaves + std::size_t(r);
    win_t[i] = kt;
    win_r[i] = kr;
    for (; i > 1; i >>= 1) {
      const double st = win_t[i ^ 1];
      const int sr = win_r[i ^ 1];
      const bool sibling = (st < kt) | ((st == kt) & (sr < kr));
      kt = sibling ? st : kt;
      kr = sibling ? sr : kr;
      win_t[i >> 1] = kt;
      win_r[i >> 1] = kr;
    }
  };
  auto ready = [&](int r) { return win_r[leaves + std::size_t(r)] == r; };
  const bool bounded = cutoff < kNoCutoff;
  if (bounded) {
    w.remaining.assign(un, 0.0);
    for (int r = 0; r < n; ++r) {
      for (std::size_t k = 0; k < count; ++k)
        w.remaining[std::size_t(r)] +=
            serial_cpu(p, phases[k], phases[k].to_virtual[r], r);
      if (tail) w.remaining[std::size_t(r)] += tail[phases[0].to_virtual[r]];
    }
  }
  // Charges `work` to rank r's clock (already updated) and reports whether
  // r can no longer finish by the cutoff. The tail is never charged: it
  // runs after r's final op.
  bool cut = false;
  auto charge = [&](int r, double work) {
    if (!bounded) return false;
    double& left = w.remaining[std::size_t(r)];
    left -= work;
    cut = (w.clock[std::size_t(r)] + left) * (1.0 - kBoundSlack) > cutoff;
    return cut;
  };

  auto enter = [&](int r, std::size_t phase) {
    Cursor& c = w.cursor[std::size_t(r)];
    c.phase = phase;
    c.chunk = 0;
    c.begin = c.op = c.end = nullptr;
    if (phase == count) return;
    const Phase& ph = phases[phase];
    const int v = ph.to_virtual[r];
    c.begin = c.op = ph.plan->begin(v);
    c.end = ph.plan->end(v);
    c.bytes = chunk_bytes(ph, 0);
    c.slot = ph.base;
    c.stride = ph.chunks;
  };
  // Rank r's next op, stepping to the next chunk or phase as its template
  // runs out; null once r is done.
  auto current = [&](int r) -> const TemplateOp* {
    Cursor& c = w.cursor[std::size_t(r)];
    while (c.op == c.end) {
      if (c.phase == count) return nullptr;
      if (c.begin != c.end && ++c.chunk < c.stride) {
        c.op = c.begin;
        c.bytes = chunk_bytes(phases[c.phase], c.chunk);
        ++c.slot;
      } else {
        enter(r, c.phase + 1);
      }
    }
    return c.op;
  };
  auto bytes_of = [](const Cursor& c) { return c.op->factor * c.bytes; };
  auto slot_of = [](const Cursor& c) {
    return c.slot + std::size_t(c.op->edge) * c.stride;
  };
  // Runs rank `r` forward, consuming satisfied receives; true when its
  // next op is a send, false when it parks on a receive not sent yet, is
  // done, or is cut.
  auto advance = [&](int r) {
    double& t = w.clock[std::size_t(r)];
    while (const TemplateOp* op = current(r)) {
      Cursor& c = w.cursor[std::size_t(r)];
      if (!op->recv) return true;
      const double arrival = w.arrival[slot_of(c)];
      if (arrival < 0.0) return false;  // parked until the matching send
      const double proc =
          p.C[std::size_t(r)] + bytes_of(c) * p.t[std::size_t(r)];
      t = std::max(t, arrival) + proc;
      if (op->combine) t += proc;
      ++c.op;
      if (charge(r, op->combine ? 2.0 * proc : proc)) return false;
    }
    return false;
  };
  for (int r = 0; r < n && !cut; ++r) {
    enter(r, 0);
    if (advance(r)) key(r, w.clock[std::size_t(r)], r);
  }
  // The sender stays at the root while its send is priced, then is
  // re-keyed in place or set idle; its peer is keyed only when the
  // arrival lets it reach a send.
  while (!cut && win_r[1] != kIdle) {
    const int r = win_r[1];
    Cursor& c = w.cursor[std::size_t(r)];
    const double bytes = bytes_of(c);
    const int peer = phases[c.phase].to_physical[c.op->peer];
    const std::size_t slot = slot_of(c);
    double& t = w.clock[std::size_t(r)];
    const double proc = p.C[std::size_t(r)] + bytes * p.t[std::size_t(r)];
    t += proc;  // send CPU
    w.arrival[slot] = send_on_wire(p, wires, w, r, peer, bytes, t);
    ++w.sends;
    ++c.op;
    if (charge(r, proc)) break;
    if (advance(r))
      key(r, t, r);
    else
      key(r, kNoCutoff, kIdle);
    if (!cut && !ready(peer) && advance(peer))
      key(peer, w.clock[std::size_t(peer)], peer);
  }
  if (cut) {
    ++w.cuts;
    return kNoCutoff;
  }
  double completion = 0.0;
  for (const double t : w.clock) completion = std::max(completion, t);
  return completion;
}

/// The tree `kind` collective of `plan`, chunked at `segment`, under
/// `mapping`; a cutoff replay adds each rank's tail to its remaining work.
double replay_tree(const LmoParams& p, const ScheduleTemplate& plan,
                   CollectiveKind kind, int root, Bytes m,
                   const std::vector<int>& mapping, Bytes segment,
                   const WireLayout& wires, ScheduleScratch& w,
                   double cutoff) {
  const int n = p.size();
  Phase ph = chunked(m, segment);
  ph.plan = &plan;
  ph.to_physical = bind_mapping(mapping, root, n, w);
  ph.to_virtual = w.inverse.data();
  const bool bounded = cutoff < kNoCutoff;
  if (bounded) critical_path(p, ph, kind, w);
  return run_schedule(p, &ph, 1, std::size_t(n) * ph.chunks, wires, w,
                      cutoff, bounded ? w.tail.data() : nullptr);
}

/// One schedule covering both phases of the composite broadcast: each rank
/// enters the ring as soon as its own scatter part lands (no global barrier
/// between phases), which is exactly how coll::scatter_allgather_bcast
/// executes. The ring's n-1 steps are its chunks.
double replay_scatter_allgather(const LmoParams& p,
                                const ScheduleTemplate& scatter,
                                const ScheduleTemplate& ring, int root,
                                Bytes m, const WireLayout& wires,
                                ScheduleScratch& w, double cutoff) {
  const int n = p.size();
  const Bytes block = (m + n - 1) / n;
  w.ring.resize(std::size_t(n));
  for (int i = 0; i < n; ++i) w.ring[std::size_t(i)] = i;
  Phase phases[2];
  phases[0].plan = &scatter;
  phases[0].to_physical = default_or({}, root, n, w);
  phases[0].to_virtual = w.inverse.data();
  phases[1].plan = &ring;
  phases[1].to_physical = phases[1].to_virtual = w.ring.data();
  phases[1].chunks = std::size_t(n - 1);
  phases[1].base = std::size_t(n);
  for (Phase& ph : phases) ph.full = ph.last = double(block);
  return run_schedule(p, phases, 2,
                      std::size_t(n) + std::size_t(n) * std::size_t(n - 1),
                      wires, w, cutoff, nullptr);
}

}  // namespace

ScheduleSet::ScheduleSet(int n, const sim::Topology* topology)
    : ring_(compile_ring_schedule(n)), wires_(wire_layout(topology, n)) {
  for (const trees::TreeKind shape :
       {trees::TreeKind::kFlat, trees::TreeKind::kChain,
        trees::TreeKind::kBinary, trees::TreeKind::kBinomial})
    for (const CollectiveKind kind :
         {CollectiveKind::kScatter, CollectiveKind::kGather,
          CollectiveKind::kBcast, CollectiveKind::kReduce})
      trees_.push_back(compile_tree_schedule(shape, kind, n));
}

const ScheduleTemplate& ScheduleSet::plan(trees::TreeKind shape,
                                          CollectiveKind kind) const {
  return trees_[std::size_t(shape) * 4 + std::size_t(kind)];
}

double ScheduleSet::tree_time(const LmoParams& p, trees::TreeKind shape,
                              CollectiveKind kind, int root, Bytes m,
                              const std::vector<int>& mapping, Bytes segment,
                              ScheduleScratch& scratch, double cutoff) const {
  return replay_tree(p, plan(shape, kind), kind, root, m, mapping, segment,
                     wires_, scratch, cutoff);
}

double ScheduleSet::tree_lower_bound(const LmoParams& p,
                                     trees::TreeKind shape,
                                     CollectiveKind kind, int root, Bytes m,
                                     const std::vector<int>& mapping,
                                     Bytes segment,
                                     ScheduleScratch& scratch) const {
  const int n = p.size();
  Phase ph = chunked(m, segment);
  ph.plan = &plan(shape, kind);
  const int* map = ph.to_physical = bind_mapping(mapping, root, n, scratch);
  critical_path(p, ph, kind, scratch);
  const double chunks = double(ph.chunks);
  // Wire bytes of one op over all its chunks, each at least a frame.
  auto frames = [&](double factor) {
    return (chunks - 1.0) * std::max(factor * ph.full, kMinFrameBytes) +
           std::max(factor * ph.last, kMinFrameBytes);
  };
  double bound = 0.0;
  for (int v = 0; v < n; ++v) {
    const int r = map[v];
    double egress = 0.0, ingress = 0.0;
    for (const TemplateOp* op = ph.plan->begin(v); op != ph.plan->end(v);
         ++op) {
      const int peer = map[op->peer];
      if (op->recv)
        ingress += frames(op->factor) * p.inv_beta(peer, r);
      else
        egress += frames(op->factor) * p.inv_beta(r, peer);
    }
    const double path = scratch.head[std::size_t(v)] +
                        serial_cpu(p, ph, v, r) + scratch.tail[std::size_t(v)];
    bound = std::max({bound, path, egress, ingress});
  }
  return bound;
}

double ScheduleSet::binomial_closed_time(const LmoParams& p,
                                         CollectiveKind kind, int root,
                                         Bytes m,
                                         const std::vector<int>& mapping,
                                         ScheduleScratch& scratch) const {
  return binomial_closed(DenseTerms{p}, plan(trees::TreeKind::kBinomial, kind),
                         kind, default_or(mapping, root, p.size(), scratch),
                         m);
}

double ScheduleSet::binomial_floor(const UniformLmo& terms,
                                   CollectiveKind kind, Bytes m,
                                   ScheduleScratch& scratch) const {
  // Uniform terms make the mapping irrelevant; any permutation will do.
  const ScheduleTemplate& tpl = plan(trees::TreeKind::kBinomial, kind);
  return binomial_closed(UniformTerms{terms}, tpl, kind,
                         default_or({}, 0, int(tpl.start.size()) - 1, scratch),
                         m);
}

double ScheduleSet::scatter_allgather_bcast_time(
    const LmoParams& p, int root, Bytes m, ScheduleScratch& scratch,
    double cutoff) const {
  return replay_scatter_allgather(
      p, plan(trees::TreeKind::kBinomial, CollectiveKind::kScatter), ring_,
      root, m, wires_, scratch, cutoff);
}

double ring_allgather_time(const LmoParams& p, Bytes m) {
  p.validate();
  const int n = p.size();
  // Each of the n-1 steps completes when the slowest neighbour exchange
  // does: send processing + wire + receive processing over link (i, i+1).
  double step = 0.0;
  for (int i = 0; i < n; ++i) {
    const int j = (i + 1) % n;
    step = std::max(step, p.pt2pt(i, j, m));
  }
  return double(n - 1) * step;
}

}  // namespace lmo::core
