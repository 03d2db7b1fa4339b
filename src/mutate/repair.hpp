#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "mutate/log.hpp"
#include "partition/part1d.hpp"
#include "sim/exchange_channel.hpp"
#include "sim/runtime.hpp"
#include "support/thread_pool.hpp"

/// Incremental BFS repair after a mutation batch: only vertices whose tree
/// parent was invalidated re-enter the frontier, instead of a full
/// recompute.  Differential-oracle contract (ctest -L mutation): repaired
/// trees bit-match a full recompute on the mutated snapshot.  (SSSP answers
/// are never resident — the service computes them fresh per query — so
/// there is no distance repair.)
///
/// The repair runs two phases over the post-mutation 1D adjacency,
/// collectively:
///
///   1. **Cascade invalidation.**  Seeds are owned vertices whose tree
///      support was deleted by the batch; each invalidated vertex pushes to
///      its neighbors, and a receiver joins the invalid set when its parent
///      is the sender.  The invalid set is exactly the tree descendants of
///      the seeds; valid receivers are the repair boundary.
///   2. **Repair relaxation.**  Invalidated state resets to unreached;
///      boundary vertices and insert endpoints re-enter the frontier and
///      chaotic (Bellman-Ford) rounds relax until a fixpoint, which equals
///      the exact recompute because surviving depths never undershoot the
///      mutated graph's true depths.  The canonical max-global-id parent
///      rule is restored too: receivers take ties by max source, and a
///      receiver that cannot improve echoes its own depth back to a pushing
///      neighbor whose depth just dropped, so late same-depth parents are
///      never missed.
///
/// Affected-region discovery rides the ordinary ExchangeChannel pools —
/// encoded, checksummed, staged-backend routed — and a caller can hand in
/// resident primed channels so steady-state `comm.staging_allocs` stays 0.
namespace sunbfs::mutate {

/// Cascade invalidation push for global vertex `dst` (receiver-owned).
/// `val` names the support being revoked: the sender's global id (receiver
/// checks parent == val).
struct InvMsg {
  graph::Vertex dst;
  uint64_t val;
};

/// BFS repair relaxation: candidate depth `depth` for `dst` via parent
/// `src` (the sender's global id).
struct RelaxMsg {
  graph::Vertex dst;
  uint32_t depth;
  graph::Vertex src;
};

/// Depth value used for unreached vertices in the owned depth slices
/// (matches the service's query-tree convention).
inline constexpr int32_t kUnreachedDepth = -1;

/// Resident staging for the repair exchanges.  Prime once with the 1D
/// partition's worst case (everything a rank can push in one round is
/// bounded by its arc capacity) plus any expected insert headroom, then
/// reuse across mutation batches: steady allocs stay zero.
struct RepairChannels {
  sim::ExchangeChannel<InvMsg> inv;
  sim::ExchangeChannel<RelaxMsg> relax;

  void prime(sim::RankContext& ctx, size_t nthreads, size_t arc_cap,
             const sim::ExchangeOptions& exchange);

  uint64_t allocs() const {
    return inv.allocs() + relax.allocs();
  }
};

struct RepairOptions {
  /// Worker pool for the exchange legs; null runs single-threaded.
  ThreadPool* pool = nullptr;
  /// Resident primed channels; null uses private per-call ones.
  RepairChannels* channels = nullptr;
  sim::ExchangeOptions exchange;
};

struct RepairStats {
  uint64_t invalidated = 0;   ///< owned vertices invalidated (local)
  uint64_t seeds = 0;         ///< deletion/insert seeds (local)
  uint64_t relaxations = 0;   ///< candidate messages applied (local)
  int cascade_rounds = 0;     ///< collective invalidation rounds
  int repair_rounds = 0;      ///< collective relaxation rounds
  double compute_model_s = 0;  ///< modeled local scan cost (not replicated)

  void merge(const RepairStats& o) {
    invalidated += o.invalidated;
    seeds += o.seeds;
    relaxations += o.relaxations;
    cascade_rounds += o.cascade_rounds;
    repair_rounds += o.repair_rounds;
    compute_model_s += o.compute_model_s;
  }
};

/// Repair one BFS tree in place after `batch` was applied to `part`.
/// `parent`/`depth` are this rank's owned slices (local index order) of a
/// tree rooted at `root` that was exact before the mutation; on return they
/// bit-match a fresh traversal of the mutated graph (canonical
/// max-global-id parents).  Collective.
RepairStats repair_bfs(sim::RankContext& ctx, const partition::Part1d& part,
                       const MutationBatch& batch, graph::Vertex root,
                       std::span<graph::Vertex> parent,
                       std::span<int32_t> depth,
                       const RepairOptions& options = {});

}  // namespace sunbfs::mutate

namespace sunbfs::sim {

/// Wire codec for cascade invalidations: destination keys the sort/bitmap,
/// the revoked-support value rides as a varint.
template <>
struct WireFormat<mutate::InvMsg> {
  static uint64_t key(const mutate::InvMsg& m) { return uint64_t(m.dst); }
  static bool less(const mutate::InvMsg& a, const mutate::InvMsg& b) {
    return a.dst != b.dst ? a.dst < b.dst : a.val < b.val;
  }
  static size_t rest_size(const mutate::InvMsg& m) {
    return varint_size(m.val);
  }
  static uint8_t* put_rest(const mutate::InvMsg& m, uint8_t* p) {
    return put_varint(p, m.val);
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, mutate::InvMsg& m) {
    if (key > uint64_t(INT64_MAX)) return nullptr;
    uint64_t v = 0;
    p = get_varint(p, end, &v);
    if (p == nullptr) return nullptr;
    m.dst = graph::Vertex(key);
    m.val = v;
    return p;
  }
};

/// Staged-exchange fold for invalidations: a revocation is identified by
/// (dst, val), so only exact duplicates collapse — folding different
/// supports together would drop invalidations.
template <>
struct ExchangeMergePolicy<mutate::InvMsg> {
  static constexpr bool enabled = true;
  static bool same(const mutate::InvMsg& a, uint32_t /*a_src*/,
                   const mutate::InvMsg& b, uint32_t /*b_src*/) {
    return a.dst == b.dst && a.val == b.val;
  }
  static void fold(mutate::InvMsg& /*into*/, uint32_t& into_src_part,
                   const mutate::InvMsg& /*from*/, uint32_t from_src_part) {
    // Identical payloads; keep the smaller source lane for determinism.
    if (from_src_part < into_src_part) into_src_part = from_src_part;
  }
};

/// Wire codec for BFS repair relaxations: varint depth then varint parent.
template <>
struct WireFormat<mutate::RelaxMsg> {
  static uint64_t key(const mutate::RelaxMsg& m) { return uint64_t(m.dst); }
  static bool less(const mutate::RelaxMsg& a, const mutate::RelaxMsg& b) {
    if (a.dst != b.dst) return a.dst < b.dst;
    if (a.depth != b.depth) return a.depth < b.depth;
    return a.src < b.src;
  }
  static size_t rest_size(const mutate::RelaxMsg& m) {
    return varint_size(m.depth) + varint_size(uint64_t(m.src));
  }
  static uint8_t* put_rest(const mutate::RelaxMsg& m, uint8_t* p) {
    p = put_varint(p, m.depth);
    return put_varint(p, uint64_t(m.src));
  }
  static const uint8_t* get_rest(const uint8_t* p, const uint8_t* end,
                                 uint64_t key, mutate::RelaxMsg& m) {
    if (key > uint64_t(INT64_MAX)) return nullptr;
    uint64_t d = 0, s = 0;
    p = get_varint(p, end, &d);
    if (p == nullptr) return nullptr;
    p = get_varint(p, end, &s);
    if (p == nullptr) return nullptr;
    if (d > uint64_t(UINT32_MAX) || s > uint64_t(INT64_MAX)) return nullptr;
    m.dst = graph::Vertex(key);
    m.depth = uint32_t(d);
    m.src = graph::Vertex(s);
    return p;
  }
};

/// BFS repair relaxations must NOT merge in flight: the receiver echoes its
/// own depth back to each pushing source (the late same-depth-parent rule
/// above), so collapsing two sources' candidates for one destination would
/// silently drop an echo and with it a canonical parent.  Staged backends
/// still route the messages; they just carry them unmerged.
template <>
struct ExchangeMergePolicy<mutate::RelaxMsg> {
  static constexpr bool enabled = false;
};

}  // namespace sunbfs::sim
