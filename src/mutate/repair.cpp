#include "mutate/repair.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "support/bitvector.hpp"
#include "support/check.hpp"

namespace sunbfs::mutate {

using graph::Vertex;
using graph::kNoVertex;

void RepairChannels::prime(sim::RankContext& ctx, size_t nthreads,
                           size_t arc_cap,
                           const sim::ExchangeOptions& exchange) {
  // One round stages at most one message per live arc from the frontier
  // side plus one echo per received message, so 2x arc capacity bounds
  // every leg.  Repair stages serially (lane 0); `nthreads` lanes
  // are primed anyway so a pooled begin() never grows.
  const size_t cap = 2 * arc_cap + 64;
  auto prime_one = [&](auto& ch) {
    ch.configure(ctx, exchange);
    ch.prime(nthreads, cap, cap, cap);
  };
  prime_one(inv);
  prime_one(relax);
}

namespace {

/// Shared per-call state of one repair: the invalid/boundary sets from the
/// cascade phase and the relaxation frontier.
struct RepairState {
  BitVector invalid;
  BitVector boundary;
  BitVector in_frontier;
  std::vector<uint32_t> wave;      // cascade: newly invalidated locals
  std::vector<uint32_t> frontier;  // repair: locals to push from

  explicit RepairState(uint64_t local_count)
      : invalid(size_t(local_count)),
        boundary(size_t(local_count)),
        in_frontier(size_t(local_count)) {}

  void invalidate(uint64_t lloc, RepairStats& stats) {
    if (invalid.get(size_t(lloc))) return;
    invalid.set(size_t(lloc));
    wave.push_back(uint32_t(lloc));
    ++stats.invalidated;
  }

  void enqueue(uint64_t lloc) {
    if (in_frontier.test_and_set(size_t(lloc))) frontier.push_back(uint32_t(lloc));
  }
};

}  // namespace

RepairStats repair_bfs(sim::RankContext& ctx, const partition::Part1d& part,
                       const MutationBatch& batch, Vertex root,
                       std::span<Vertex> parent, std::span<int32_t> depth,
                       const RepairOptions& options) {
  const partition::VertexSpace& space = part.space;
  const uint64_t local_count = space.count(ctx.rank);
  SUNBFS_CHECK(parent.size() == local_count && depth.size() == local_count);

  std::unique_ptr<ThreadPool> owned_pool;
  if (options.pool == nullptr) owned_pool = std::make_unique<ThreadPool>(1);
  ThreadPool& pool = options.pool != nullptr ? *options.pool : *owned_pool;
  std::unique_ptr<RepairChannels> owned_ch;
  if (options.channels == nullptr) {
    owned_ch = std::make_unique<RepairChannels>();
    owned_ch->prime(ctx, 1, size_t(part.adj.arc_capacity()),
                    options.exchange);
  }
  RepairChannels& ch =
      options.channels != nullptr ? *options.channels : *owned_ch;

  RepairStats stats;
  RepairState st(local_count);
  uint64_t arcs_scanned = 0;

  // ---- Phase 1: cascade invalidation. ---------------------------------
  // Deletion seeds need no round trip: the parent array stores the global
  // parent id, so the owner of the child checks the revoked tree edge
  // locally; seeds go straight into the first wave.
  for (const graph::Edge& e : batch.deletes) {
    auto seed = [&](Vertex child, Vertex lost_parent) {
      if (child == root || space.owner(child) != ctx.rank) return;
      uint64_t lv = space.to_local(ctx.rank, child);
      if (parent[lv] == lost_parent && child != lost_parent)
        st.invalidate(lv, stats);
    };
    seed(e.u, e.v);
    seed(e.v, e.u);
  }
  stats.seeds = st.wave.size();

  // Each round stages every newly invalidated vertex's revocations; a
  // receiver invalidates its vertex if the revoked edge was its tree edge,
  // and otherwise marks it a repair boundary.  The staged count rides the
  // round's exchange; a round nobody staged for delivers nothing and ends
  // the cascade.
  for (;;) {
    ch.inv.begin_world(1);
    uint64_t staged = 0;
    for (uint32_t lv : st.wave) {
      Vertex g = space.to_global(ctx.rank, lv);
      for (Vertex nbr : part.adj.neighbors(lv)) {
        ch.inv.push(0, size_t(space.owner(nbr)), InvMsg{nbr, uint64_t(g)});
        ++staged;
      }
      arcs_scanned += part.adj.degree(lv);
    }
    st.wave.clear();
    std::span<const InvMsg> got =
        ch.inv.exchange(ctx.world, pool, sim::Rider(staged, std::plus<>{}));
    if (staged == 0) break;
    ++stats.cascade_rounds;
    for (const InvMsg& m : got) {
      uint64_t lv = space.to_local(ctx.rank, m.dst);
      if (st.invalid.get(size_t(lv))) continue;
      if (parent[lv] == Vertex(m.val) && m.dst != root)
        st.invalidate(lv, stats);
      else
        st.boundary.set(size_t(lv));
    }
  }

  // ---- Phase 2: reset + repair relaxation. ----------------------------
  st.invalid.for_each_set([&](size_t lv) {
    parent[lv] = kNoVertex;
    depth[lv] = kUnreachedDepth;
  });
  st.boundary.and_not(st.invalid);
  st.boundary.for_each_set([&](size_t lv) {
    if (depth[lv] >= 0) st.enqueue(lv);
  });
  for (const graph::Edge& e : batch.inserts) {
    for (Vertex a : {e.u, e.v}) {
      if (space.owner(a) != ctx.rank) continue;
      uint64_t la = space.to_local(ctx.rank, a);
      if (!st.invalid.get(size_t(la)) && depth[la] >= 0) st.enqueue(la);
    }
  }
  stats.seeds += st.frontier.size();

  std::vector<RelaxMsg> echoes;
  for (;;) {
    ch.relax.begin_world(1);
    uint64_t staged = 0;
    for (uint32_t lv : st.frontier) {
      SUNBFS_ASSERT(depth[lv] >= 0);
      Vertex g = space.to_global(ctx.rank, lv);
      uint32_t cand = uint32_t(depth[lv]) + 1;
      for (Vertex nbr : part.adj.neighbors(lv)) {
        ch.relax.push(0, size_t(space.owner(nbr)), RelaxMsg{nbr, cand, g});
        ++staged;
      }
      arcs_scanned += part.adj.degree(lv);
    }
    for (const RelaxMsg& m : echoes) {
      ch.relax.push(0, size_t(space.owner(m.dst)), m);
      ++staged;
    }
    echoes.clear();
    st.frontier.clear();
    st.in_frontier.reset();
    std::span<const RelaxMsg> got =
        ch.relax.exchange(ctx.world, pool, sim::Rider(staged, std::plus<>{}));
    if (staged == 0) break;
    ++stats.repair_rounds;
    for (const RelaxMsg& m : got) {
      uint64_t lv = space.to_local(ctx.rank, m.dst);
      int64_t dv = depth[lv] < 0 ? std::numeric_limits<int64_t>::max()
                                 : int64_t(depth[lv]);
      if (int64_t(m.depth) < dv) {
        depth[lv] = int32_t(m.depth);
        parent[lv] = m.src;
        ++stats.relaxations;
        st.enqueue(lv);
      } else if (int64_t(m.depth) == dv && m.src > parent[lv]) {
        parent[lv] = m.src;
        ++stats.relaxations;
        // A parent-only improvement changes no depth: nothing downstream
        // of lv can move, so it does not re-enter the frontier.
      }
      // Late same-depth parents: if this vertex could be a (tied-or-better)
      // parent for the pusher, answer with its own depth.  The pusher's
      // depth just changed (or it seeded), so without the echo a
      // never-changed neighbor's candidacy would be lost.
      if (depth[lv] >= 0 && uint32_t(depth[lv]) + 2 <= m.depth &&
          m.src != m.dst)
        echoes.push_back(
            RelaxMsg{m.src, uint32_t(depth[lv]) + 1, m.dst});
    }
  }

  stats.compute_model_s = double(arcs_scanned) * sim::kModeledSecondsPerEdge;
  return stats;
}

}  // namespace sunbfs::mutate
