#include "mutate/repair.hpp"

#include <algorithm>
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
  // side plus one echo per received message (BFS only), so 2x arc capacity
  // bounds every leg.  Repair stages serially (lane 0); `nthreads` lanes
  // are primed anyway so a pooled begin() never grows.
  const size_t cap = 2 * arc_cap + 64;
  auto prime_one = [&](auto& ch) {
    ch.configure(ctx, exchange);
    ch.prime(nthreads, cap, cap, cap);
  };
  prime_one(inv);
  prime_one(relax);
  prime_one(dist);
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

/// Cascade invalidation shared by both repairs.  `seed_round` stages the
/// deletion-support revocations (round 0); `push_from` stages one
/// invalidated vertex's revocations; `on_msg` applies one received
/// revocation, returning the local index to invalidate or -1.
template <typename SeedFn, typename PushFn, typename MsgFn>
void run_cascade(sim::RankContext& ctx, const partition::VertexSpace& space,
                 sim::ExchangeChannel<InvMsg>& ch, ThreadPool& pool,
                 RepairState& st, RepairStats& stats, SeedFn&& seed_round,
                 PushFn&& push_from, MsgFn&& on_msg) {
  bool first = true;
  for (;;) {
    ch.begin_world(1);
    uint64_t staged = 0;
    auto push = [&](Vertex dst, uint64_t val) {
      ch.push(0, size_t(space.owner(dst)), InvMsg{dst, val});
      ++staged;
    };
    if (first) {
      seed_round(push);
      first = false;
    }
    for (uint32_t lv : st.wave) push_from(lv, push);
    st.wave.clear();
    if (ctx.world.allreduce_sum(staged) == 0) break;
    ++stats.cascade_rounds;
    std::span<const InvMsg> got = ch.exchange(ctx.world, pool);
    for (const InvMsg& m : got) {
      uint64_t lv = space.to_local(ctx.rank, m.dst);
      if (st.invalid.get(size_t(lv))) continue;
      if (on_msg(lv, m)) {
        st.invalidate(lv, stats);
      } else {
        st.boundary.set(size_t(lv));
      }
    }
  }
}

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
  // locally.  The seed round therefore stages nothing; seeds go straight
  // into the first wave.
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

  run_cascade(
      ctx, space, ch.inv, pool, st, stats,
      /*seed_round=*/[&](auto&& /*push*/) {},
      /*push_from=*/
      [&](uint32_t lv, auto&& push) {
        Vertex g = space.to_global(ctx.rank, lv);
        for (Vertex nbr : part.adj.neighbors(lv)) push(nbr, uint64_t(g));
        arcs_scanned += part.adj.degree(lv);
      },
      /*on_msg=*/
      [&](uint64_t lv, const InvMsg& m) {
        return parent[lv] == Vertex(m.val) && m.dst != root;
      });

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
    if (ctx.world.allreduce_sum(staged) == 0) break;
    ++stats.repair_rounds;
    std::span<const RelaxMsg> got = ch.relax.exchange(ctx.world, pool);
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

  stats.compute_model_s = double(arcs_scanned) * options.sim_seconds_per_edge;
  return stats;
}

RepairStats repair_sssp(sim::RankContext& ctx, const partition::Part1d& part,
                        const MutationBatch& batch, Vertex root,
                        std::span<analytics::Dist> dist,
                        const analytics::SsspOptions& weights,
                        const RepairOptions& options) {
  using analytics::Dist;
  using analytics::kInfDist;
  const partition::VertexSpace& space = part.space;
  const uint64_t local_count = space.count(ctx.rank);
  SUNBFS_CHECK(dist.size() == local_count);

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

  auto weight = [&](Vertex a, Vertex b) {
    return analytics::edge_weight(a, b, weights.weight_seed,
                                  weights.max_weight);
  };

  RepairStats stats;
  RepairState st(local_count);
  uint64_t arcs_scanned = 0;

  // ---- Phase 1: cascade invalidation. ---------------------------------
  // A deletion seed needs the far endpoint's old distance, so the seed
  // round messages each deleted edge's revoked tightness from the endpoint
  // owners (the deleted arcs are already gone from the adjacency).
  run_cascade(
      ctx, space, ch.inv, pool, st, stats,
      /*seed_round=*/
      [&](auto&& push) {
        for (const graph::Edge& e : batch.deletes) {
          auto seed = [&](Vertex from, Vertex to) {
            if (from == to || space.owner(from) != ctx.rank) return;
            uint64_t lf = space.to_local(ctx.rank, from);
            if (dist[lf] < kInfDist)
              push(to, uint64_t(dist[lf] + weight(from, to)));
          };
          seed(e.u, e.v);
          seed(e.v, e.u);
        }
      },
      /*push_from=*/
      [&](uint32_t lv, auto&& push) {
        // dist[lv] still holds the pre-reset value during the cascade.
        Vertex g = space.to_global(ctx.rank, lv);
        for (Vertex nbr : part.adj.neighbors(lv))
          push(nbr, uint64_t(dist[lv] + weight(g, nbr)));
        arcs_scanned += part.adj.degree(lv);
      },
      /*on_msg=*/
      [&](uint64_t lv, const InvMsg& m) {
        // The root's distance 0 can never equal a positive-weight basis.
        return dist[lv] < kInfDist && dist[lv] == Dist(m.val);
      });
  stats.seeds = stats.invalidated;

  // ---- Phase 2: reset + repair relaxation. ----------------------------
  st.invalid.for_each_set([&](size_t lv) { dist[lv] = kInfDist; });
  st.boundary.and_not(st.invalid);
  st.boundary.for_each_set([&](size_t lv) {
    if (dist[lv] < kInfDist) st.enqueue(lv);
  });
  for (const graph::Edge& e : batch.inserts) {
    for (Vertex a : {e.u, e.v}) {
      if (space.owner(a) != ctx.rank) continue;
      uint64_t la = space.to_local(ctx.rank, a);
      if (!st.invalid.get(size_t(la)) && dist[la] < kInfDist) st.enqueue(la);
    }
  }
  (void)root;

  for (;;) {
    ch.dist.begin_world(1);
    uint64_t staged = 0;
    for (uint32_t lv : st.frontier) {
      Vertex g = space.to_global(ctx.rank, lv);
      for (Vertex nbr : part.adj.neighbors(lv)) {
        ch.dist.push(0, size_t(space.owner(nbr)),
                     analytics::DistMsg{nbr, dist[lv] + weight(g, nbr)});
        ++staged;
      }
      arcs_scanned += part.adj.degree(lv);
    }
    st.frontier.clear();
    st.in_frontier.reset();
    if (ctx.world.allreduce_sum(staged) == 0) break;
    ++stats.repair_rounds;
    std::span<const analytics::DistMsg> got = ch.dist.exchange(ctx.world, pool);
    for (const analytics::DistMsg& m : got) {
      uint64_t lv = space.to_local(ctx.rank, m.dst);
      if (m.value < dist[lv]) {
        dist[lv] = m.value;
        ++stats.relaxations;
        st.enqueue(lv);
      }
    }
  }

  stats.compute_model_s = double(arcs_scanned) * options.sim_seconds_per_edge;
  return stats;
}

}  // namespace sunbfs::mutate
