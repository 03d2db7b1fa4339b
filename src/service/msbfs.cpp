#include "service/msbfs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>

#include "bfs/workspace.hpp"
#include "obs/trace.hpp"
#include "service/query.hpp"
#include "sim/recover.hpp"
#include "support/check.hpp"

namespace sunbfs::service {

using graph::Vertex;
using graph::kNoVertex;

namespace {

/// Lock-free fetch-max, the same determinism scheme as the single-root
/// engines: every concurrent candidate for a slot is recorded and the
/// maximum wins, so the output is independent of the thread count.
void store_max(Vertex& slot, Vertex v) {
  std::atomic_ref<Vertex> a(slot);
  Vertex cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_or(uint64_t& slot, uint64_t bits) {
  std::atomic_ref<uint64_t> a(slot);
  a.fetch_or(bits, std::memory_order_relaxed);
}

void atomic_add(uint64_t& slot, uint64_t delta) {
  std::atomic_ref<uint64_t> a(slot);
  a.fetch_add(delta, std::memory_order_relaxed);
}

}  // namespace

MsbfsResult msbfs_run(sim::RankContext& ctx, const partition::Part1d& part,
                      std::span<const Vertex> roots,
                      const MsbfsOptions& options) {
  const partition::VertexSpace& space = part.space;
  const int width = int(roots.size());
  SUNBFS_CHECK(width >= 1 && width <= kMaxBatchWidth);
  SUNBFS_CHECK(space.max_count() < (uint64_t(1) << 32));
  const uint64_t local_count = space.count(ctx.rank);
  const uint64_t width_mask =
      width == 64 ? ~uint64_t(0) : (uint64_t(1) << width) - 1;

  std::unique_ptr<bfs::BfsWorkspace> owned_ws;
  if (!options.workspace)
    owned_ws = std::make_unique<bfs::BfsWorkspace>(resolve_threads_per_rank(
        options.threads_per_rank, size_t(ctx.nranks())));
  bfs::BfsWorkspace& ws = options.workspace ? *options.workspace : *owned_ws;
  ThreadPool& pool = ws.pool();
  std::unique_ptr<sim::ExchangeChannel<MsbfsMsg>> owned_staging;
  if (!options.staging) {
    owned_staging = std::make_unique<sim::ExchangeChannel<MsbfsMsg>>();
    owned_staging->configure(ctx, options.exchange);
  }
  sim::ExchangeChannel<MsbfsMsg>& staging =
      options.staging ? *options.staging : *owned_staging;
  ws.frontier().set_encoded(options.exchange.encoding);

  MsbfsResult result;
  result.width = width;
  result.parent.assign(size_t(width) * local_count, kNoVertex);
  result.levels.assign(size_t(width), 0);
  if (options.record_depths)
    result.depth.assign(size_t(width) * local_count, int32_t(-1));
  Vertex* parent = result.parent.data();

  // One query-mask word per owned vertex: bit q belongs to query q.
  std::vector<uint64_t> visited(local_count, 0);
  std::vector<uint64_t> curr(local_count, 0);
  std::vector<uint64_t> next(local_count, 0);

  for (int q = 0; q < width; ++q) {
    Vertex root = roots[size_t(q)];
    SUNBFS_CHECK(root >= 0 && uint64_t(root) < space.total);
    if (space.owner(root) != ctx.rank) continue;
    uint64_t lloc = space.to_local(ctx.rank, root);
    visited[lloc] |= uint64_t(1) << q;
    curr[lloc] |= uint64_t(1) << q;
    parent[size_t(q) * local_count + lloc] = root;
    if (options.record_depths) result.depth[size_t(q) * local_count + lloc] = 0;
  }

  // Thread-safe visit: `visited` only moves in the serial per-level commit,
  // so the fresh-bit set is stable during a threaded phase; every candidate
  // source for a fresh (vertex, query) pair reaches store_max and the
  // maximum wins, independent of thread count and message order.
  auto visit = [&](uint64_t lloc, uint64_t mask, Vertex p) {
    uint64_t fresh = mask & ~visited[lloc];
    if (fresh == 0) return;
    atomic_or(next[lloc], fresh);
    while (fresh != 0) {
      int q = std::countr_zero(fresh);
      fresh &= fresh - 1;
      store_max(parent[size_t(q) * local_count + lloc], p);
    }
  };

  auto run_push = [&] {
    staging.begin_world(pool.size());
    size_t parts = pool.size();
    pool.run_chunks(parts, [&](size_t lane) {
      uint64_t lo = local_count * lane / parts;
      uint64_t hi = local_count * (lane + 1) / parts;
      uint64_t edges = 0;
      for (uint64_t lloc = lo; lloc < hi; ++lloc) {
        uint64_t mask = curr[lloc];
        if (mask == 0) continue;
        Vertex gsrc = space.to_global(ctx.rank, lloc);
        for (Vertex v : part.adj.neighbors(lloc)) {
          int owner = space.owner(v);
          if (owner == ctx.rank)
            visit(space.to_local(owner, v), mask, gsrc);
          else
            staging.push(lane, size_t(owner),
                         MsbfsMsg{uint32_t(space.to_local(owner, v)),
                                  uint32_t(lloc), mask});
        }
        edges += part.adj.degree(lloc);
      }
      atomic_add(result.work_edges, edges);
    });
    auto got = staging.exchange(ctx.world, pool);
    const auto& src_off = staging.src_offsets();
    pool.parallel_for(0, size_t(ctx.nranks()), [&](size_t lo, size_t hi) {
      for (size_t src = lo; src < hi; ++src)
        for (size_t i = src_off[src]; i < src_off[src + 1]; ++i)
          visit(got[i].dst, got[i].mask,
                space.to_global(int(src), Vertex(got[i].src)));
    });
  };

  auto run_pull = [&] {
    std::span<const uint64_t> gathered =
        ws.frontier().gather(ctx.world, std::span<const uint64_t>(curr));
    const std::vector<size_t>& off = ws.frontier().offsets();
    pool.parallel_for(0, size_t(local_count), [&](size_t lo, size_t hi) {
      uint64_t edges = 0;
      for (uint64_t lloc = lo; lloc < hi; ++lloc) {
        uint64_t pending = ~visited[lloc] & width_mask;
        if (pending == 0) continue;
        // Canonical parent rule: scan every neighbour (no early exit) and
        // keep the maximum frontier source per pending query.
        Vertex cand[kMaxBatchWidth];
        uint64_t found = 0;
        for (Vertex u : part.adj.neighbors(lloc)) {
          ++edges;
          int owner = space.owner(u);
          uint64_t hits =
              gathered[off[size_t(owner)] + (uint64_t(u) - space.begin(owner))] &
              pending;
          while (hits != 0) {
            int q = std::countr_zero(hits);
            hits &= hits - 1;
            if ((found >> q & 1) == 0 || cand[q] < u) {
              cand[q] = u;
              found |= uint64_t(1) << q;
            }
          }
        }
        if (found == 0) continue;
        next[lloc] |= found;  // this thread owns lloc's whole block
        uint64_t bits = found;
        while (bits != 0) {
          int q = std::countr_zero(bits);
          bits &= bits - 1;
          parent[size_t(q) * local_count + lloc] = cand[q];
        }
      }
      atomic_add(result.work_edges, edges);
    });
  };

  // Checkpoint/rollback recovery (sim/recover.hpp), the bfs1d contract
  // extended to the batch: snapshot {visited, frontier, parents, levels}
  // every sim::kCheckpointInterval levels.  Nothing is committed from a faulty
  // pass, so the replayed batch stays bit-identical to a fault-free run.
  struct Checkpoint {
    std::vector<uint64_t> visited, curr;
    std::vector<Vertex> parent;
    std::vector<int> levels;
    std::vector<int32_t> depth;
  } ckpt;
  sim::Recovery recovery(
      ctx, options.recovery, "msbfs",
      {.save =
           [&] {
             ckpt.visited = visited;
             ckpt.curr = curr;
             ckpt.parent.assign(result.parent.begin(), result.parent.end());
             ckpt.levels = result.levels;
             ckpt.depth = result.depth;
           },
       .restore =
           [&] {
             visited = ckpt.visited;
             curr = ckpt.curr;
             std::fill(next.begin(), next.end(), uint64_t(0));
             std::copy(ckpt.parent.begin(), ckpt.parent.end(),
                       result.parent.begin());
             result.levels = ckpt.levels;
             result.depth = ckpt.depth;
           },
       .crash =
           [&] {
             std::fill(visited.begin(), visited.end(), uint64_t(0));
             std::fill(curr.begin(), curr.end(), uint64_t(0));
             std::fill(next.begin(), next.end(), uint64_t(0));
             std::fill(result.parent.begin(), result.parent.end(), kNoVertex);
           }});

  obs::Span run_span("service", "msbfs", width);
  recovery.checkpoint(0);
  int iteration = 0;
  for (;;) {
    ++iteration;
    if (!recovery.begin(iteration)) continue;
    uint64_t active = 0;
    for (uint64_t w : curr) active += uint64_t(std::popcount(w));
    active = ctx.world.allreduce_sum(active);
    const bool frontier_empty = active == 0;
    uint64_t newmask = 0;
    if (!frontier_empty) {
      bool bottom_up = double(active) / (double(space.total) * width) >
                       options.pull_ratio;
      {
        obs::Span level_span("service", bottom_up ? "level_pull" : "level_push",
                             int64_t(active));
        if (bottom_up)
          run_pull();
        else
          run_push();
      }
      // Which queries discovered vertices this level (their depth grew to
      // `iteration`) — replicated so every rank tracks the same levels.
      for (uint64_t w : next) newmask |= w;
      newmask = ctx.world.allreduce(
          newmask, [](uint64_t a, uint64_t b) { return a | b; });
    }
    // The pass commits nothing until every rank is known clean, so a
    // rollback discards the level wholesale (including the possibly-poisoned
    // `active`/newmask words).
    if (!recovery.commit(iteration)) continue;
    if (frontier_empty) break;
    for (int q = 0; q < width; ++q)
      if (newmask >> q & 1) result.levels[size_t(q)] = iteration;
    // Depth stamping rides the serial commit: every bit in `next` is fresh
    // (visit/pull only set unvisited bits), so its depth is this level.
    if (options.record_depths)
      for (uint64_t i = 0; i < local_count; ++i) {
        uint64_t bits = next[i];
        while (bits != 0) {
          int q = std::countr_zero(bits);
          bits &= bits - 1;
          result.depth[size_t(q) * local_count + i] = int32_t(iteration);
        }
      }
    for (uint64_t i = 0; i < local_count; ++i) visited[i] |= next[i];
    std::swap(curr, next);
    std::fill(next.begin(), next.end(), uint64_t(0));
    recovery.checkpoint(iteration);
  }
  result.num_iterations = iteration - 1;
  result.compute_model_s = double(result.work_edges) *
                           options.sim_seconds_per_edge / double(pool.size());
  // The collectives advanced the modeled clock by their network seconds;
  // account the batch's compute on the same (deterministic) clock.
  obs::Tracer::advance_modeled(result.compute_model_s);
  return result;
}

}  // namespace sunbfs::service
