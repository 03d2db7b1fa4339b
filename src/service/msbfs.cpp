#include "service/msbfs.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <memory>

#include "bfs/gathered_frontier.hpp"
#include "bfs/level_loop.hpp"
#include "bfs/messages.hpp"
#include "bfs/workspace.hpp"
#include "obs/trace.hpp"
#include "service/query.hpp"
#include "sim/recover.hpp"
#include "support/bitvector.hpp"
#include "support/check.hpp"

namespace sunbfs::service {

using graph::Vertex;
using graph::kNoVertex;

namespace {

/// OR `bits` into `slot`, returning its previous value.
uint64_t atomic_or(uint64_t& slot, uint64_t bits) {
  std::atomic_ref<uint64_t> a(slot);
  return a.fetch_or(bits, std::memory_order_relaxed);
}

void atomic_add(uint64_t& slot, uint64_t delta) {
  std::atomic_ref<uint64_t> a(slot);
  a.fetch_add(delta, std::memory_order_relaxed);
}

/// Control words of a level, folded on a push level's exchange (sim::Rider)
/// or, when an exact count is needed, in one allreduce: the frontier's
/// (vertex, query) bit count, an upper bound on the next frontier's (claims
/// before the exchange plus the query bits of every staged message, each of
/// which claims at most those bits), and the OR of the frontier masks — the
/// queries that discovered vertices in the previous level.
struct Counts {
  uint64_t frontier = 0;
  uint64_t bound = 0;
  uint64_t queries = 0;
};

struct FoldCounts {
  Counts operator()(const Counts& a, const Counts& b) const {
    return {a.frontier + b.frontier, a.bound + b.bound, a.queries | b.queries};
  }
};

/// Fresh (vertex, query) bits claimed by one worker, merged per level.
struct Claims {
  uint64_t bits = 0;
  uint64_t queries = 0;
  void add(uint64_t claimed) {
    if (claimed == 0) return;
    bits += uint64_t(std::popcount(claimed));
    queries |= claimed;
  }
};

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
  auto& staging = ws.batch_visits();
  staging.configure(ctx, options.exchange);

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

  // This rank's frontier bits and query OR (`curr`'s), and the level's
  // fresh claims so far (`next`'s): counted as bits are claimed, never by a
  // popcount scan.
  Counts curr_local;
  std::atomic<uint64_t> claim_bits{0}, claim_queries{0};
  auto merge_claims = [&](const Claims& c) {
    claim_bits += c.bits;
    claim_queries |= c.queries;
  };

  for (int q = 0; q < width; ++q) {
    Vertex root = roots[size_t(q)];
    SUNBFS_CHECK(root >= 0 && uint64_t(root) < space.total);
    if (space.owner(root) != ctx.rank) continue;
    uint64_t lloc = space.to_local(ctx.rank, root);
    visited[lloc] |= uint64_t(1) << q;
    curr[lloc] |= uint64_t(1) << q;
    parent[size_t(q) * local_count + lloc] = root;
    if (options.record_depths) result.depth[size_t(q) * local_count + lloc] = 0;
    curr_local.frontier += 1;
    curr_local.queries |= uint64_t(1) << q;
  }

  // Thread-safe visit: `visited` only moves in the serial per-level commit,
  // so the fresh-bit set is stable during a threaded phase; every candidate
  // source for a fresh (vertex, query) pair reaches store_max and the
  // maximum wins, independent of thread count and message order.  Returns
  // the `next` bits this call set first.
  auto visit = [&](uint64_t lloc, uint64_t mask, Vertex p) -> uint64_t {
    uint64_t fresh = mask & ~visited[lloc];
    if (fresh == 0) return 0;
    const uint64_t claimed = fresh & ~atomic_or(next[lloc], fresh);
    while (fresh != 0) {
      int q = std::countr_zero(fresh);
      fresh &= fresh - 1;
      store_max(parent[size_t(q) * local_count + lloc], p);
    }
    return claimed;
  };

  // Push, first half: stage one message per cross-rank frontier arc.
  auto stage = [&] {
    staging.begin_world(pool.size());
    std::atomic<uint64_t> staged_bits{0};
    size_t parts = pool.size();
    pool.run_chunks(parts, [&](size_t lane) {
      uint64_t lo = local_count * lane / parts;
      uint64_t hi = local_count * (lane + 1) / parts;
      uint64_t edges = 0, staged = 0;
      Claims claims;
      for (uint64_t lloc = lo; lloc < hi; ++lloc) {
        uint64_t mask = curr[lloc];
        if (mask == 0) continue;
        Vertex gsrc = space.to_global(ctx.rank, lloc);
        const uint64_t mask_bits = uint64_t(std::popcount(mask));
        for (Vertex v : part.adj.neighbors(lloc)) {
          int owner = space.owner(v);
          if (owner == ctx.rank) {
            claims.add(visit(space.to_local(owner, v), mask, gsrc));
          } else {
            staging.push(lane, size_t(owner),
                         bfs::MsbfsMsg{uint32_t(space.to_local(owner, v)),
                                       uint32_t(lloc), mask});
            staged += mask_bits;
          }
        }
        edges += part.adj.degree(lloc);
      }
      atomic_add(result.work_edges, edges);
      merge_claims(claims);
      staged_bits += staged;
    });
    return claim_bits + staged_bits;
  };
  auto deliver = [&](sim::Rider rider) {
    auto got = staging.exchange(ctx.world, pool, rider);
    const auto& src_off = staging.src_offsets();
    pool.parallel_for(0, size_t(ctx.nranks()), [&](size_t lo, size_t hi) {
      Claims claims;
      for (size_t src = lo; src < hi; ++src)
        for (size_t i = src_off[src]; i < src_off[src + 1]; ++i)
          claims.add(visit(got[i].dst, got[i].mask,
                           space.to_global(int(src), Vertex(got[i].src))));
      merge_claims(claims);
    });
  };

  auto pull = [&] {
    const bfs::FrontierView frontier = ws.frontier().gather(
        ctx.world, space, curr, bfs::FrontierLayout::Words,
        options.exchange.encoding);
    pool.parallel_for(0, size_t(local_count), [&](size_t lo, size_t hi) {
      uint64_t edges = 0;
      Claims claims;
      for (uint64_t lloc = lo; lloc < hi; ++lloc) {
        uint64_t pending = ~visited[lloc] & width_mask;
        if (pending == 0) continue;
        // The row is descending (Part1d::adj), so each pending query's first
        // frontier hit is its max-id parent; stop once every query has one.
        uint64_t found = 0;
        for (Vertex u : part.adj.neighbors(lloc)) {
          ++edges;
          uint64_t hits = frontier.word(u) & pending;
          if (hits == 0) continue;
          found |= hits;
          pending &= ~hits;
          while (hits != 0) {
            int q = std::countr_zero(hits);
            hits &= hits - 1;
            parent[size_t(q) * local_count + lloc] = u;
          }
          if (pending == 0) break;
        }
        if (found == 0) continue;
        next[lloc] |= found;  // this thread owns lloc's whole block
        claims.add(found);    // pending bits: all fresh
      }
      atomic_add(result.work_edges, edges);
      merge_claims(claims);
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
             Claims recount;
             for (uint64_t w : curr) recount.add(w);
             curr_local = {recount.bits, 0, recount.queries};
             claim_bits = 0;
             claim_queries = 0;
           },
       .crash =
           [&] {
             std::fill(visited.begin(), visited.end(), uint64_t(0));
             std::fill(curr.begin(), curr.end(), uint64_t(0));
             std::fill(next.begin(), next.end(), uint64_t(0));
             std::fill(result.parent.begin(), result.parent.end(), kNoVertex);
           }});

  auto commit = [&](const Counts& counts, int level) {
    // The queries that discovered vertices in the previous level (their
    // depth grew to `level - 1`) — replicated by the fold.
    for (int q = 0; q < width; ++q)
      if (counts.queries >> q & 1) result.levels[size_t(q)] = level - 1;
    // Depth stamping rides the serial commit: every bit in `next` is fresh
    // (visit/pull only set unvisited bits), so its depth is this level.
    if (options.record_depths)
      for (uint64_t i = 0; i < local_count; ++i) {
        uint64_t bits = next[i];
        while (bits != 0) {
          int q = std::countr_zero(bits);
          bits &= bits - 1;
          result.depth[size_t(q) * local_count + i] = int32_t(level);
        }
      }
    for (uint64_t i = 0; i < local_count; ++i) visited[i] |= next[i];
    std::swap(curr, next);
    std::fill(next.begin(), next.end(), uint64_t(0));
    curr_local = {claim_bits.exchange(0), 0, claim_queries.exchange(0)};
  };

  obs::Span run_span("service", "msbfs", width);
  result.num_iterations = bfs::run_level_loop<Counts, FoldCounts>(
      ctx, recovery,
      {.slots = double(space.total) * width, .pull_ratio = options.pull_ratio},
      bfs::LevelKernels{.local = [&] { return curr_local; },
                        .stage = stage,
                        .deliver = deliver,
                        .pull = pull,
                        .commit = commit});
  result.compute_model_s = double(result.work_edges) *
                           sim::kModeledSecondsPerEdge / double(pool.size());
  // The collectives advanced the modeled clock by their network seconds;
  // account the batch's compute on the same (deterministic) clock.
  obs::Tracer::advance_modeled(result.compute_model_s);
  return result;
}

}  // namespace sunbfs::service
