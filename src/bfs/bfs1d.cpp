#include "bfs/bfs1d.hpp"

#include <atomic>
#include <memory>

#include "bfs/gathered_frontier.hpp"
#include "bfs/messages.hpp"
#include "bfs/workspace.hpp"
#include "obs/trace.hpp"
#include "sim/recover.hpp"
#include "support/bitvector.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace sunbfs::bfs {

using graph::Vertex;
using graph::kNoVertex;

namespace {

/// Lock-free fetch-max (same determinism scheme as bfs15d: all concurrent
/// candidates for one slot are recorded, the maximum wins, so output is
/// independent of the thread count).
void store_max(Vertex& slot, Vertex v) {
  std::atomic_ref<Vertex> a(slot);
  Vertex cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Bfs1dResult bfs1d_run(sim::RankContext& ctx, const partition::Part1d& part,
                      Vertex root, const Bfs1dOptions& options) {
  const partition::VertexSpace& space = part.space;
  SUNBFS_CHECK(root >= 0 && uint64_t(root) < space.total);
  const uint64_t local_count = space.count(ctx.rank);

  // Intra-rank resources: pool size from the options (resolve_threads_per_rank
  // — never a literal); the runner usually shares one warm workspace across
  // roots so staging capacities stop growing after the first.
  std::unique_ptr<BfsWorkspace> owned_ws;
  if (!options.workspace)
    owned_ws = std::make_unique<BfsWorkspace>(resolve_threads_per_rank(
        options.threads_per_rank, size_t(ctx.nranks())));
  BfsWorkspace& ws = options.workspace ? *options.workspace : *owned_ws;
  ThreadPool& pool = ws.pool();
  {
    // Configure the push channel's plan and encoding, then prime it to its
    // worst-case round so no exchange below ever grows a buffer
    // (comm.staging_allocs stays flat after the warmup root; docs/PERF.md).
    // A push level stages at most one message per dedup'd global target,
    // and each of the `ranks` senders delivers at most one message per
    // locally owned vertex.
    const size_t nt = pool.size();
    const size_t total = size_t(space.total);
    ws.compact().configure(ctx, options.exchange);
    ws.frontier().set_encoded(options.exchange.encoding);
    ws.compact().prime(nt, total / nt + 65, total,
                       size_t(ctx.nranks()) * size_t(local_count));
  }

  std::vector<Vertex> parent(local_count, kNoVertex);
  BitVector visited(local_count), curr(local_count), next(local_count);
  BitVector dedup(space.total);
  // Per-target maximum staged candidate of the current push level (sender
  // lloc, what the compact message carries); cleaned by the staging scan.
  std::vector<Vertex> push_cand(space.total, kNoVertex);

  // Compact 8-byte messages: receiver-local destination + sender-local
  // parent, reconstructed from the alltoallv source offsets.
  SUNBFS_CHECK(space.max_count() < (uint64_t(1) << 32));

  // Thread-safe visit: gates read `visited`, which only moves in the serial
  // per-level commit below — stable during a threaded phase, so the claim
  // set and max-parents are thread-count independent.
  auto visit = [&](uint64_t lloc, Vertex p) {
    if (visited.atomic_get(lloc)) return;
    store_max(parent[lloc], p);
    next.atomic_set(lloc);
  };
  // Serial epilogue folding the level's claims into the visited set.
  auto commit_claims = [&] { visited |= next; };

  if (space.owner(root) == ctx.rank) {
    uint64_t lloc = space.to_local(ctx.rank, root);
    parent[lloc] = root;
    visited.set(lloc);
    next.set(lloc);
  }

  // Checkpoint/rollback recovery (sim/recover.hpp): the level checkpoint is
  // {visited, frontier, parent}; `next` is empty at level boundaries.
  struct Checkpoint {
    BitVector visited, curr;
    std::vector<Vertex> parent;
  } ckpt;
  sim::Recovery recovery(
      ctx, options.recovery, "bfs1d",
      {.save = [&] { ckpt = {visited, curr, parent}; },
       .restore =
           [&] {
             visited = ckpt.visited;
             curr = ckpt.curr;
             next.reset();
             parent = ckpt.parent;
           },
       .crash =
           [&] {
             visited.reset();
             curr.reset();
             next.reset();
             parent.assign(local_count, kNoVertex);
           }});

  auto run_level = [&](uint64_t active) {
    bool bottom_up =
        double(active) / double(space.total) > options.pull_ratio;
    obs::Span span("bfs", bottom_up ? "level_pull" : "level_push",
                   int64_t(active));
    ThreadCpuTimer level_cpu;
    if (!bottom_up) {
      // Per-destination dedup, as in the 1.5D engine: one message per
      // target vertex per rank.  Two-phase emission so the staged parent
      // per target is the max sender candidate (thread-count independent).
      dedup.reset();
      auto& staging = ws.compact();
      staging.begin_world(pool.size());
      pool.parallel_for(0, curr.word_count(), [&](size_t lo, size_t hi) {
        curr.for_each_set_words(lo, hi, [&](size_t lloc) {
          for (Vertex v : part.adj.neighbors(lloc)) {
            int owner = space.owner(v);
            if (owner == ctx.rank) {
              visit(space.to_local(owner, v),
                    space.to_global(ctx.rank, lloc));
            } else {
              store_max(push_cand[uint64_t(v)], Vertex(lloc));
              dedup.atomic_set(uint64_t(v));
            }
          }
        });
      });
      {
        size_t n = dedup.word_count();
        size_t parts = std::min(n, pool.size());
        pool.run_chunks(parts, [&](size_t lane) {
          size_t lo = n * lane / parts;
          size_t hi = n * (lane + 1) / parts;
          dedup.for_each_set_words(lo, hi, [&](size_t v) {
            Vertex gv = Vertex(v);
            int owner = space.owner(gv);
            staging.push(lane, size_t(owner),
                         CompactMsg{uint32_t(space.to_local(owner, gv)),
                                    uint32_t(push_cand[v])});
            push_cand[v] = kNoVertex;
          });
        });
      }
      auto got = staging.exchange(ctx.world, pool);
      const auto& src_off = staging.src_offsets();
      pool.parallel_for(0, size_t(ctx.nranks()), [&](size_t lo, size_t hi) {
        for (size_t src = lo; src < hi; ++src)
          for (size_t i = src_off[src]; i < src_off[src + 1]; ++i)
            visit(got[i].dst, space.to_global(int(src), got[i].src));
      });
    } else {
      GatheredFrontier frontier =
          GatheredFrontier::gather(ctx.world, curr, ws.frontier());
      pool.parallel_for(0, local_count, [&](size_t lo, size_t hi) {
        for (uint64_t lloc = lo; lloc < hi; ++lloc) {
          if (visited.get(lloc)) continue;
          for (Vertex u : part.adj.neighbors(lloc)) {
            int owner = space.owner(u);
            if (frontier.get(owner, uint64_t(u) - space.begin(owner))) {
              visit(lloc, u);
              break;  // early exit
            }
          }
        }
      });
    }
    commit_claims();
    // As in the 1.5D engine, per-level compute is modeled time too; the
    // collectives above advanced the clock by their own modeled seconds.
    obs::Tracer::advance_modeled(level_cpu.seconds());
  };

  Bfs1dResult result;
  obs::Span run_span("bfs", "bfs1d");
  ThreadCpuTimer cpu;
  const double comm0 = ctx.stats.total_modeled_s();
  // Seed frontier: the root visit above landed in `next`.
  std::swap(curr, next);
  next.reset();
  recovery.checkpoint(0);
  int iteration = 0;
  for (;;) {
    ++iteration;
    obs::Span level_span("bfs", "level", iteration);
    if (!recovery.begin(iteration)) continue;
    uint64_t active = ctx.world.allreduce_sum(curr.count());
    const bool frontier_empty = active == 0;
    if (!frontier_empty) run_level(active);
    if (!recovery.commit(iteration)) continue;
    if (frontier_empty) break;
    std::swap(curr, next);
    next.reset();
    recovery.checkpoint(iteration);
  }
  result.num_iterations = iteration - 1;

  result.parent = std::move(parent);
  result.cpu_s = cpu.seconds();
  result.comm_modeled_s = ctx.stats.total_modeled_s() - comm0;
  return result;
}

}  // namespace sunbfs::bfs
