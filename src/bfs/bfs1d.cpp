#include "bfs/bfs1d.hpp"

#include <atomic>
#include <memory>

#include "bfs/level_loop.hpp"
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
    ws.compact().prime(nt, total / nt + 65, total,
                       size_t(ctx.nranks()) * size_t(local_count));
  }

  std::vector<Vertex> parent(local_count, kNoVertex);
  BitVector visited(local_count), curr(local_count), next(local_count);
  BitVector dedup(space.total);
  // Per-target maximum staged candidate of the current push level (sender
  // lloc, what the compact message carries); cleaned by the staging scan.
  std::vector<Vertex> push_cand(space.total, kNoVertex);
  // Remote vertices known to be visited: targets of messages already sent
  // (their exchange claimed them or found them claimed) and sources of
  // messages received (they were in a frontier).  A message to one of them
  // claims nothing, so it does not count toward the next frontier's bound.
  BitVector known(space.total);

  // Compact 8-byte messages: receiver-local destination + sender-local
  // parent, reconstructed from the alltoallv source offsets.
  SUNBFS_CHECK(space.max_count() < (uint64_t(1) << 32));

  // Thread-safe visit: gates read `visited`, which only moves in the serial
  // close_level below — stable during a threaded phase, so the claim
  // set and max-parents are thread-count independent.  Returns whether it
  // claimed a fresh `next` bit, which is how frontier sizes are counted
  // (no popcount scan).
  auto visit = [&](uint64_t lloc, Vertex p) {
    if (visited.atomic_get(lloc)) return false;
    store_max(parent[lloc], p);
    return next.atomic_set(lloc);
  };
  // Fresh claims of the current level (becomes |curr| at the swap).
  std::atomic<uint64_t> claims{0};
  uint64_t curr_count = 0;  // this rank's |curr|

  if (space.owner(root) == ctx.rank) {
    uint64_t lloc = space.to_local(ctx.rank, root);
    parent[lloc] = root;
    visited.set(lloc);
    curr.set(lloc);
    curr_count = 1;
  }

  // Control counts of a push level, folded on its exchange (sim::Rider)
  // instead of in an allreduce of their own: the exact frontier size, and
  // an upper bound on the next one — claims made before the exchange plus
  // staged messages to vertices not `known` visited, since each message
  // claims at most one vertex.  An exact count reduces the frontier size
  // alone.
  struct Counts {
    uint64_t frontier = 0;
    uint64_t bound = 0;
  };
  struct Sum {
    uint64_t operator()(uint64_t a, uint64_t b) const { return a + b; }
    Counts operator()(Counts a, Counts b) const {
      return {a.frontier + b.frontier, a.bound + b.bound};
    }
  };

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
             known.reset();
             curr_count = curr.count();
             claims = 0;
           },
       .crash =
           [&] {
             visited.reset();
             curr.reset();
             next.reset();
             parent.assign(local_count, kNoVertex);
           }});

  // Per-level compute (kernels and the fold of the claims into `visited`)
  // is modeled time too, as in the 1.5D engine; the collectives advance the
  // clock by their own modeled seconds.
  ThreadCpuTimer level_cpu;
  auto close_level = [&] {
    visited |= next;
    obs::Tracer::advance_modeled(level_cpu.seconds());
  };

  // Push, first half.  Per-destination dedup, as in the 1.5D engine: one
  // message per target vertex per rank.  Two-phase emission so the staged
  // parent per target is the max sender candidate (thread-count
  // independent).
  auto stage = [&] {
    level_cpu.reset();
    dedup.reset();
    auto& staging = ws.compact();
    staging.begin_world(pool.size());
    pool.parallel_for(0, curr.word_count(), [&](size_t lo, size_t hi) {
      uint64_t fresh = 0;
      curr.for_each_set_words(lo, hi, [&](size_t lloc) {
        for (Vertex v : part.adj.neighbors(lloc)) {
          int owner = space.owner(v);
          if (owner == ctx.rank) {
            fresh += visit(space.to_local(owner, v),
                           space.to_global(ctx.rank, lloc));
          } else {
            store_max(push_cand[uint64_t(v)], Vertex(lloc));
            dedup.atomic_set(uint64_t(v));
          }
        }
      });
      claims += fresh;
    });
    std::atomic<uint64_t> staged{0};
    size_t n = dedup.word_count();
    size_t parts = std::min(n, pool.size());
    pool.run_chunks(parts, [&](size_t lane) {
      size_t lo = n * lane / parts;
      size_t hi = n * (lane + 1) / parts;
      uint64_t msgs = 0;
      dedup.for_each_set_words(lo, hi, [&](size_t v) {
        Vertex gv = Vertex(v);
        int owner = space.owner(gv);
        staging.push(lane, size_t(owner),
                     CompactMsg{uint32_t(space.to_local(owner, gv)),
                                uint32_t(push_cand[v])});
        push_cand[v] = kNoVertex;
        msgs += known.atomic_set(v);
      });
      staged += msgs;
    });
    return claims + staged;
  };
  auto deliver = [&](sim::Rider rider) {
    auto got = ws.compact().exchange(ctx.world, pool, rider);
    const auto& src_off = ws.compact().src_offsets();
    pool.parallel_for(0, size_t(ctx.nranks()), [&](size_t lo, size_t hi) {
      uint64_t fresh = 0;
      for (size_t src = lo; src < hi; ++src)
        for (size_t i = src_off[src]; i < src_off[src + 1]; ++i) {
          const Vertex from = space.to_global(int(src), got[i].src);
          known.atomic_set(uint64_t(from));
          fresh += visit(got[i].dst, from);
        }
      claims += fresh;
    });
    close_level();
  };
  auto pull = [&] {
    level_cpu.reset();
    const FrontierView frontier = ws.frontier().gather(
        ctx.world, space, curr, options.exchange.encoding);
    pool.parallel_for(0, local_count, [&](size_t lo, size_t hi) {
      uint64_t fresh = 0;
      for (uint64_t lloc = lo; lloc < hi; ++lloc) {
        if (visited.get(lloc)) continue;
        for (Vertex u : part.adj.neighbors(lloc)) {
          if (frontier.test(u)) {
            fresh += visit(lloc, u);
            break;  // descending row: the first hit is the max-id parent
          }
        }
      }
      claims += fresh;
    });
    close_level();
  };
  auto commit = [&](const Counts&, int) {
    std::swap(curr, next);
    next.reset();
    curr_count = claims.exchange(0);
  };

  Bfs1dResult result;
  obs::Span run_span("bfs", "bfs1d");
  ThreadCpuTimer cpu;
  const double comm0 = ctx.stats.total_modeled_s();
  result.num_iterations = run_level_loop<Counts, Sum>(
      ctx, recovery,
      {.slots = double(space.total), .pull_ratio = options.pull_ratio},
      LevelKernels{.local = [&] { return curr_count; },
                   .stage = stage,
                   .deliver = deliver,
                   .pull = pull,
                   .commit = commit});
  result.parent = std::move(parent);
  result.cpu_s = cpu.seconds();
  result.comm_modeled_s = ctx.stats.total_modeled_s() - comm0;
  return result;
}

}  // namespace sunbfs::bfs
