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
  // Remote vertices known to be visited: targets of messages already sent
  // (their exchange claimed them or found them claimed) and sources of
  // messages received (they were in a frontier).  A message to one of them
  // claims nothing, so it does not count toward the next frontier's bound.
  BitVector known(space.total);

  // Compact 8-byte messages: receiver-local destination + sender-local
  // parent, reconstructed from the alltoallv source offsets.
  SUNBFS_CHECK(space.max_count() < (uint64_t(1) << 32));

  // Thread-safe visit: gates read `visited`, which only moves in the serial
  // per-level commit below — stable during a threaded phase, so the claim
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
  // Serial epilogue folding the level's claims into the visited set.
  auto commit_claims = [&] { visited |= next; };

  if (space.owner(root) == ctx.rank) {
    uint64_t lloc = space.to_local(ctx.rank, root);
    parent[lloc] = root;
    visited.set(lloc);
    next.set(lloc);
    claims = 1;
  }

  // Control counts of a push level, folded on its exchange (sim::Rider)
  // instead of in an allreduce of their own: the exact frontier size, and
  // an upper bound on the next one — claims made before the exchange plus
  // staged messages to vertices not `known` visited, since each message
  // claims at most one vertex.
  struct Counts {
    uint64_t frontier = 0;
    uint64_t bound = 0;
  };
  struct SumCounts {
    Counts operator()(Counts a, Counts b) const {
      return {a.frontier + b.frontier, a.bound + b.bound};
    }
  };
  // The bound carried from the previous level (replicated), when it was a
  // push level that committed since the last rollback.
  bool have_bound = false;
  uint64_t bound = 0;

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
             // The replayed level counts exactly: no bound survives.
             known.reset();
             curr_count = curr.count();
             claims = 0;
             have_bound = false;
           },
       .crash =
           [&] {
             visited.reset();
             curr.reset();
             next.reset();
             parent.assign(local_count, kNoVertex);
           }});

  // One level, returning its Counts: folded on a push level's exchange, the
  // exact `active` with no bound on a pull level.  `active` is the frontier
  // size, or the carried bound when no exact count was taken.
  auto run_level = [&](uint64_t active, bool bottom_up) {
    Counts counts{bottom_up ? active : curr_count, 0};
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
      {
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
      }
      counts.bound = claims + staged;
      auto got =
          staging.exchange(ctx.world, pool, sim::Rider(counts, SumCounts{}));
      const auto& src_off = staging.src_offsets();
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
    } else {
      GatheredFrontier frontier =
          GatheredFrontier::gather(ctx.world, curr, ws.frontier());
      pool.parallel_for(0, local_count, [&](size_t lo, size_t hi) {
        uint64_t fresh = 0;
        for (uint64_t lloc = lo; lloc < hi; ++lloc) {
          if (visited.get(lloc)) continue;
          for (Vertex u : part.adj.neighbors(lloc)) {
            int owner = space.owner(u);
            if (frontier.get(owner, uint64_t(u) - space.begin(owner))) {
              fresh += visit(lloc, u);
              break;  // descending row: the first hit is the max-id parent
            }
          }
        }
        claims += fresh;
      });
    }
    commit_claims();
    // As in the 1.5D engine, per-level compute is modeled time too; the
    // collectives above advanced the clock by their own modeled seconds.
    obs::Tracer::advance_modeled(level_cpu.seconds());
    return counts;
  };

  Bfs1dResult result;
  obs::Span run_span("bfs", "bfs1d");
  ThreadCpuTimer cpu;
  const double comm0 = ctx.stats.total_modeled_s();
  // Seed frontier: the root visit above landed in `next`.
  auto advance = [&] {
    std::swap(curr, next);
    next.reset();
    curr_count = claims.exchange(0);
  };
  advance();
  recovery.checkpoint(0);
  int iteration = 0;
  for (;;) {
    ++iteration;
    obs::Span level_span("bfs", "level", iteration);
    if (!recovery.begin(iteration)) continue;
    // A carried bound at or below the switch threshold proves the frontier
    // is too (so push, exactly as an exact count would pick); otherwise —
    // first level, after a pull level or a rollback, or a bound above the
    // threshold — count exactly.
    auto above = [&](uint64_t n) {
      return double(n) / double(space.total) > options.pull_ratio;
    };
    const bool exact = !have_bound || above(bound);
    const uint64_t active =
        exact ? ctx.world.allreduce_sum(curr_count) : bound;
    const bool bottom_up = exact && above(active);
    Counts counts{active, 0};
    if (active > 0) counts = run_level(active, bottom_up);
    if (!recovery.commit(iteration)) continue;
    // An empty frontier ends the search; the level does not count.
    if (counts.frontier == 0) {
      --iteration;
      break;
    }
    have_bound = !bottom_up;
    bound = counts.bound;
    advance();
    // Nothing was claimed or sent: the next frontier is empty everywhere.
    if (have_bound && bound == 0) break;
    recovery.checkpoint(iteration);
  }
  result.num_iterations = iteration;

  result.parent = std::move(parent);
  result.cpu_s = cpu.seconds();
  result.comm_modeled_s = ctx.stats.total_modeled_s() - comm0;
  return result;
}

}  // namespace sunbfs::bfs
