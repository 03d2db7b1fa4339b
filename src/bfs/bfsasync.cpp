#include "bfs/bfsasync.hpp"

#include <atomic>
#include <bit>
#include <span>
#include <memory>

#include "bfs/messages.hpp"
#include "bfs/workspace.hpp"
#include "obs/trace.hpp"
#include "sim/recover.hpp"
#include "sim/termination.hpp"
#include "support/bitvector.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace sunbfs::bfs {

using graph::Vertex;
using graph::kNoVertex;

namespace {

/// One claim slot packs (depth, parent) into a word ordered so that a plain
/// numeric MIN is the relaxation rule: smaller depth wins, and on equal
/// depth the LARGER global parent wins (the complemented low half), matching
/// the sync engines' store-max tie break so quiescent outputs are comparable
/// across engines.
constexpr uint64_t kUnclaimed = UINT64_MAX;
constexpr uint32_t kNoDepth = UINT32_MAX;

uint64_t pack_claim(uint32_t depth, uint32_t parent) {
  return (uint64_t(depth) << 32) | (0xFFFFFFFFull - uint64_t(parent));
}
uint32_t claim_depth(uint64_t packed) { return uint32_t(packed >> 32); }
uint32_t claim_parent(uint64_t packed) {
  return uint32_t(0xFFFFFFFFull - (packed & 0xFFFFFFFFull));
}

/// Lock-free fetch-min over a packed claim word.
void store_min(uint64_t& slot, uint64_t packed) {
  std::atomic_ref<uint64_t> a(slot);
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (packed < cur &&
         !a.compare_exchange_weak(cur, packed, std::memory_order_relaxed)) {
  }
}

/// Below this worklist size the drain step runs serially — re-expansion
/// lists on high-diameter graphs are tiny and per-chunk dispatch would
/// dominate.
constexpr size_t kSerialDrain = 256;

/// Adaptive speculation window (depths drained past the round's shallowest
/// queued vertex).  Unbounded drain-to-fixpoint is optimal on lattices —
/// claims are final on first touch — but on low-diameter inputs it explores
/// the rank-local subgraph along inflated detour depths that the next
/// exchange immediately re-lowers, multiplying edge work and resent claims.
/// The window starts narrow and doubles while applied remote claims mostly
/// land on unclaimed vertices (speculation is paying off), halves when they
/// mostly re-lower already-claimed ones (speculation is being re-done).
constexpr uint64_t kWindowInit = 1;

constexpr uint64_t kWindowMin = 1;
constexpr uint64_t kWindowMax = uint64_t(1) << 32;

}  // namespace

BfsAsyncResult bfsasync_run(sim::RankContext& ctx,
                            const partition::Part1d& part, Vertex root,
                            const BfsAsyncOptions& options) {
  const partition::VertexSpace& space = part.space;
  SUNBFS_CHECK(root >= 0 && uint64_t(root) < space.total);
  // Packed claims carry a 32-bit global parent and AsyncVisitMsg a 32-bit
  // receiver-local destination.
  SUNBFS_CHECK(space.total < (uint64_t(1) << 32));
  SUNBFS_CHECK(space.max_count() < (uint64_t(1) << 32));
  const uint64_t local_count = space.count(ctx.rank);

  std::unique_ptr<BfsWorkspace> owned_ws;
  if (!options.workspace)
    owned_ws = std::make_unique<BfsWorkspace>(resolve_threads_per_rank(
        options.threads_per_rank, size_t(ctx.nranks())));
  BfsWorkspace& ws = options.workspace ? *options.workspace : *owned_ws;
  ThreadPool& pool = ws.pool();
  sim::ExchangeChannel<AsyncVisitMsg>& channel = ws.async_visits();
  {
    // Worst-case round: one message per dirty global target outbound, one
    // per locally owned vertex from each sender inbound — the same shape as
    // a bfs1d push level, so the same priming keeps staging_allocs flat
    // after the warmup root.
    const size_t nt = pool.size();
    const size_t total = size_t(space.total);
    channel.configure(ctx, options.exchange);
    channel.prime(nt, total / nt + 65, total,
                  size_t(ctx.nranks()) * size_t(local_count));
  }

  // Relaxed state: claims move monotonically down under fetch-min, so local
  // fixpoints and per-round folded candidates are order-independent and the
  // whole run is bit-deterministic at any thread count.
  std::vector<uint64_t> claims(local_count, kUnclaimed);
  // Depth-ordered bucket worklist: buckets[d] holds owned llocs enqueued when
  // their claim dropped to depth d.  Draining buckets in ascending order
  // expands every vertex at most once per round — at its round-final depth —
  // where an unordered worklist re-expands along every detour it relaxes
  // through.  A claim improved after enqueue leaves a stale entry behind; the
  // pop-time depth check skips it (the improving claim enqueued it lower).
  std::vector<std::vector<uint32_t>> buckets;
  size_t work_entries = 0;        // queued entries, stale included
  size_t min_bucket = SIZE_MAX;   // shallowest possibly-nonempty bucket
  auto enqueue = [&](uint32_t depth, uint32_t lloc) {
    if (buckets.size() <= depth) buckets.resize(size_t(depth) + 1);
    buckets[depth].push_back(lloc);
    ++work_entries;
    if (depth < min_bucket) min_bucket = depth;
  };
  // Lanes collect (depth << 32 | lloc) pushes; flushed serially into the
  // buckets after each parallel step (lane order, so contents — whose order
  // never matters under the min-folds — are thread-count independent anyway).
  std::vector<std::vector<uint64_t>> lane_next(pool.size());
  auto flush_lanes = [&] {
    for (auto& ln : lane_next) {
      for (uint64_t e : ln) enqueue(uint32_t(e >> 32), uint32_t(e));
      ln.clear();
    }
  };
  uint64_t window = kWindowInit;
  // Per-round folded remote candidates plus their dirty set, and the
  // best-depth-ever-sent suppression that keeps later rounds from resending
  // non-improving claims (checkpointed: a replay must resend what the
  // receiver lost).
  std::vector<uint64_t> remote_cand(space.total, kUnclaimed);
  BitVector remote_dirty(space.total);
  std::vector<uint32_t> best_sent(space.total, kNoDepth);
  std::vector<uint64_t> lane_sent(pool.size(), 0);
  std::vector<uint64_t> lane_fresh(pool.size(), 0);
  std::vector<uint64_t> lane_relower(pool.size(), 0);
  std::vector<uint64_t> pre_claims;  // apply-phase snapshot for the governor

  // Claim depth `packed` for an owned vertex; true iff the depth strictly
  // dropped (parent-only improvements at equal depth never re-expand — the
  // children's depths would not change).
  auto try_claim = [&](uint64_t lloc, uint64_t packed) {
    std::atomic_ref<uint64_t> a(claims[lloc]);
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (packed < cur) {
      if (a.compare_exchange_weak(cur, packed, std::memory_order_relaxed))
        return claim_depth(packed) < claim_depth(cur);
    }
    return false;
  };

  // Expand bucket entries [lo, hi) queued at depth `d`: push depth d+1
  // claims to owned neighbors, min-fold boundary claims into remote_cand.
  // Claims of bucket-d vertices cannot change during this step (every
  // concurrent candidate is d+1), so the stale check is race-free.
  std::vector<uint32_t> cur;
  auto expand_range = [&](const std::vector<uint32_t>& vs, uint32_t d,
                          size_t lo, size_t hi, size_t lane) {
    auto& out = lane_next[lane];
    for (size_t i = lo; i < hi; ++i) {
      const uint64_t lloc = vs[i];
      const uint64_t packed =
          std::atomic_ref<uint64_t>(claims[lloc]).load(std::memory_order_relaxed);
      if (claim_depth(packed) != d) continue;  // stale: re-claimed shallower
      const uint64_t cand =
          pack_claim(d + 1, uint32_t(space.to_global(ctx.rank, lloc)));
      for (Vertex v : part.adj.neighbors(lloc)) {
        int owner = space.owner(v);
        if (owner == ctx.rank) {
          uint64_t l = space.to_local(owner, v);
          if (try_claim(l, cand))
            out.push_back((uint64_t(d + 1) << 32) | l);
        } else {
          store_min(remote_cand[uint64_t(v)], cand);
          remote_dirty.atomic_set(uint64_t(v));
        }
      }
    }
  };

  // Dense-round direction switch.  Between rounds nothing is in flight, so
  // every claim at the global minimum queued depth is final: any future
  // candidate comes from expanding a vertex at >= that depth and lands one
  // deeper.  That makes the depth-dmin claim set a level-exact frontier —
  // gather it as a bitmap and let every unsettled vertex pull its claim
  // locally, instead of pushing the dense level's every edge through the
  // alltoallv.  Taking the LARGEST frontier neighbor as parent reproduces
  // exactly the push fixpoint (min-fold keeps the max parent at equal
  // depth), so pull rounds change execution cost, not output — final
  // parents stay bit-identical across thread counts and exchange backends.
  //
  // A private descending-sorted adjacency makes that cheap: scanning in
  // decreasing global id, the FIRST frontier hit is the max frontier
  // neighbor, restoring bfs1d-pull's early exit without giving up the
  // canonical parent.  Built once per run, outside the measured compute.
  std::vector<uint64_t> adj_off(local_count + 1, 0);
  for (uint64_t lloc = 0; lloc < local_count; ++lloc)
    adj_off[lloc + 1] = adj_off[lloc] + part.adj.neighbors(lloc).size();
  std::vector<Vertex> adj_desc(adj_off[local_count]);
  for (uint64_t lloc = 0; lloc < local_count; ++lloc) {
    auto nb = part.adj.neighbors(lloc);
    std::copy(nb.begin(), nb.end(), adj_desc.begin() + ptrdiff_t(adj_off[lloc]));
    std::sort(adj_desc.begin() + ptrdiff_t(adj_off[lloc]),
              adj_desc.begin() + ptrdiff_t(adj_off[lloc + 1]),
              std::greater<Vertex>());
  }
  // Global arc count for the edge-mass pull trigger (static, one collective).
  const uint64_t total_arcs = ctx.world.allreduce_sum(adj_off[local_count]);
  BitVector pull_bits(local_count);
  // Gathered frontier flattened to global-id bit positions: the pull probe
  // loop touches every arc of every unsettled vertex, so it must not pay the
  // owner() division per probe that GatheredFrontier::get would cost.
  std::vector<uint64_t> flat_front((space.total + 63) / 64);
  auto pull_level = [&](uint32_t dmin) {
    obs::Span span("bfs", "round_pull", int64_t(dmin));
    pull_bits.reset();
    for (uint64_t lloc = 0; lloc < local_count; ++lloc)
      if (claim_depth(claims[lloc]) == dmin) pull_bits.set(lloc);
    auto& gbuf = ws.frontier();
    std::span<const uint64_t> gathered = gbuf.gather(
        ctx.world, std::span<const uint64_t>(pull_bits.data(),
                                             pull_bits.word_count()));
    const std::vector<size_t>& goff = gbuf.offsets();
    std::fill(flat_front.begin(), flat_front.end(), 0);
    for (int r = 0; r < ctx.nranks(); ++r) {
      const uint64_t base = space.begin(r);
      // A corrupted contribution comes back empty (verify_source); the short
      // span reads as an all-zero slice here and the round rolls back.
      const uint64_t nwords = std::min<uint64_t>(
          (space.count(r) + 63) / 64, goff[size_t(r) + 1] - goff[r]);
      const uint64_t* w = gathered.data() + goff[r];
      for (uint64_t j = 0; j < nwords; ++j) {
        for (uint64_t word = w[j]; word; word &= word - 1) {
          const uint64_t g = base + j * 64 + uint64_t(std::countr_zero(word));
          flat_front[g >> 6] |= uint64_t(1) << (g & 63);
        }
      }
    }
    const uint64_t cand_depth = uint64_t(dmin) + 1;
    const size_t n = size_t(local_count);
    const size_t parts = std::min(n / kSerialDrain + 1, pool.size());
    pool.run_chunks(parts, [&](size_t lane) {
      auto& out = lane_next[lane];
      for (size_t lloc = n * lane / parts; lloc < n * (lane + 1) / parts;
           ++lloc) {
        if (claim_depth(claims[lloc]) <= dmin) continue;  // settled
        for (uint64_t i = adj_off[lloc]; i < adj_off[lloc + 1]; ++i) {
          const uint64_t u = uint64_t(adj_desc[i]);
          if (!((flat_front[u >> 6] >> (u & 63)) & 1)) continue;
          if (try_claim(lloc, pack_claim(uint32_t(cand_depth), uint32_t(u))))
            out.push_back((cand_depth << 32) | lloc);
          break;  // descending scan: first hit is the max frontier neighbor
        }
      }
    });
    flush_lanes();
    // The frontier's queued entries are now redundant: every neighbor of a
    // depth-dmin vertex — local or remote — just got its final claim from
    // its own owner's pull scan, so push-expanding them later would only
    // resend settled claims.
    if (dmin < buckets.size() && !buckets[dmin].empty()) {
      work_entries -= buckets[dmin].size();
      buckets[dmin].clear();
    }
  };

  // Drain the local worklist in depth order up to the speculation window:
  // propagate through up to `window` levels of owned vertices past the
  // globally shallowest queued one with zero communication, accumulating
  // boundary claims in remote_cand.  Deeper entries stay queued for later
  // rounds — they are the speculation most likely to be re-lowered by a
  // claim still in flight.  Anchoring the window at the global minimum (one
  // cheap allreduce per round) keeps a rank that ran ahead from exploring
  // detours ever deeper while the true frontier is still levels behind on
  // some other rank; on a path only one rank holds work at a time, so the
  // global anchor degenerates to the local one and full-speed pipelined
  // drain survives.
  // Returns true when the round pulled: a pull round emits no boundary
  // candidates, so the caller skips the (empty) alltoallv exchange entirely.
  // `global_dmin` is the globally shallowest queued depth, carried over from
  // the previous round's termination probe (the probe's min-fold rider) so
  // the round needs no dedicated depth allreduce.
  auto drain = [&](uint32_t global_dmin) {
    while (min_bucket < buckets.size() && buckets[min_bucket].empty())
      ++min_bucket;
    if (global_dmin == kNoDepth)
      return false;  // all ranks idle: termination round
    // The pending frontier's shape decides push vs pull.  Bucket contents at
    // a round boundary are identical across thread counts and backends, so
    // every config flips direction on the same rounds.  Two triggers, both
    // against the fraction the pull gather itself would cost:
    //  - entry count, as in bfs1d: dense levels gather cheaper than they
    //    push;
    //  - edge mass, as in direction-optimizing BFS: a scale-free hub level
    //    can be a handful of vertices carrying a quarter of all arcs,
    //    invisible to the count trigger but ruinous to push on the hubs'
    //    owner ranks.  The absolute floor keeps tiny late frontiers
    //    (high-diameter tails) in push mode, where the speculation window
    //    covers many levels per collective round instead of one gather each.
    // Only the still-queued entries count — claims already expanded at this
    // depth by earlier speculation have paid their push, so they argue
    // neither way.
    struct FrontierLoad {
      uint64_t count = 0;  // queued entries at global_dmin (stale included)
      uint64_t mass = 0;   // their outgoing arcs
    };
    FrontierLoad load;
    if (global_dmin < buckets.size()) {
      load.count = buckets[global_dmin].size();
      for (uint32_t lloc : buckets[global_dmin])
        load.mass += adj_off[lloc + 1] - adj_off[lloc];
    }
    load = ctx.world.allreduce(load, [](FrontierLoad a, FrontierLoad b) {
      return FrontierLoad{a.count + b.count, a.mass + b.mass};
    });
    if (double(load.count) / double(space.total) > options.pull_ratio ||
        double(load.mass) > double(total_arcs) * options.pull_ratio) {
      pull_level(global_dmin);
      return true;
    }
    if (min_bucket >= buckets.size()) return false;  // locally idle
    const uint64_t limit = uint64_t(global_dmin) + window;
    // Speculating past the frontier is only worth it for light levels: a
    // bucket whose entries carry more than this rank's share of the pull
    // threshold's edge mass marks a level the direction switch would rather
    // gather than push — leave it queued so next round's trigger can make
    // that call.  The cap must be edge mass, not entry count: on scale-free
    // graphs a few hundred within-window speculative entries can be the
    // graph's top hubs holding a tenth of all arcs.
    const uint64_t spec_cap = std::max<uint64_t>(
        1, uint64_t(double(total_arcs) * options.pull_ratio /
                    double(ctx.nranks())));
    size_t d = min_bucket;
    for (; d < buckets.size() && d < limit; ++d) {
      if (buckets[d].empty()) continue;
      if (d > global_dmin) {
        uint64_t mass = 0;
        for (uint32_t lloc : buckets[d])
          mass += adj_off[lloc + 1] - adj_off[lloc];
        if (mass > spec_cap) break;
      }
      cur.swap(buckets[d]);
      work_entries -= cur.size();
      const size_t n = cur.size();
      const size_t parts = std::min(n / kSerialDrain + 1, pool.size());
      if (parts <= 1) {
        expand_range(cur, uint32_t(d), 0, n, 0);
      } else {
        pool.run_chunks(parts, [&](size_t lane) {
          expand_range(cur, uint32_t(d), n * lane / parts,
                       n * (lane + 1) / parts, lane);
        });
      }
      cur.clear();
      flush_lanes();
    }
    min_bucket = d;
    return false;
  };

  // Ship this round's folded boundary claims and apply what arrives;
  // received improvements seed the next round's worklist.
  auto exchange_round = [&](sim::TerminationDetector& term) {
    channel.begin_world(pool.size());
    {
      const size_t n = remote_dirty.word_count();
      const size_t parts = std::min(std::max<size_t>(n, 1), pool.size());
      pool.run_chunks(parts, [&](size_t lane) {
        size_t lo = n * lane / parts;
        size_t hi = n * (lane + 1) / parts;
        uint64_t cnt = 0;
        remote_dirty.for_each_set_words(lo, hi, [&](size_t v) {
          const uint64_t packed = remote_cand[v];
          remote_cand[v] = kUnclaimed;
          const uint32_t d = claim_depth(packed);
          if (d < best_sent[v]) {
            best_sent[v] = d;
            Vertex gv = Vertex(v);
            int owner = space.owner(gv);
            channel.push(lane, size_t(owner),
                         AsyncVisitMsg{uint32_t(space.to_local(owner, gv)),
                                       claim_parent(packed), d});
            ++cnt;
          }
        });
        lane_sent[lane] = cnt;
      });
      uint64_t sent = 0;
      for (size_t lane = 0; lane < parts; ++lane) sent += lane_sent[lane];
      term.note_sent(sent);
      remote_dirty.reset();
    }
    auto got = channel.exchange(ctx.world, pool);
    term.note_received(got.size());
    const size_t m = got.size();
    // Window feedback, measured against a pre-apply snapshot so the counts
    // are schedule-independent (two lanes racing the same destination would
    // otherwise split fresh/re-lower differently per run): an arriving
    // improvement on an unclaimed vertex means speculation is reaching new
    // ground, one on a claimed vertex means earlier speculation is being
    // re-done at a shallower depth.
    uint64_t fresh = 0, relower = 0;
    if (m != 0) {
      pre_claims = claims;
      const size_t parts = std::min(m / kSerialDrain + 1, pool.size());
      pool.run_chunks(parts, [&](size_t lane) {
        size_t lo = m * lane / parts;
        size_t hi = m * (lane + 1) / parts;
        auto& out = lane_next[lane];
        uint64_t nf = 0, nr = 0;
        for (size_t i = lo; i < hi; ++i) {
          const AsyncVisitMsg& msg = got[i];
          const uint64_t packed = pack_claim(msg.depth, msg.parent);
          const uint64_t pre = pre_claims[msg.dst];
          if (pre == kUnclaimed) {
            ++nf;
          } else if (msg.depth < claim_depth(pre)) {
            ++nr;  // strict depth drop: earlier speculation is re-done
          }
          if (try_claim(msg.dst, packed))
            out.push_back((uint64_t(msg.depth) << 32) | msg.dst);
        }
        lane_fresh[lane] = nf;
        lane_relower[lane] = nr;
      });
      for (size_t lane = 0; lane < parts; ++lane) {
        fresh += lane_fresh[lane];
        relower += lane_relower[lane];
      }
      flush_lanes();
    }
    if (relower * 16 > fresh + relower)
      window = std::max(kWindowMin, window / 2);
    else
      window = std::min(window * 2, kWindowMax);
  };

  // Strict credit counting (sum sent == sum received) holds only when no
  // messages fold in flight; staged merging plans deliver k same-target
  // claims as one, so they run the stability-only variant (safe here — every
  // exchange completes inside the collective, see sim/termination.hpp).
  sim::TerminationDetector term(channel.plan().stages() == 0);

  if (space.owner(root) == ctx.rank) {
    uint64_t lloc = space.to_local(ctx.rank, root);
    try_claim(lloc, pack_claim(0, uint32_t(root)));
    enqueue(0, uint32_t(lloc));
  }

  // Checkpoint/rollback recovery (sim/recover.hpp): snapshot the relaxed
  // state (claims, worklist, resend suppression, termination credits) every
  // sim::kCheckpointInterval exchange rounds.  The carried frontier depth
  // (see the probe rider below) is round state like the window: a rollback
  // must restore the value the checkpointed round's probe produced, not the
  // corrupted round's.
  uint32_t global_dmin = 0;
  struct Checkpoint {
    std::vector<uint64_t> claims;
    std::vector<uint64_t> work;  ///< bucket entries, (depth << 32 | lloc)
    std::vector<uint32_t> best_sent;
    uint64_t window = kWindowInit;
    uint32_t dmin = 0;
    sim::TerminationDetector::Snapshot term;
  } ckpt;
  auto clear_work = [&] {
    for (auto& b : buckets) b.clear();
    work_entries = 0;
    min_bucket = SIZE_MAX;
  };
  sim::Recovery recovery(
      ctx, options.recovery, "bfsasync",
      {.save =
           [&] {
             ckpt.claims = claims;
             ckpt.work.clear();
             for (size_t d = min_bucket; d < buckets.size(); ++d)
               for (uint32_t lloc : buckets[d])
                 ckpt.work.push_back((uint64_t(d) << 32) | lloc);
             ckpt.best_sent = best_sent;
             ckpt.window = window;
             ckpt.dmin = global_dmin;
             ckpt.term = term.save();
           },
       .restore =
           [&] {
             claims = ckpt.claims;
             clear_work();
             for (uint64_t e : ckpt.work)
               enqueue(uint32_t(e >> 32), uint32_t(e));
             best_sent = ckpt.best_sent;
             window = ckpt.window;
             global_dmin = ckpt.dmin;
             for (auto& ln : lane_next) ln.clear();
             // remote_cand/remote_dirty are clean between rounds (the
             // emission scan resets every dirty entry), so only the durable
             // state restores.
             term.restore(ckpt.term);  // also restarts the two-wave handshake
           },
       .crash =
           [&] {
             claims.assign(local_count, kUnclaimed);
             clear_work();
             best_sent.assign(space.total, kNoDepth);
           }});

  BfsAsyncResult result;
  obs::Span run_span("bfs", "bfsasync");
  ThreadCpuTimer cpu;
  const double comm0 = ctx.stats.total_modeled_s();
  recovery.checkpoint(0);
  int round = 0;
  // Round 1's frontier depth (global_dmin, declared with the checkpoint
  // state above) is known without communication: the only claim anywhere is
  // the root at depth 0.  Every later round's depth arrives on the previous
  // round's probe wave.
  for (;;) {
    ++round;
    obs::Span round_span("bfs", "round", round);
    // Fault plans key rank failures on the exchange round here (there are no
    // levels to key on).
    if (!recovery.begin(round)) continue;
    ThreadCpuTimer round_cpu;
    // A pull round emits no boundary candidates, so it skips the exchange.
    const bool pulled = drain(global_dmin);
    if (!pulled) exchange_round(term);
    obs::Tracer::advance_modeled(round_cpu.seconds());
    // Ride next round's frontier depth on the probe's min-fold.
    while (min_bucket < buckets.size() && buckets[min_bucket].empty())
      ++min_bucket;
    const uint64_t local_next = min_bucket >= buckets.size()
                                    ? uint64_t(kNoDepth)
                                    : uint64_t(min_bucket);
    uint64_t next_dmin = 0;
    const bool quiet =
        term.probe(ctx.world, work_entries == 0, local_next, &next_dmin);
    global_dmin = uint32_t(std::min<uint64_t>(next_dmin, kNoDepth));
    // A corrupted round cannot announce termination: roll back before
    // honoring the probe.
    if (!recovery.commit(round)) continue;
    if (quiet) break;
    recovery.checkpoint(round);
  }
  result.rounds = round;
  result.probe_waves = int(term.waves());
  result.parent.resize(local_count);
  result.depth.resize(local_count);
  pool.parallel_for(0, local_count, [&](size_t lo, size_t hi) {
    for (uint64_t lloc = lo; lloc < hi; ++lloc) {
      const uint64_t packed = claims[lloc];
      if (packed == kUnclaimed) {
        result.parent[lloc] = kNoVertex;
        result.depth[lloc] = -1;
      } else {
        result.parent[lloc] = Vertex(claim_parent(packed));
        result.depth[lloc] = int64_t(claim_depth(packed));
      }
    }
  });
  result.cpu_s = cpu.seconds();
  result.comm_modeled_s = ctx.stats.total_modeled_s() - comm0;
  return result;
}

}  // namespace sunbfs::bfs
