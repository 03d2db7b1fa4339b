#include "bfs/bfs15d.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

#include "bfs/gathered_frontier.hpp"
#include "bfs/messages.hpp"
#include "bfs/workspace.hpp"
#include "obs/trace.hpp"
#include "sim/recover.hpp"
#include "bfs/segmenting.hpp"
#include "bfs/vertex_cut.hpp"
#include "support/check.hpp"
#include "support/log.hpp"
#include "support/timer.hpp"

namespace sunbfs::bfs {

using graph::Vertex;
using graph::kNoVertex;
using partition::Subgraph;

namespace {

/// Number of set bits of `bv` in [lo, hi).
uint64_t count_range(const BitVector& bv, uint64_t lo, uint64_t hi) {
  uint64_t n = 0;
  for (uint64_t i = lo; i < hi; ++i)
    if (bv.get(i)) ++n;
  return n;
}

class Engine {
 public:
  Engine(sim::RankContext& ctx, const partition::Part15d& part, Vertex root,
         const Bfs15dOptions& opts)
      : ctx_(ctx),
        part_(part),
        opts_(opts),
        mesh_(ctx.mesh),
        my_row_(ctx.row_index()),
        my_col_(ctx.col_index()),
        k_(part.cls.num_eh()),
        num_e_(part.cls.num_e()),
        root_(root),
        owned_ws_(opts.workspace
                      ? nullptr
                      : std::make_unique<BfsWorkspace>(resolve_threads_per_rank(
                            opts.threads_per_rank, size_t(ctx.nranks())))),
        ws_(opts.workspace ? *opts.workspace : *owned_ws_),
        pool_(ws_.pool()),
        recovery_(ctx, opts.recovery, "bfs15d",
                  {.save = [this] { save_checkpoint(); },
                   .restore = [this] { restore_checkpoint(); },
                   .crash = [this] { crash(); }}) {
    SUNBFS_CHECK(root >= 0 && uint64_t(root) < part.space.total);
    if (opts_.pull_kernel != Bfs15dOptions::EhPullKernel::Host)
      SUNBFS_CHECK_MSG(opts_.chip != nullptr,
                       "chip-executed pull kernel requires a chip");
    eh_curr_.resize(k_);
    eh_visited_.resize(k_);
    eh_next_.resize(k_);
    eh_next_local_.resize(k_);
    cand_.assign(k_, kNoVertex);
    local_count_ = part.local_count;
    parent_.assign(local_count_, kNoVertex);
    l_visited_.resize(local_count_);
    l_curr_.resize(local_count_);
    l_next_.resize(local_count_);
    num_l_global_ = part.space.total - k_;
    dedup_l_.resize(part.space.total);
    dedup_eh_.resize(k_);
    push_cand_.assign(part.space.total, kNoVertex);
    push_cand_eh_.assign(k_, kNoVertex);
    // Compact 8-byte messages index vertices with 32 bits.
    SUNBFS_CHECK(part.space.max_count() < (uint64_t(1) << 32));
    SUNBFS_CHECK(k_ < (uint64_t(1) << 32));
    l_unvisited_ = 0;
    for (uint64_t l = 0; l < local_count_; ++l)
      if (!part.local_is_eh.get(l)) ++l_unvisited_;
    // EH ids owned by ranks in this rank's mesh row (pull destinations) and
    // column (push sources).  Ownership is cyclic, so these are strided id
    // sets; materialize them once (|EH| is small by construction).  The H
    // subsets drive the scoped delegation sync: H frontier/visited bits are
    // only kept valid on the owner's row and column ("delegated on rows and
    // columns", §4.1), while E bits are kept valid globally.
    for (uint64_t kid = 0; kid < k_; ++kid) {
      int owner = part.eh_space.owner(graph::Vertex(kid));
      if (mesh_.row_of(owner) == my_row_) {
        row_targets_.push_back(kid);
        if (kid >= num_e_) row_h_ids_.push_back(kid);
      }
      if (mesh_.col_of(owner) == my_col_) {
        col_sources_.push_back(kid);
        if (kid >= num_e_) col_h_ids_.push_back(kid);
      }
      if (owner == ctx.rank && kid >= num_e_) owned_h_ids_.push_back(kid);
    }
    // Configure the shared staging pools (the world plan routes the L2L
    // push and the delayed-parent delivery; the row/column sub-exchanges
    // already are a manual mesh split and always run direct), then prime
    // them to their worst-case round shapes so no exchange after
    // construction ever grows a buffer (comm.staging_allocs stays flat after
    // the warmup root; docs/PERF.md).  Bounds: a push round stages at most
    // one message per dedup'd target — a global L vertex (space.total) or an
    // EH id (k_) — and a receiver gets at most one message per sender per
    // target it is responsible for.
    {
      ws_.compact().configure(ctx_, opts_.exchange);
      ws_.visits().configure(ctx_, opts_.exchange);
      const size_t nt = pool_.size();
      const size_t ranks = size_t(mesh_.ranks());
      const size_t cols = size_t(mesh_.cols);
      const size_t total = size_t(part_.space.total);
      const size_t local = size_t(local_count_);
      const size_t kmsgs = size_t(k_);
      auto lane = [nt](size_t cap) { return cap / nt + 65; };
      // compact(): H2L push (cols parts, <= total), L2H push (cols parts,
      // <= k_), L2L push (ranks parts, <= total).
      const size_t c_send = std::max(total, kmsgs);
      ws_.compact().prime(nt, lane(c_send), c_send,
                          std::max(ranks * local, cols * kmsgs));
      // visits(): the delayed-parent delivery (ranks parts); a rank sends
      // one message per EH id it owns and receives at most one per EH id,
      // so k_ bounds both sides.
      ws_.visits().prime(nt, lane(kmsgs), kmsgs, kmsgs + ranks);
    }
  }

  Bfs15dResult run() {
    obs::Span run_span("bfs", "bfs15d");
    ThreadCpuTimer run_cpu;
    const double comm_start = ctx_.stats.total_modeled_s();

    seed_root();
    recovery_.checkpoint(0);
    int iteration = 0;
    for (;;) {
      ++iteration;
      obs::Span level_span("bfs", "level", iteration);
      // A scheduled hard failure is in the (replicated) plan, so every rank
      // sees it fire at the same level without an agreement round: the
      // victim's volatile state is wiped and everyone rolls back together.
      if (!recovery_.begin(iteration)) continue;
      IterationRecord rec;
      rec.iteration = iteration;
      rec.active_e = count_range(eh_curr_, 0, num_e_);  // E bits are global
      // One fused collective carries the L counters and the owner-counted H
      // counters (H bits are only scope-valid, so owners count them).
      refresh_counts(l_curr_.count());
      rec.active_h = act_h_;
      rec.active_l = act_l_;
      const bool frontier_empty =
          rec.active_e + rec.active_h + rec.active_l == 0;

      if (!frontier_empty) {
        rec.bottom_up[int(Subgraph::EH2EH)] = decide(Subgraph::EH2EH, rec);
        sub_eh2eh(rec.bottom_up[int(Subgraph::EH2EH)]);

        rec.bottom_up[int(Subgraph::E2L)] = decide(Subgraph::E2L, rec);
        sub_e2l(rec.bottom_up[int(Subgraph::E2L)]);

        // L2E only updates E bits, which no later sub-iteration of this
        // iteration reads; its sync is folded into L2H's (one fewer
        // mesh-wide union per iteration).
        rec.bottom_up[int(Subgraph::L2E)] = decide(Subgraph::L2E, rec);
        sub_l2e(rec.bottom_up[int(Subgraph::L2E)]);

        // Latest-unvisited refresh (§4.2) before the direction-sensitive
        // remote sub-iterations; earlier sub-iterations changed the
        // unvisited counts (l_curr_ is immutable within the iteration, so
        // act is stable).
        refresh_counts(l_curr_.count());
        rec.bottom_up[int(Subgraph::H2L)] = decide(Subgraph::H2L, rec);
        sub_h2l(rec.bottom_up[int(Subgraph::H2L)]);

        rec.bottom_up[int(Subgraph::L2H)] = decide(Subgraph::L2H, rec);
        sub_l2h(rec.bottom_up[int(Subgraph::L2H)]);

        rec.bottom_up[int(Subgraph::L2L)] = decide(Subgraph::L2L, rec);
        sub_l2l(rec.bottom_up[int(Subgraph::L2L)]);
      }

      // Globally consistent detection point: any rank that dropped a
      // corrupted contribution this iteration forces everyone back to the
      // last checkpoint before the broken state is committed.
      if (!recovery_.commit(iteration)) continue;
      if (frontier_empty) break;

      stats_.iterations.push_back(rec);
      // Advance the frontier.
      eh_curr_ = eh_next_;
      eh_next_.reset();
      std::swap(l_curr_, l_next_);
      l_next_.reset();
      if (!opts_.delayed_parent_reduction) reduce_parents_checked();
      recovery_.checkpoint(iteration);
    }
    stats_.num_iterations = iteration - 1;

    if (opts_.delayed_parent_reduction) reduce_parents_checked();

    // "Other" is everything not attributed to a sub-iteration or to the
    // parent reduction: heuristics, frontier swaps, termination checks.
    stats_.other_cpu_s =
        std::max(0.0, run_cpu.seconds() - attributed_host_cpu_);
    double attributed_comm = stats_.reduce_comm_modeled_s;
    for (double c : stats_.comm_modeled_s) attributed_comm += c;
    stats_.other_comm_modeled_s = std::max(
        0.0, ctx_.stats.total_modeled_s() - comm_start - attributed_comm);

    stats_.comm = ctx_.stats;
    Bfs15dResult result;
    result.parent = std::move(parent_);
    result.stats = std::move(stats_);
    return result;
  }

 private:
  // ---- setup -------------------------------------------------------------
  void seed_root() {
    uint64_t k = part_.cls.eh_of(root_);
    if (k != partition::EhlTable::kNotEh) {
      eh_visited_.set(k);
      eh_curr_.set(k);
      cand_[k] = root_;  // replicated: every rank records the self-parent
    } else if (part_.space.owner(root_) == ctx_.rank) {
      uint64_t l = part_.space.to_local(ctx_.rank, root_);
      parent_[l] = root_;
      l_visited_.set(l);
      l_curr_.set(l);
      --l_unvisited_;
    }
  }

  // ---- direction selection (§4.2) ----------------------------------------
  // Every input is either replicated (EH bitmaps) or allreduced (L counts),
  // so all ranks always reach the same decision — required, because the two
  // directions of a sub-iteration issue different collectives.
  bool decide(Subgraph s, const IterationRecord& rec) const {
    auto frac = [](uint64_t a, uint64_t b) {
      return b == 0 ? 0.0 : double(a) / double(b);
    };
    if (!opts_.sub_iteration_direction) {
      double r_all = frac(rec.active_e + rec.active_h + rec.active_l,
                          part_.space.total);
      return r_all > opts_.global_pull_ratio;
    }
    double r_e = frac(rec.active_e, num_e_);
    double r_h = frac(rec.active_h, k_ - num_e_);
    double r_l = frac(rec.active_l, num_l_global_);
    switch (s) {
      case Subgraph::EH2EH:
        return frac(rec.active_e + rec.active_h, k_) > opts_.local_pull_ratio;
      case Subgraph::E2L:
        return r_e > opts_.local_pull_ratio;
      case Subgraph::L2E:
        return r_l > opts_.local_pull_ratio;
      case Subgraph::H2L:
        return r_h > opts_.remote_pull_factor *
                         frac(unv_l_global_, num_l_global_);
      case Subgraph::L2H:
        return r_l > opts_.remote_pull_factor *
                         frac(unv_h_global_, k_ - num_e_);
      case Subgraph::L2L:
        return r_l > opts_.remote_pull_factor *
                         frac(unv_l_global_, num_l_global_);
    }
    return false;
  }

  /// One allreduce refreshing the global L counters and the global H
  /// counters (each rank contributes its owned H bits, which are always
  /// within its validity scope).
  void refresh_counts(uint64_t local_active_l) {
    struct Counts {
      uint64_t act_l, unv_l, act_h, unv_h;
    };
    uint64_t act_h = 0, unv_h = 0;
    for (uint64_t h : owned_h_ids_) {
      if (eh_curr_.get(h)) ++act_h;
      if (!eh_visited_.get(h)) ++unv_h;
    }
    Counts c = ctx_.world.allreduce(
        Counts{local_active_l, l_unvisited_, act_h, unv_h},
        [](Counts a, Counts b) {
          return Counts{a.act_l + b.act_l, a.unv_l + b.unv_l,
                        a.act_h + b.act_h, a.unv_h + b.unv_h};
        });
    act_l_ = c.act_l;
    unv_l_global_ = c.unv_l;
    act_h_ = c.act_h;
    unv_h_global_ = c.unv_h;
  }

  // ---- shared helpers -----------------------------------------------------
  /// Attribute a sub-iteration's compute + communication.  If the body sets
  /// time_override_ >= 0 (chip kernels), that value replaces measured CPU.
  template <typename Fn>
  void timed_sub(Subgraph s, bool bottom_up, Fn&& fn) {
    obs::Span span("bfs", partition::subgraph_name(s), bottom_up ? 1 : 0);
    double comm0 = ctx_.stats.total_modeled_s();
    time_override_ = -1.0;
    ThreadCpuTimer cpu;
    fn();
    attributed_host_cpu_ += cpu.seconds();
    double t = time_override_ >= 0 ? time_override_ : cpu.seconds();
    // The attributed compute is modeled time too: the collectives inside
    // fn() advanced the rank's modeled clock themselves, compute does it
    // here, so the span covers both on the modeled timeline.
    obs::Tracer::advance_modeled(t);
    auto& arr = bottom_up ? stats_.pull_cpu_s : stats_.push_cpu_s;
    arr[size_t(int(s))] += t;
    stats_.comm_modeled_s[size_t(int(s))] +=
        ctx_.stats.total_modeled_s() - comm0;
  }

  /// Parallel loop over [0, n) in contiguous blocks: fn(lane, lo, hi), where
  /// `lane` < pool_.size() is a stable single-writer lane id for staging
  /// pushes (A2aStaging lanes are single-writer by contract).
  template <typename Fn>
  void par_ranges(size_t n, Fn&& fn) {
    if (n == 0) return;
    size_t parts = std::min(n, pool_.size());
    pool_.run_chunks(parts, [&](size_t p) {
      size_t lo = n * p / parts;
      size_t hi = n * (p + 1) / parts;
      if (lo < hi) fn(p, lo, hi);
    });
  }

  /// Mesh-aware union of locally discovered EH visits, honoring the
  /// delegation scopes of §4.1:
  ///   1. column allreduce of the full bitmap (E and H column unions);
  ///   2. row allreduce of the E prefix (E becomes globally valid — global
  ///      delegation) plus the packed bits of H owned by this row (each H
  ///      becomes valid on its owner's row);
  ///   3. column allreduce of the packed bits of H owned by this column
  ///      (each H becomes valid on its owner's column).
  /// After this an H bit is correct exactly on its owner's row and column —
  /// every rank that stores arcs touching it — while off-scope H bits may
  /// be stale.  The row/column steps move |E| + |H|/C + |H|/R bits instead
  /// of |E| + |H|: the communication saving H delegation exists for.
  void sync_eh() {
    if (k_ == 0) return;  // no delegated vertices at all (pure-1D config)
    std::span<uint64_t> words(eh_next_local_.data(),
                              eh_next_local_.word_count());
    auto lor = [](uint64_t a, uint64_t b) { return a | b; };
    ctx_.col.allreduce_inplace(words, lor);
    // Row step: one collective carrying [E prefix words | packed row-H bits].
    if (ctx_.row.size() > 1) {
      size_t e_words = (num_e_ + 63) / 64;
      std::vector<uint64_t> buf(e_words + (row_h_ids_.size() + 63) / 64, 0);
      std::copy_n(eh_next_local_.data(), e_words, buf.data());
      pack_ids(row_h_ids_, buf.data() + e_words);
      ctx_.row.allreduce_inplace(std::span<uint64_t>(buf), lor);
      std::copy_n(buf.data(), e_words, eh_next_local_.data());
      unpack_ids(row_h_ids_, buf.data() + e_words);
    }
    // Column step for column-owned H bits (owner now has the full union).
    if (ctx_.col.size() > 1 && !col_h_ids_.empty()) {
      std::vector<uint64_t> buf((col_h_ids_.size() + 63) / 64, 0);
      pack_ids(col_h_ids_, buf.data());
      ctx_.col.allreduce_inplace(std::span<uint64_t>(buf), lor);
      unpack_ids(col_h_ids_, buf.data());
    }
    eh_visited_ |= eh_next_local_;
    eh_next_ |= eh_next_local_;
    eh_next_local_.reset();
  }

  void pack_ids(const std::vector<uint64_t>& ids, uint64_t* packed) {
    for (size_t i = 0; i < ids.size(); ++i)
      if (eh_next_local_.get(ids[i]))
        packed[i >> 6] |= uint64_t(1) << (i & 63);
  }

  void unpack_ids(const std::vector<uint64_t>& ids, const uint64_t* packed) {
    for (size_t i = 0; i < ids.size(); ++i)
      if ((packed[i >> 6] >> (i & 63)) & 1) eh_next_local_.set(ids[i]);
  }

  // ---- thread-safe visit primitives ---------------------------------------
  // The determinism scheme: during a (possibly threaded) phase, gates read
  // only *stable* visited bitmaps — l_visited_ moves in commit_l_claims()
  // and eh_visited_ in sync_eh(), both serial epilogues, never mid-phase.
  // Every candidate parent is recorded with an unconditional fetch-max and
  // claims are atomic bit sets, so the set of claimed vertices and the final
  // parent values depend only on the (deterministic) candidate sets, not on
  // thread interleaving: output is bit-identical at every threads_per_rank.
  //
  // A message to yourself is applied in place: every push and pull that
  // stages messages (H2L, L2H, L2L, the parent delivery) calls the
  // receiver's primitive directly for a destination that is this rank, so
  // the exchanges carry only remote traffic.

  /// Record an L visit claim; the claim is committed by commit_l_claims().
  void visit_local_l_mt(uint64_t lloc, Vertex parent) {
    if (l_visited_.atomic_get(lloc)) return;
    store_max(parent_[lloc], parent);
    l_next_.atomic_set(lloc);
  }

  /// Record an EH visit candidate; committed (and scoped-synced) by sync_eh().
  void visit_eh_mt(uint64_t k, Vertex parent) {
    if (eh_visited_.atomic_get(k)) return;
    store_max(cand_[k], parent);
    eh_next_local_.atomic_set(k);
  }

  /// Serial epilogue of every L-claiming sub-iteration: fold the claims
  /// accumulated in l_next_ into l_visited_ and the unvisited counter.
  /// Idempotent across sub-iterations (l_next_ accumulates over the whole
  /// level; only the not-yet-visited delta is counted).
  void commit_l_claims() {
    uint64_t newly = 0;
    for (size_t w = 0; w < l_next_.word_count(); ++w)
      newly += uint64_t(
          __builtin_popcountll(l_next_.word(w) & ~l_visited_.word(w)));
    SUNBFS_ASSERT(newly <= l_unvisited_);
    l_unvisited_ -= newly;
    l_visited_ |= l_next_;
  }

  Vertex local_to_global(uint64_t lloc) const {
    return part_.space.to_global(ctx_.rank, lloc);
  }

  // ---- EH2EH (§4.1/4.3) ---------------------------------------------------
  void sub_eh2eh(bool bottom_up) {
    timed_sub(Subgraph::EH2EH, bottom_up, [&] {
      if (!bottom_up) {
        // Top-down with edge-aware vertex cut (§5).
        std::vector<uint64_t> active;
        for (uint64_t x : col_sources_)
          if (eh_curr_.get(x) && part_.eh2eh.degree(x) > 0)
            active.push_back(x);
        auto body = [&](size_t i) {
          uint64_t x = active[i];
          Vertex px = part_.cls.eh_to_global(x);
          for (Vertex y : part_.eh2eh.neighbors(x))
            visit_eh_mt(uint64_t(y), px);
        };
        if (opts_.edge_aware_vertex_cut) {
          edge_aware_foreach(
              active,
              [&](uint64_t x) { return part_.eh2eh.degree(x); }, pool_, body);
        } else {
          pool_.parallel_for(0, active.size(), [&](size_t lo, size_t hi) {
            for (size_t i = lo; i < hi; ++i) body(i);
          });
        }
      } else if (opts_.pull_kernel == Bfs15dOptions::EhPullKernel::Host) {
        // Destination-partitioned: each target y is scanned by exactly one
        // worker, preserving the serial early exit.
        pool_.parallel_for(0, row_targets_.size(), [&](size_t lo, size_t hi) {
          for (size_t i = lo; i < hi; ++i) {
            uint64_t y = row_targets_[i];
            if (eh_visited_.get(y) || eh_next_local_.atomic_get(y)) continue;
            for (Vertex x : part_.eh2eh_rev.neighbors(y)) {
              if (eh_curr_.get(uint64_t(x))) {
                visit_eh_mt(y, part_.cls.eh_to_global(uint64_t(x)));
                break;  // early exit
              }
            }
          }
        });
      } else {
        // Chip-executed pull (GLD baseline or segmented RMA kernel, §4.3).
        if (!puller_)
          puller_ = std::make_unique<ChipEhPuller>(*opts_.chip, part_, mesh_,
                                                   my_row_);
        bool rma = opts_.pull_kernel == Bfs15dOptions::EhPullKernel::ChipRma;
        auto out = puller_->pull(eh_curr_, eh_visited_, cand_, rma);
        for (const auto& v : out.visits)
          visit_eh_mt(v.y, part_.cls.eh_to_global(v.x));
        time_override_ = out.report.modeled_seconds;
      }
      sync_eh();
    });
  }

  // ---- E2L / L2E (no communication: E is globally delegated) --------------
  void sub_e2l(bool bottom_up) {
    timed_sub(Subgraph::E2L, bottom_up, [&] {
      if (!bottom_up) {
        pool_.parallel_for(0, num_e_, [&](size_t lo, size_t hi) {
          for (uint64_t e = lo; e < hi; ++e) {
            if (!eh_curr_.get(e) || part_.e2l.degree(e) == 0) continue;
            Vertex pe = part_.cls.eh_to_global(e);
            for (Vertex lloc : part_.e2l.neighbors(e))
              visit_local_l_mt(uint64_t(lloc), pe);
          }
        });
      } else {
        pool_.parallel_for(0, local_count_, [&](size_t lo, size_t hi) {
          for (uint64_t lloc = lo; lloc < hi; ++lloc) {
            if (l_visited_.get(lloc) || part_.local_is_eh.get(lloc)) continue;
            for (Vertex e : part_.l2e.neighbors(lloc)) {
              if (eh_curr_.get(uint64_t(e))) {
                visit_local_l_mt(lloc, part_.cls.eh_to_global(uint64_t(e)));
                break;
              }
            }
          }
        });
      }
      commit_l_claims();
    });
  }

  void sub_l2e(bool bottom_up) {
    timed_sub(Subgraph::L2E, bottom_up, [&] {
      if (!bottom_up) {
        pool_.parallel_for(0, l_curr_.word_count(), [&](size_t lo, size_t hi) {
          l_curr_.for_each_set_words(lo, hi, [&](size_t lloc) {
            Vertex pl = local_to_global(lloc);
            for (Vertex e : part_.l2e.neighbors(lloc))
              visit_eh_mt(uint64_t(e), pl);
          });
        });
      } else {
        pool_.parallel_for(0, num_e_, [&](size_t lo, size_t hi) {
          for (uint64_t e = lo; e < hi; ++e) {
            if (eh_visited_.get(e) || eh_next_local_.atomic_get(e)) continue;
            for (Vertex lloc : part_.e2l.neighbors(e)) {
              if (l_curr_.get(uint64_t(lloc))) {
                visit_eh_mt(e, local_to_global(uint64_t(lloc)));
                break;
              }
            }
          }
        });
      }
      // No sync here: L2E only marks E vertices, which nothing reads before
      // L2H's sync covers them.
    });
  }

  // ---- H2L (push messages intra-row) ---------------------------------------
  void sub_h2l(bool bottom_up) {
    timed_sub(Subgraph::H2L, bottom_up, [&] {
      auto& staging = ws_.compact();
      staging.begin(size_t(mesh_.cols), pool_.size());
      if (!bottom_up) {
        // Push with per-destination dedup: at most one message per target
        // vertex per rank, whatever the hub fan-in (a standard trick of
        // record BFS implementations; any winning parent is valid).
        // Two-phase emission so the staged message per target is the *max*
        // candidate hub — thread-count independent — rather than whichever
        // hub got there first.
        dedup_l_.reset();
        pool_.parallel_for(num_e_, k_, [&](size_t lo, size_t hi) {
          for (uint64_t h = lo; h < hi; ++h) {
            if (!eh_curr_.get(h) || part_.h2l.degree(h) == 0) continue;
            for (Vertex l : part_.h2l.neighbors(h)) {
              store_max(push_cand_[uint64_t(l)], Vertex(h));
              dedup_l_.atomic_set(uint64_t(l));
            }
          }
        });
        par_ranges(dedup_l_.word_count(), [&](size_t lane, size_t lo,
                                              size_t hi) {
          dedup_l_.for_each_set_words(lo, hi, [&](size_t l) {
            Vertex lv = Vertex(l);
            int owner = part_.space.owner(lv);
            uint64_t lloc = part_.space.to_local(owner, lv);
            if (owner == ctx_.rank)
              visit_local_l_mt(lloc, part_.cls.eh_to_global(
                                         uint64_t(push_cand_[l])));
            else
              staging.push(lane, size_t(mesh_.col_of(owner)),
                           CompactMsg{uint32_t(lloc),
                                      uint32_t(push_cand_[l])});
            push_cand_[l] = kNoVertex;  // leave the pool clean for next use
          });
        });
      } else {
        // Pull at the storage ranks over the destination-major mirror
        // ("stored by the destination index"): gather the row's visited
        // bitmap, scan unvisited destinations, early-exit on the first
        // active h (whose bits are valid here — this rank is in h's
        // column), and send one message per newly found vertex instead of
        // one per edge.
        const FrontierView row_visited = ws_.frontier().gather(
            ctx_.row, part_.space, l_visited_, opts_.exchange.encoding);
        const uint64_t row_begin =
            part_.space.begin(mesh_.rank_of(my_row_, 0));
        par_ranges(part_.h2l_by_l.num_rows(), [&](size_t lane, size_t lo,
                                                  size_t hi) {
          for (uint64_t rl = lo; rl < hi; ++rl) {
            if (part_.h2l_by_l.degree(rl) == 0) continue;
            const Vertex l = Vertex(row_begin + rl);
            if (row_visited.test(l)) continue;
            for (Vertex h : part_.h2l_by_l.neighbors(rl)) {
              if (eh_curr_.get(uint64_t(h))) {
                const int owner = part_.space.owner(l);
                const uint64_t lloc = uint64_t(l) - part_.space.begin(owner);
                if (owner == ctx_.rank)
                  visit_local_l_mt(lloc, part_.cls.eh_to_global(uint64_t(h)));
                else
                  staging.push(lane, size_t(mesh_.col_of(owner)),
                               CompactMsg{uint32_t(lloc), uint32_t(h)});
                break;  // early exit: one message per vertex
              }
            }
          }
        });
      }
      auto got = staging.exchange(ctx_.row, pool_);
      pool_.parallel_for(0, got.size(), [&](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
          visit_local_l_mt(got[i].dst, part_.cls.eh_to_global(got[i].src));
      });
      commit_l_claims();
    });
  }

  // ---- L2H -----------------------------------------------------------------
  void sub_l2h(bool bottom_up) {
    timed_sub(Subgraph::L2H, bottom_up, [&] {
      if (!bottom_up) {
        // Push to h's column delegate in this row (intra-row message).
        // Two-phase emission as in H2L push; the staged parent per h is the
        // max sender-local lloc (monotone with the global id for one rank).
        dedup_eh_.reset();
        auto& staging = ws_.compact();
        staging.begin(size_t(mesh_.cols), pool_.size());
        pool_.parallel_for(0, l_curr_.word_count(), [&](size_t lo, size_t hi) {
          l_curr_.for_each_set_words(lo, hi, [&](size_t lloc) {
            for (Vertex h : part_.l2h.neighbors(lloc)) {
              if (eh_visited_.get(uint64_t(h))) continue;
              store_max(push_cand_eh_[uint64_t(h)], Vertex(lloc));
              dedup_eh_.atomic_set(uint64_t(h));
            }
          });
        });
        par_ranges(dedup_eh_.word_count(), [&](size_t lane, size_t lo,
                                               size_t hi) {
          dedup_eh_.for_each_set_words(lo, hi, [&](size_t h) {
            int col = mesh_.col_of(part_.eh_space.owner(Vertex(h)));
            if (col == my_col_)
              visit_eh_mt(h, local_to_global(uint64_t(push_cand_eh_[h])));
            else
              staging.push(lane, size_t(col),
                           CompactMsg{uint32_t(h),
                                      uint32_t(push_cand_eh_[h])});
            push_cand_eh_[h] = kNoVertex;
          });
        });
        auto got = staging.exchange(ctx_.row, pool_);
        const auto& src_off = staging.src_offsets();
        pool_.parallel_for(0, size_t(mesh_.cols), [&](size_t lo, size_t hi) {
          for (size_t c = lo; c < hi; ++c) {
            int src_rank = mesh_.rank_of(my_row_, int(c));
            for (size_t i = src_off[c]; i < src_off[c + 1]; ++i)
              visit_eh_mt(uint64_t(got[i].dst),
                          part_.space.to_global(src_rank, got[i].src));
          }
        });
      } else {
        // Pull at the H2L storage ranks: L frontier gathered along the row
        // (the allgather component of Figure 11).
        const FrontierView row_frontier = ws_.frontier().gather(
            ctx_.row, part_.space, l_curr_, opts_.exchange.encoding);
        pool_.parallel_for(num_e_, k_, [&](size_t klo, size_t khi) {
          for (uint64_t h = klo; h < khi; ++h) {
            if (eh_visited_.get(h) || eh_next_local_.atomic_get(h)) continue;
            for (Vertex l : part_.h2l.neighbors(h)) {
              if (row_frontier.test(l)) {
                visit_eh_mt(h, l);
                break;
              }
            }
          }
        });
      }
      sync_eh();
    });
  }

  // ---- L2L (classic 1D messaging) -------------------------------------------
  void sub_l2l(bool bottom_up) {
    timed_sub(Subgraph::L2L, bottom_up, [&] {
      if (!bottom_up) {
        dedup_l_.reset();
        auto& staging = ws_.compact();
        staging.begin_world(pool_.size());
        pool_.parallel_for(0, l_curr_.word_count(),
                           [&](size_t lo, size_t hi) {
          l_curr_.for_each_set_words(lo, hi, [&](size_t lloc) {
            Vertex pl = local_to_global(lloc);
            for (Vertex l2 : part_.l2l.neighbors(lloc)) {
              int owner = part_.space.owner(l2);
              if (owner == ctx_.rank) {
                visit_local_l_mt(part_.space.to_local(owner, l2), pl);
              } else {
                // Candidate = sender-local lloc (what the compact message
                // carries); monotone with the sender's global id.
                store_max(push_cand_[uint64_t(l2)], Vertex(lloc));
                dedup_l_.atomic_set(uint64_t(l2));
              }
            }
          });
        });
        par_ranges(dedup_l_.word_count(), [&](size_t lane, size_t lo,
                                              size_t hi) {
          dedup_l_.for_each_set_words(lo, hi, [&](size_t l2) {
            Vertex lv = Vertex(l2);
            int owner = part_.space.owner(lv);
            staging.push(
                lane, size_t(owner),
                CompactMsg{uint32_t(part_.space.to_local(owner, lv)),
                           uint32_t(push_cand_[l2])});
            push_cand_[l2] = kNoVertex;
          });
        });
        auto got = staging.exchange(ctx_.world, pool_);
        const auto& src_off = staging.src_offsets();
        pool_.parallel_for(0, size_t(ctx_.nranks()),
                           [&](size_t lo, size_t hi) {
          for (size_t src = lo; src < hi; ++src)
            for (size_t i = src_off[src]; i < src_off[src + 1]; ++i)
              visit_local_l_mt(
                  got[i].dst,
                  part_.space.to_global(int(src), got[i].src));
        });
      } else {
        const FrontierView world_frontier = ws_.frontier().gather(
            ctx_.world, part_.space, l_curr_, opts_.exchange.encoding);
        pool_.parallel_for(0, local_count_, [&](size_t lo, size_t hi) {
          for (uint64_t lloc = lo; lloc < hi; ++lloc) {
            if (l_visited_.get(lloc) || part_.local_is_eh.get(lloc)) continue;
            for (Vertex l2 : part_.l2l.neighbors(lloc)) {
              if (world_frontier.test(l2)) {
                visit_local_l_mt(lloc, l2);
                break;
              }
            }
          }
        });
      }
      commit_l_claims();
    });
  }

  // ---- delayed reduction of delegated parents (§5) --------------------------
  void reduce_parents() {
    obs::Span span("bfs", "reduce_parents");
    double comm0 = ctx_.stats.total_modeled_s();
    ThreadCpuTimer cpu;
    uint64_t block = part_.eh_space.max_count();
    std::vector<Vertex> contrib(block * uint64_t(ctx_.nranks()), kNoVertex);
    pool_.parallel_for(0, size_t(ctx_.nranks()), [&](size_t lo, size_t hi) {
      for (size_t r = lo; r < hi; ++r) {
        uint64_t n = part_.eh_space.count(int(r));
        for (uint64_t i = 0; i < n; ++i)
          contrib[uint64_t(r) * block + i] =
              cand_[uint64_t(part_.eh_space.to_global(int(r), i))];
      }
    });
    auto mine = ctx_.world.reduce_scatter_block(
        std::span<const Vertex>(contrib), block,
        [](Vertex a, Vertex b) { return std::max(a, b); });
    // Deliver reduced parents to the owners of the original vertex ids,
    // this rank's own in place (destination vertices are unique, so the
    // writes are race-free).
    auto& staging = ws_.visits();
    staging.begin_world(pool_.size());
    par_ranges(size_t(part_.eh_space.count(ctx_.rank)),
               [&](size_t lane, size_t lo, size_t hi) {
      for (uint64_t i = lo; i < hi; ++i) {
        if (mine[i] == kNoVertex) continue;
        Vertex g = part_.cls.eh_to_global(
            uint64_t(part_.eh_space.to_global(ctx_.rank, i)));
        int owner = part_.space.owner(g);
        if (owner == ctx_.rank)
          parent_[part_.space.to_local(owner, g)] = mine[i];
        else
          staging.push(lane, size_t(owner), VisitMsg{g, mine[i]});
      }
    });
    auto got = staging.exchange(ctx_.world, pool_);
    pool_.parallel_for(0, got.size(), [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i)
        parent_[part_.space.to_local(ctx_.rank, got[i].dst)] = got[i].parent;
    });
    stats_.reduce_cpu_s += cpu.seconds();
    attributed_host_cpu_ += cpu.seconds();
    obs::Tracer::advance_modeled(cpu.seconds());
    stats_.reduce_comm_modeled_s += ctx_.stats.total_modeled_s() - comm0;
  }

  /// reduce_parents under the recover policy.  The reduction is idempotent —
  /// contributions are rebuilt from cand_ on every call — so a corrupted
  /// exchange is simply re-run (with backoff), no checkpoint rollback needed.
  void reduce_parents_checked() {
    for (;;) {
      reduce_parents();
      if (recovery_.clean()) return;
      recovery_.retry("parent reduction");
      log_debug("bfs15d rank ", ctx_.rank,
                ": corrupted parent reduction, re-running");
    }
  }

  // ---- checkpoint hooks (sim/recover.hpp) -----------------------------------
  void save_checkpoint() {
    ckpt_.eh_curr = eh_curr_;
    ckpt_.eh_visited = eh_visited_;
    ckpt_.cand = cand_;
    ckpt_.parent = parent_;
    ckpt_.l_visited = l_visited_;
    ckpt_.l_curr = l_curr_;
    ckpt_.l_unvisited = l_unvisited_;
    ckpt_.iterations_recorded = stats_.iterations.size();
  }

  void restore_checkpoint() {
    eh_curr_ = ckpt_.eh_curr;
    eh_visited_ = ckpt_.eh_visited;
    eh_next_.reset();
    eh_next_local_.reset();
    cand_ = ckpt_.cand;
    parent_ = ckpt_.parent;
    l_visited_ = ckpt_.l_visited;
    l_curr_ = ckpt_.l_curr;
    l_next_.reset();
    l_unvisited_ = ckpt_.l_unvisited;
    stats_.iterations.resize(ckpt_.iterations_recorded);
  }

  /// Model the crash: everything not in the checkpoint is lost.
  void crash() {
    eh_curr_.reset();
    eh_visited_.reset();
    eh_next_.reset();
    eh_next_local_.reset();
    cand_.assign(k_, kNoVertex);
    parent_.assign(local_count_, kNoVertex);
    l_visited_.reset();
    l_curr_.reset();
    l_next_.reset();
    l_unvisited_ = 0;
  }

  // ---- members --------------------------------------------------------------
  sim::RankContext& ctx_;
  const partition::Part15d& part_;
  Bfs15dOptions opts_;
  sim::MeshShape mesh_;
  int my_row_, my_col_;
  uint64_t k_, num_e_;
  Vertex root_;

  /// Intra-rank resources: the worker pool (sized by
  /// resolve_threads_per_rank from the options — never a literal) plus the
  /// reusable staging buffer pools.  When the runner supplies a shared
  /// workspace, the engine borrows it so capacities stay warm across roots;
  /// otherwise a private one is created per run.
  std::unique_ptr<BfsWorkspace> owned_ws_;
  BfsWorkspace& ws_;
  ThreadPool& pool_;

  BitVector eh_curr_, eh_visited_, eh_next_, eh_next_local_;
  std::vector<Vertex> cand_;
  uint64_t local_count_ = 0;
  std::vector<Vertex> parent_;
  BitVector l_visited_, l_curr_, l_next_;
  uint64_t l_unvisited_ = 0;
  uint64_t num_l_global_ = 0;
  uint64_t act_l_ = 0, unv_l_global_ = 0;
  uint64_t act_h_ = 0, unv_h_global_ = 0;
  std::vector<uint64_t> row_targets_, col_sources_;
  std::vector<uint64_t> row_h_ids_, col_h_ids_, owned_h_ids_;
  /// Per-push-sub-iteration message dedup: at most one message per target.
  BitVector dedup_l_, dedup_eh_;
  /// Per-target maximum staged candidate of the current push phase; always
  /// kNoVertex outside a push (the staging scan cleans the slots it wrote).
  std::vector<Vertex> push_cand_;     // indexed by global vertex id
  std::vector<Vertex> push_cand_eh_;  // indexed by EH id
  std::unique_ptr<ChipEhPuller> puller_;
  double time_override_ = -1.0;
  double attributed_host_cpu_ = 0.0;
  BfsStats stats_;

  // ---- fault recovery state -------------------------------------------------
  /// In-memory per-rank level checkpoint: everything restore_checkpoint()
  /// restores.  eh_next_ / eh_next_local_ / l_next_ / dedup bitmaps are always
  /// empty at checkpoint boundaries, so they are reset rather than saved.
  struct Checkpoint {
    BitVector eh_curr, eh_visited;
    std::vector<Vertex> cand, parent;
    BitVector l_visited, l_curr;
    uint64_t l_unvisited = 0;
    size_t iterations_recorded = 0;
  };
  Checkpoint ckpt_;
  sim::Recovery recovery_;
};

}  // namespace

Bfs15dResult bfs15d_run(sim::RankContext& ctx, const partition::Part15d& part,
                        Vertex root, const Bfs15dOptions& options) {
  Engine engine(ctx, part, root, options);
  return engine.run();
}

}  // namespace sunbfs::bfs
