#pragma once

#include <cstdint>

#include "obs/trace.hpp"
#include "sim/comm.hpp"
#include "sim/recover.hpp"
#include "sim/runtime.hpp"

/// The level-synchronous, direction-optimizing control of the 1D engines,
/// bfs1d and MS-BFS, in one place.  run_level_loop owns every decision:
///
///  - **Direction.**  A level pulls when its active count exceeds
///    pull_ratio x slots (slots = |V| x queries per vertex).
///  - **Exact count or carried bound.**  A push level folds an upper bound
///    on the next frontier on its exchange (a sim::Rider).  A carried bound
///    at or below the switch threshold proves the next level pushes too, so
///    it runs without counting; otherwise (first level, after a pull level
///    or a rollback, or a bound above the threshold) one allreduce counts.
///  - **Rollback.**  A level that sim::Recovery discards drops the carried
///    bound: the replayed level counts exactly.
///  - **End.**  An empty frontier ends the search and its level does not
///    count; a carried bound of zero (nothing claimed or sent) ends it too.
///  - **Checkpoints** at Recovery's cadence, and the `level`, `level_push`
///    and `level_pull` spans.
///
/// An engine brings its state, its Recovery hooks, its compute charge, a
/// `Counts` type (trivially copyable, with `frontier` and `bound` first)
/// with a stateless `Fold`, and its LevelKernels.
namespace sunbfs::bfs {

struct LevelLoopOptions {
  double slots = 0;       ///< |V| x queries per vertex
  double pull_ratio = 0;  ///< pull when active / slots exceeds this
};

/// An engine's side of a level, named by designated initializers.
template <typename Local, typename Stage, typename Deliver, typename Pull,
          typename Commit>
struct LevelKernels {
  /// () -> this rank's contribution to the exact count: `Counts` is
  /// brace-initialized from it and from its fold, so bfs1d reduces one word
  /// and MS-BFS its three.
  Local local;
  /// () -> uint64_t: push, first half: stage the frontier's messages and
  /// claim the local targets; returns this rank's part of the bound.
  Stage stage;
  /// (sim::Rider) -> void: push, second half: the exchange carrying the
  /// rider, then the received visits.
  Deliver deliver;
  /// () -> void: gather the frontier and claim from it.
  Pull pull;
  /// (const Counts&, int level) -> void: fold the level's claims in and
  /// make them the next frontier.
  Commit commit;
};

/// Run levels from the seed frontier until the search ends; returns the
/// number of levels that counted.  Collective over ctx.world; takes the
/// level-0 checkpoint.
template <typename Counts, typename Fold, typename Kernels>
int run_level_loop(sim::RankContext& ctx, sim::Recovery& recovery,
                   const LevelLoopOptions& options, Kernels kernels) {
  auto above = [&](uint64_t n) {
    return double(n) / options.slots > options.pull_ratio;
  };
  // The bound carried from the previous level (replicated), when it was a
  // push level that committed since the last rollback.
  bool have_bound = false;
  uint64_t bound = 0;
  recovery.checkpoint(0);
  int level = 0;
  for (;;) {
    ++level;
    obs::Span level_span("bfs", "level", level);
    if (!recovery.begin(level)) {
      have_bound = false;
      continue;
    }
    const bool exact = !have_bound || above(bound);
    const auto local = kernels.local();
    Counts counts{exact ? ctx.world.allreduce(local, Fold{}) : local};
    const uint64_t active = exact ? counts.frontier : bound;
    const bool pull = exact && above(active);
    if (active > 0) {
      obs::Span span("bfs", pull ? "level_pull" : "level_push",
                     int64_t(active));
      if (pull) {
        kernels.pull();
      } else {
        counts = Counts{local};
        counts.bound = kernels.stage();
        kernels.deliver(sim::Rider(counts, Fold{}));
      }
    }
    // Nothing of the level is kept until every rank is known clean, so a
    // rollback discards it wholesale, possibly poisoned counts included.
    if (!recovery.commit(level)) {
      have_bound = false;
      continue;
    }
    if (counts.frontier == 0) {
      --level;
      break;
    }
    kernels.commit(counts, level);
    have_bound = !pull;
    bound = counts.bound;
    if (have_bound && bound == 0) break;
    recovery.checkpoint(level);
  }
  return level;
}

}  // namespace sunbfs::bfs
