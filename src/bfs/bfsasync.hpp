#pragma once

#include <cstdint>
#include <vector>

#include "partition/part1d.hpp"
#include "sim/encoding.hpp"
#include "sim/exchange.hpp"
#include "sim/runtime.hpp"

/// Asynchronous relaxed-frontier BFS over the 1D partition.
///
/// The level-synchronous engines pay at least one collective round per BFS
/// level, which dominates on high-diameter inputs (docs/PERF.md).  This
/// engine decouples collective rounds from levels: each rank drains its
/// local relaxation worklist to a fixpoint — propagating through arbitrarily
/// many levels of locally owned vertices with zero communication — then
/// exchanges the folded speculative claims that cross rank boundaries and
/// probes a counting termination detector (sim/termination.hpp).  Claims are
/// relaxed, not level-ordered: a vertex's (depth, parent) is taken by atomic
/// compare-and-lower and may be re-claimed by a shallower visit in a later
/// round.  Output is only guaranteed correct at quiescence, where the depths
/// equal the true BFS depths and every parent sits exactly one level above
/// its child (the ctest -L differential relaxed-correctness oracle).
namespace sunbfs::bfs {

class BfsWorkspace;

struct BfsAsyncOptions {
  /// Worker threads per rank; <= 0 means auto (see resolve_threads_per_rank).
  /// Ignored when `workspace` is provided.
  int threads_per_rank = 0;
  /// Optional externally owned per-rank workspace, shared across roots by
  /// the runner; null means a private one per run.
  BfsWorkspace* workspace = nullptr;
  /// Retry budget under FaultPolicy::Recover (sim/recover.hpp); the
  /// checkpoint cadence counts exchange rounds here (there are no levels
  /// to count).
  sim::RecoveryOptions recovery;
  /// Exchange plan and wire encoding of the visit exchanges
  /// (sim/exchange.hpp).  Staged plans fold same-target speculative visits
  /// in flight to their minimum depth.
  sim::ExchangeOptions exchange;
  /// Dense-round direction switch: the round gathers the settled frontier
  /// (all claims at the global minimum queued depth — final by monotonicity)
  /// as a bitmap and pulls into unsettled vertices, instead of pushing every
  /// edge of it through the alltoallv, when the pending bucket entries at
  /// that depth exceed this fraction of the vertex count OR their outgoing
  /// arcs exceed this fraction of the total arc count.  The edge-mass
  /// trigger catches scale-free hub levels that are tiny by count; the same
  /// fraction also caps how much edge mass the speculative drain will push
  /// past the frontier.  Same crossover default as bfs1d's push/pull switch.
  double pull_ratio = 0.04;
};

struct BfsAsyncResult {
  std::vector<graph::Vertex> parent;  ///< owned slice, local index order
  /// Final depths of the owned slice (-1 unreached); at quiescence these
  /// bit-match graph::reference_bfs levels.
  std::vector<int64_t> depth;
  /// Exchange rounds executed (the async analogue of levels — each cost one
  /// alltoallv + one termination probe, NOT one round per BFS level).
  int rounds = 0;
  /// Termination-detection waves probed (two consecutive agreeing waves end
  /// the run).
  int probe_waves = 0;
  double cpu_s = 0;           ///< this rank's compute CPU seconds
  double comm_modeled_s = 0;  ///< modeled network seconds of this run
};

/// Run relaxed BFS from `root`.  Collective over all ranks.
BfsAsyncResult bfsasync_run(sim::RankContext& ctx,
                            const partition::Part1d& part, graph::Vertex root,
                            const BfsAsyncOptions& options = {});

}  // namespace sunbfs::bfs
