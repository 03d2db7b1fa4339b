#pragma once

#include <vector>

#include "partition/part1d.hpp"
#include "sim/exchange.hpp"
#include "sim/runtime.hpp"

/// Vanilla 1D-partitioned BFS with direction optimization (the Table 1 /
/// §2.1 baseline): one message per (sender rank, target) in top-down, a
/// world-wide frontier gather in bottom-up, no delegation of heavy vertices.
/// The level control (direction, exact count or carried bound, rollback,
/// end rules) is bfs::run_level_loop (bfs/level_loop.hpp), shared with
/// MS-BFS; this engine brings its bitmaps, the dedup'd CompactMsg push that
/// keeps the 1D baseline's bytes, the bitmap pull, and a compute charge of
/// measured CPU per level.
namespace sunbfs::bfs {

class BfsWorkspace;

struct Bfs1dOptions {
  /// Switch to bottom-up when the active fraction exceeds this.
  double pull_ratio = 0.04;
  /// Worker threads per rank; <= 0 means auto (see resolve_threads_per_rank).
  /// Ignored when `workspace` is provided.
  int threads_per_rank = 0;
  /// Optional externally owned per-rank workspace (worker pool + reusable
  /// staging buffers), shared across roots by the runner; null means a
  /// private one per run.
  BfsWorkspace* workspace = nullptr;
  /// Retry budget under FaultPolicy::Recover (sim/recover.hpp).
  sim::RecoveryOptions recovery;
  /// Exchange plan of the push alltoallv — the direct collective or the 2D
  /// row/column split (2dca) — and wire encoding of it and the frontier
  /// allgather (sim/exchange.hpp); applied to the workspace each run.
  /// Parents stay bit-identical across settings (ctest -L differential).
  sim::ExchangeOptions exchange;
};

struct Bfs1dResult {
  std::vector<graph::Vertex> parent;  ///< owned slice, local index order
  int num_iterations = 0;
  double cpu_s = 0;           ///< this rank's compute CPU seconds
  double comm_modeled_s = 0;  ///< modeled network seconds of this run
};

/// Run BFS from `root`.  Collective over all ranks.
Bfs1dResult bfs1d_run(sim::RankContext& ctx, const partition::Part1d& part,
                      graph::Vertex root, const Bfs1dOptions& options = {});

}  // namespace sunbfs::bfs
