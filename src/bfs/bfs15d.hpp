#pragma once

#include <vector>

#include "bfs/stats.hpp"
#include "chip/chip.hpp"
#include "partition/part15d.hpp"
#include "sim/encoding.hpp"
#include "sim/exchange.hpp"
#include "sim/runtime.hpp"

/// Distributed BFS over the 3-level degree-aware 1.5D partition (§4).
///
/// Each iteration runs six sub-iterations in decreasing endpoint-degree
/// order (EH2EH, E2L, L2E, H2L, L2H, L2L).  With sub-iteration direction
/// optimization each sub-iteration picks push or pull independently; the EH
/// frontier/visited bitmaps are re-synchronized (column allreduce followed
/// by row allreduce — the mesh-aware union) after every sub-iteration that
/// can update EH state, so later sub-iterations see the latest visited
/// status (§4.2).  Parents of delegated E/H vertices are accumulated locally
/// and reduced once after the run ("delayed reduction", §5) unless disabled.
namespace sunbfs::bfs {

class BfsWorkspace;

struct Bfs15dOptions {
  // --- intra-rank parallelism ----------------------------------------------
  /// Worker threads per rank for the intra-rank kernels.  <= 0 means auto
  /// (hardware_concurrency / nranks, floored at 1); see
  /// resolve_threads_per_rank.  Ignored when `workspace` is provided.
  int threads_per_rank = 0;
  /// Optional externally owned per-rank workspace (worker pool + reusable
  /// communication staging buffers).  The runner passes one warm workspace
  /// across roots so steady-state levels stage without allocating; when
  /// null, the engine creates a private one per run.
  BfsWorkspace* workspace = nullptr;

  /// Per-subgraph direction selection (§4.2).  When false, one direction is
  /// chosen per iteration for all subgraphs (vanilla direction optimization,
  /// the Figure 15 baseline).
  bool sub_iteration_direction = true;

  /// How the EH2EH bottom-up kernel executes.
  ///   Host    — plain host loop (CPU-timed);
  ///   ChipGld — on the chip model, frontier bits read with GLD from main
  ///             memory (the unsegmented baseline of Figure 15);
  ///   ChipRma — CG-aware core subgraph segmenting (§4.3): frontier bits
  ///             distributed over CPE LDMs and read via RMA.
  enum class EhPullKernel { Host, ChipGld, ChipRma };
  EhPullKernel pull_kernel = EhPullKernel::Host;
  /// Chip to run EH2EH pull kernels on (required unless Host).
  chip::Chip* chip = nullptr;

  /// Reduce delegated parents once at the end (true, §5) or after every
  /// iteration (false, the traditional scheme).
  bool delayed_parent_reduction = true;

  /// Use the edge-aware vertex cut for EH2EH push (§5).
  bool edge_aware_vertex_cut = true;

  // --- direction heuristics ------------------------------------------------
  /// Node-local subgraphs switch to pull when the source class's active
  /// fraction exceeds this (only the source ratio is used, §4.2).
  double local_pull_ratio = 0.15;
  /// Cross-node subgraphs switch to pull when active-source fraction exceeds
  /// remote_pull_factor * unvisited-destination fraction.  Pull is cheap for
  /// these subgraphs (delegated frontiers avoid per-edge messages), so the
  /// tuned factor is well below 1.
  double remote_pull_factor = 0.2;
  /// Whole-iteration threshold used when sub_iteration_direction is false.
  double global_pull_ratio = 0.04;

  // --- fault recovery ------------------------------------------------------
  /// Retry budget used when the runtime runs under FaultPolicy::Recover
  /// with a FaultPlan installed (sim/recover.hpp): the engine checkpoints
  /// its frontier bitmaps and parent array at level boundaries.
  sim::RecoveryOptions recovery;

  /// Exchange plan of the world-wide exchanges — the L2L push and the
  /// delayed-parent delivery — and wire encoding of every staged exchange
  /// and frontier gather of the seven sub-kernels (sim/exchange.hpp);
  /// applied to the workspace pools at engine construction.  TwoDCA is the
  /// paper's §4.4 hierarchical L2L route (row hop to the destination's
  /// column, then column delivery).  The row/column sub-exchanges (H2L, L2H)
  /// already are a manual mesh split and always run direct.  Parents stay
  /// bit-identical across settings (ctest -L differential).
  sim::ExchangeOptions exchange;
};

struct Bfs15dResult {
  /// Parent of every owned vertex (local index order); kNoVertex where
  /// unreached.  Globally consistent after the delegated-parent reduction.
  std::vector<graph::Vertex> parent;
  BfsStats stats;
};

/// Run BFS from `root` (global vertex id).  Collective over all ranks.
Bfs15dResult bfs15d_run(sim::RankContext& ctx, const partition::Part15d& part,
                        graph::Vertex root, const Bfs15dOptions& options = {});

}  // namespace sunbfs::bfs
