#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "partition/part1d.hpp"
#include "sim/exchange.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"

/// Batched multi-source BFS (MS-BFS, Then et al., adapted to the distributed
/// 1D layout): up to service::kMaxBatchWidth roots traverse simultaneously,
/// one bit per query in every frontier/visited word, so the whole batch
/// shares each level's collectives — one alltoallv (top-down) or one
/// frontier allgather (bottom-up) per level for all W queries, instead of W
/// sequential sweeps.  This is the amortization the query service's batching
/// exists to buy (docs/SERVICE.md; tests/test_service.cpp asserts the
/// collective-count win via CommStats).
///
/// Determinism contract: the parent of vertex v for query q is the
/// *maximum global id* neighbour u with depth_q(u) == depth_q(v) - 1.  The
/// rule names a unique tree per (graph, root) — independent of traversal
/// direction, batch width, batch composition and thread count — which is
/// what makes "batch output bit-identical to W single-root runs" a testable
/// equality rather than a coincidence of scheduling.  It is the parent rule
/// of every 1D engine (bfs1d, bfsasync), so a width-1 batch returns their
/// parent arrays.  Push levels fold every candidate with a fetch-max; the
/// bottom-up kernel scans the partition's descending rows (Part1d::adj) and
/// stops once every pending query has its first — hence max-id — hit.
///
/// The level control (direction, exact count or carried bound, rollback,
/// end rules, checkpoints and the level spans) is bfs1d's: both engines run
/// bfs::run_level_loop (bfs/level_loop.hpp).  What is the batch's own: one
/// query-mask word per owned vertex, a push that stages one bfs::MsbfsMsg
/// per cross-rank frontier arc (bfs/messages.hpp says why not one per
/// target), a pull over gathered mask words, a commit that stamps levels
/// and depths, and a modeled compute charge (work_edges x
/// kModeledSecondsPerEdge / threads) where bfs1d charges measured CPU.
namespace sunbfs::bfs {
class BfsWorkspace;
}

namespace sunbfs::service {

struct MsbfsOptions {
  /// Switch to bottom-up when active (vertex, query) pairs exceed this
  /// fraction of total x width.
  double pull_ratio = 0.10;
  /// Worker threads per rank; <= 0 means auto.  Ignored when `workspace` is
  /// provided.
  int threads_per_rank = 0;
  /// Optional resident per-rank workspace (pool, frontier gather buffer and
  /// the batched-visit channel, BfsWorkspace::batch_visits), shared across
  /// batches by the session; null means a private, cold one per run.
  bfs::BfsWorkspace* workspace = nullptr;
  /// Exchange plan of the visit alltoallv and wire encoding of it and the
  /// frontier-word allgather (sim/exchange.hpp).  Results stay bit-identical
  /// across settings (ctest -L differential).
  sim::ExchangeOptions exchange;
  /// Checkpoint/rollback retry budget, honoured when the rank runs under
  /// FaultPolicy::Recover (sim/recover.hpp; the per-level checkpoint holds
  /// the mask words + parents).  Results stay bit-identical to a fault-free
  /// run.
  sim::RecoveryOptions recovery;
  /// Also record per-vertex hop depths into MsbfsResult::depth (query-major,
  /// -1 = unreached).  Free of extra collectives: depths are stamped in the
  /// serial per-level commit.  The distance oracle's sketches and cached
  /// trees are built from these rows (src/service/oracle/).
  bool record_depths = false;
};

struct MsbfsResult {
  int width = 0;
  /// Owned-slice parent arrays, query-major: parent[q * local_count + lloc].
  /// kNoVertex where query q never reached the vertex.
  std::vector<graph::Vertex> parent;
  /// BFS levels (eccentricity from the root within its component) per query.
  std::vector<int> levels;
  /// Owned-slice hop depths, query-major like `parent` (only populated when
  /// MsbfsOptions::record_depths): -1 where query q never reached the vertex.
  std::vector<int32_t> depth;
  int num_iterations = 0;    ///< shared level-loop sweeps for the batch
  uint64_t work_edges = 0;   ///< this rank's examined-edge count
  double compute_model_s = 0;  ///< work_edges x kModeledSecondsPerEdge / threads
};

/// Run one batch of `roots` (1 <= |roots| <= kMaxBatchWidth, duplicates
/// allowed) over the resident 1D partition.  Collective over ctx.world.
MsbfsResult msbfs_run(sim::RankContext& ctx, const partition::Part1d& part,
                      std::span<const graph::Vertex> roots,
                      const MsbfsOptions& options = {});

}  // namespace sunbfs::service
