#pragma once

#include <optional>
#include <vector>

#include "bfs/engine.hpp"
#include "chip/arch.hpp"
#include "graph/gteps.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/balance.hpp"
#include "sim/runtime.hpp"

/// Graph 500 benchmark driver: generate → partition → BFS from N random
/// search keys → validate → report harmonic-mean GTEPS.  This is the
/// end-to-end pipeline behind the headline result and most figures.
namespace sunbfs::bfs {

struct RunnerConfig {
  graph::Graph500Config graph;
  partition::DegreeThresholds thresholds;
  /// Engine selection (bfs/engine.hpp: EngineKind, parse_engine_kind,
  /// make_engine).
  EngineKind engine = EngineKind::OneFiveD;
  Bfs15dOptions bfs;  ///< chip field ignored; see chip_geometry
  Bfs1dOptions bfs1d;
  BfsAsyncOptions bfsasync;
  int num_roots = 8;
  uint64_t root_seed = 7;
  bool validate = true;
  /// Per-rank chip used when bfs.pull_kernel is chip-executed.
  chip::Geometry chip_geometry = chip::Geometry::tiny();
  /// Optional deterministic fault schedule (see sim/fault.hpp).  Faults are
  /// armed only around the BFS runs themselves — generation, partitioning
  /// and the final parent gather run fault-free, so a plan's call indices
  /// are relative to the start of the search phase.
  const sim::FaultPlan* faults = nullptr;
  sim::FaultPolicy fault_policy = sim::FaultPolicy::Recover;
};

/// Result of one search key.
struct RootRun {
  graph::Vertex root = 0;
  double modeled_s = 0;  ///< max-rank compute CPU + modeled network time
  double wall_s = 0;     ///< host wall time (simulation cost)
  uint64_t traversed_edges = 0;
  /// xxhash64 of the global parent array: the bit-identity probe the
  /// differential suites compare across exchange plans.
  uint64_t parent_checksum = 0;
  bool valid = false;
  std::string error;
  /// Per-rank stats summed (1.5D engine only).
  BfsStats stats;

  graph::BfsRunSample sample() const {
    return graph::BfsRunSample{modeled_s, traversed_edges};
  }
};

struct RunnerResult {
  std::vector<RootRun> runs;
  double harmonic_gteps = 0;  ///< over the modeled clock
  bool all_valid = false;
  partition::BalanceReport balance;       ///< 1.5D engine only
  uint64_t num_eh = 0, num_e = 0;         ///< classification sizes
  sim::SpmdReport spmd;                   ///< whole-pipeline comm stats
  double partition_wall_s = 0;            ///< generation + partitioning
  uint64_t threads_per_rank = 0;          ///< resolved intra-rank workers
  /// Communication-staging buffer growths summed over ranks: during the
  /// first (warmup) root, and during every root after it.  The steady count
  /// must be zero — the staging pools are sized by the warmup root and never
  /// allocate again (docs/PERF.md).
  uint64_t staging_allocs_warmup = 0;
  uint64_t staging_allocs_steady = 0;
  /// Wire bytes of the search phase proper — deltas of the per-rank
  /// CommStats taken around the engine invocations only (generation,
  /// partitioning and the validation parent gather excluded), summed over
  /// roots and ranks.  With encoding enabled these count encoded bytes;
  /// this is the quantity the BENCH_encoding ablation compares on/off.
  uint64_t search_alltoallv_bytes = 0;
  uint64_t search_allgather_bytes = 0;
  /// Portion of search_alltoallv_bytes that crossed a supernode boundary —
  /// the quantity the exchange-backend ablation compares: the staged 2dca
  /// plan merges messages on intra-supernode hops before they reach the
  /// oversubscribed inter-supernode links (docs/COMM.md).
  uint64_t search_alltoallv_inter_bytes = 0;
  /// Modeled network seconds of those search-phase alltoallvs, summed over
  /// roots, on the rank whose sum is largest.  Deterministic like the
  /// bytes; a staged plan pays one Topology::transfer_time per stage, each
  /// over its row or column group.
  double search_alltoallv_modeled_s = 0;

  /// Fold the whole benchmark into a metrics report: headline GTEPS and
  /// validation under "graph500.", summed per-subgraph BFS breakdown under
  /// "bfs.", comm/fault/spmd aggregates via SpmdReport::to_report.  This is
  /// the object --metrics-out serializes (see docs/OBSERVABILITY.md).
  void to_report(obs::Report& report) const;
};

/// Run the full benchmark on `topology`'s mesh.  Validation runs on the
/// host against a serially regenerated edge list, so keep scales modest
/// when validate is on.
RunnerResult run_graph500(const sim::Topology& topology,
                          const RunnerConfig& config);

/// Merge per-rank stats by summing all time components (composition shares
/// are what the breakdown figures report).
BfsStats sum_stats(const std::vector<BfsStats>& per_rank);

/// Degree-aware search-key selection, shared by the Graph 500 runner and the
/// service load generator (src/service): every rank draws the same candidate
/// stream from Xoshiro256**(seed), the owner votes on degree >= 1, and the
/// vote is allreduced, so all ranks agree on the same `count` keys with at
/// least one edge each.  Collective over ctx.world; `degrees` is this rank's
/// owned-vertex degree array (local index order).  Deterministic in
/// (seed, space) — tests/test_bfs.cpp pins the keys for a fixed seed.
std::vector<graph::Vertex> pick_search_keys(sim::RankContext& ctx,
                                            const partition::VertexSpace& space,
                                            std::span<const uint64_t> degrees,
                                            int count, uint64_t seed);

}  // namespace sunbfs::bfs
