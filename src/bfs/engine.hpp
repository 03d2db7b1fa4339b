#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bfs/bfs15d.hpp"
#include "bfs/bfs1d.hpp"
#include "bfs/bfsasync.hpp"
#include "bfs/stats.hpp"
#include "partition/classify.hpp"
#include "sim/runtime.hpp"

/// Engine selection in one place: every driver that lets the user choose a
/// BFS engine (graph500_runner, the crossover bench, tests) goes through
/// parse_engine_kind and make_engine, so the set of engines, their partition
/// requirements and their option plumbing cannot drift apart between
/// call sites.
namespace sunbfs::bfs {

/// Which BFS engine to run.
enum class EngineKind {
  OneD,      ///< vanilla 1D baseline, level-synchronous
  OneFiveD,  ///< degree-aware 1.5D (the paper's system), level-synchronous
  Async,     ///< relaxed-frontier asynchronous engine (bfs/bfsasync.hpp)
};

/// CLI spelling of `kind` ("1d", "1.5d", "async").
const char* engine_kind_name(EngineKind kind);

/// Parse a CLI spelling; false on anything not listed by
/// engine_kind_choices().
bool parse_engine_kind(const std::string& s, EngineKind* out);

/// Comma-separated valid spellings for error messages ("1d, 1.5d, async").
const char* engine_kind_choices();

/// "--engine: unknown value 'x' (valid: 1d, 1.5d, async)" — the typed
/// rejection every driver prints for an enum-valued flag, built here so CLI
/// unit tests can pin the shape once for all tools.
std::string unknown_choice_error(const std::string& flag,
                                 const std::string& value,
                                 const std::string& choices);

/// Everything make_engine needs to build and later run one engine.  The
/// per-engine option structs are taken as-is (the caller points workspace /
/// chip fields at rank-lifetime resources before calling).
struct EngineConfig {
  EngineKind kind = EngineKind::OneFiveD;
  partition::DegreeThresholds thresholds;  ///< 1.5D classification
  Bfs15dOptions bfs15;
  Bfs1dOptions bfs1d;
  BfsAsyncOptions async;

  /// The selected engine's threads_per_rank request (needed before any
  /// workspace exists).
  int threads_request() const;
  /// The selected engine's workspace (null until the caller sets it).
  BfsWorkspace* workspace() const;
};

/// One root's traversal, shape-normalized across engines.
struct EngineRun {
  std::vector<graph::Vertex> parent;  ///< owned slice, local index order
  double cpu_s = 0;                   ///< this rank's compute CPU seconds
  double comm_modeled_s = 0;          ///< modeled network seconds
  /// Collective rounds of the traversal loop: BFS levels for the
  /// level-synchronous engines, exchange rounds for the async engine.
  int rounds = 0;
  BfsStats stats;          ///< per-subgraph breakdown (1.5D only)
  bool has_stats = false;  ///< whether `stats` is populated
};

/// A partition bound to an engine, reusable across roots.
class TraversalEngine {
 public:
  virtual ~TraversalEngine() = default;
  /// Run one traversal from `root`.  Collective over all ranks.
  virtual EngineRun run(sim::RankContext& ctx, graph::Vertex root) = 0;
  /// The underlying 1.5D partition when this engine has one (balance
  /// reports, classification sizes); null for the 1D-partitioned engines.
  virtual const partition::Part15d* part15() const { return nullptr; }
};

/// Build the partition `config.kind` needs from this rank's slice of the
/// global edge list and bind it to the engine.  Collective over all ranks
/// (the partition builds run alltoallvs); `local_degrees` must come from
/// partition::compute_local_degrees over the same slices.  The selected
/// engine's workspace must be set: the build runs on its pool.
std::unique_ptr<TraversalEngine> make_engine(
    sim::RankContext& ctx, const partition::VertexSpace& space,
    std::span<const graph::Edge> slice, std::span<const uint64_t> local_degrees,
    const EngineConfig& config);

}  // namespace sunbfs::bfs
