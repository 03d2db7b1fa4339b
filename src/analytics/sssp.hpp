#pragma once

#include <span>
#include <vector>

#include "analytics/propagate.hpp"
#include "partition/part15d.hpp"
#include "sim/encoding.hpp"
#include "sim/exchange.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"

/// Single-source shortest paths over the 1.5D partition (Graph 500's second
/// kernel; §8 lists SSSP among the algorithms the push-pull structure
/// carries to).
///
/// Edge weights are synthesized deterministically and symmetrically from the
/// endpoint ids (the Graph 500 SSSP benchmark likewise attaches generated
/// weights to the Kronecker graph).  Relaxation is chaotic Bellman-Ford over
/// the six subgraph components per round: E/H distances are replicated and
/// merged with the column+row min-reduction; L-to-L relaxations message.
namespace sunbfs::analytics {

using Dist = uint64_t;
inline constexpr Dist kInfDist = ~Dist(0) / 4;

/// Deterministic symmetric weight in [1, max_weight] for edge {u, v}.
Dist edge_weight(graph::Vertex u, graph::Vertex v, uint64_t seed,
                 Dist max_weight = 255);

struct SsspOptions {
  uint64_t weight_seed = 42;
  Dist max_weight = 255;
  /// Rollback-and-replay knobs, honoured under FaultPolicy::Recover: the
  /// whole query replays from its initial state after a dropped corrupted
  /// contribution or a planned rank failure (sim/recover.hpp), with results
  /// bit-identical to a fault-free run.
  sim::RecoveryOptions recovery;
  /// Exchange plan and wire encoding of the L-to-L relaxation round
  /// (PropagateOptions).  Direct and raw by default; distances are
  /// bit-identical under every setting (ctest -L differential).
  sim::ExchangeOptions exchange{.encoding = false};
};

/// One cross-rank relaxation: candidate distance `value` for global vertex
/// `dst` (owned by the receiver).  sssp15d's L-to-L round and mutate/repair
/// ship it; staged plans keep the minimum per destination in flight.
using DistMsg = PropagateMsg<Dist, true>;

/// Distances of this rank's owned vertices (kInfDist if unreachable).
/// Collective.
std::vector<Dist> sssp15d(sim::RankContext& ctx,
                          const partition::Part15d& part, graph::Vertex root,
                          const SsspOptions& options = {});

/// Serial reference (Dijkstra) with the same weight function.
std::vector<Dist> reference_sssp(uint64_t num_vertices,
                                 std::span<const graph::Edge> edges,
                                 graph::Vertex root,
                                 const SsspOptions& options = {});

/// Outcome of validating one SSSP run (Graph 500 kernel-3-style rules).
struct SsspValidation {
  bool ok = false;
  std::string error;
  uint64_t reached = 0;
  uint64_t edges_in_component = 0;  ///< TEPS numerator (self loops excluded)
};

/// Validate `dist` as the exact shortest distances from `root` without a
/// reference solution:
///   1. dist[root] == 0;
///   2. an edge never connects a reached and an unreached vertex;
///   3. every edge is feasible: |d(u) - d(v)| <= w(u, v);
///   4. every reached non-root vertex has a tight predecessor
///      (d(v) == d(u) + w(u, v) for some neighbor u).
/// With positive weights, (1)+(3) bound d from above by the true distance
/// and (4) bounds it from below, so passing implies exactness.
SsspValidation validate_sssp(uint64_t num_vertices,
                             std::span<const graph::Edge> edges,
                             graph::Vertex root, std::span<const Dist> dist,
                             const SsspOptions& options = {});

}  // namespace sunbfs::analytics
