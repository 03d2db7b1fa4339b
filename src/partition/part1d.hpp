#pragma once

#include <span>

#include "graph/csr.hpp"
#include "partition/space.hpp"
#include "sim/runtime.hpp"

/// Vanilla 1D partitioning (§2.1.1, Figure 1a): each rank owns a contiguous
/// vertex interval and stores the full adjacency of its owned vertices
/// (rows = local indices, values = global neighbor ids).  The baseline the
/// 1.5D method is measured against.
namespace sunbfs::partition {

struct Part1d {
  VertexSpace space;
  /// rows: local vertex index, values: global neighbor id.  Every row is
  /// sorted by descending global id (build_1d; Csr's patches keep it), so a
  /// pull scan's first frontier hit is the max-id parent.
  graph::Csr adj;
};

/// Build collectively from per-rank slices of the global edge list: each
/// undirected edge is routed to both endpoint owners (one alltoallv).
Part1d build_1d(sim::RankContext& ctx, const VertexSpace& space,
                std::span<const graph::Edge> slice);

}  // namespace sunbfs::partition
