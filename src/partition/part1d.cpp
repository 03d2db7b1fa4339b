#include "partition/part1d.hpp"

#include "support/check.hpp"

namespace sunbfs::partition {

Part1d build_1d(sim::RankContext& ctx, const VertexSpace& space,
                std::span<const graph::Edge> slice) {
  SUNBFS_CHECK(space.nranks == ctx.nranks());
  std::vector<std::vector<graph::Edge>> to(size_t(ctx.nranks()));
  for (const graph::Edge& e : slice) {
    // Both orientations, including self loops twice, matching
    // Csr::from_undirected's adjacency-matrix convention.
    to[size_t(space.owner(e.u))].push_back(graph::Edge{e.u, e.v});
    to[size_t(space.owner(e.v))].push_back(graph::Edge{e.v, e.u});
  }
  std::vector<graph::Edge> arcs = ctx.world.alltoallv(to);

  Part1d part;
  part.space = space;
  std::vector<graph::Vertex> rows, vals;
  rows.reserve(arcs.size());
  vals.reserve(arcs.size());
  for (const graph::Edge& a : arcs) {
    rows.push_back(graph::Vertex(space.to_local(ctx.rank, a.u)));
    vals.push_back(a.v);
  }
  part.adj = graph::Csr::from_arcs(space.count(ctx.rank), rows, vals);
  part.adj.sort_rows_descending();
  return part;
}

}  // namespace sunbfs::partition
