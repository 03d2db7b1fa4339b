// Quickstart: the smallest complete use of the library.
//
// Generates a Graph 500 R-MAT graph, partitions it with 3-level
// degree-aware 1.5D partitioning over a 2x2 simulated mesh, runs one BFS,
// validates the result against the Graph 500 rules, and prints a summary.
//
//   ./quickstart [scale]
#include <cstdio>
#include <cstdlib>

#include "bfs/bfs15d.hpp"
#include "bfs/workspace.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part15d.hpp"
#include "sim/runtime.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  graph::Graph500Config graph_cfg;
  graph_cfg.scale = argc > 1 ? std::atoi(argv[1]) : 12;
  graph_cfg.seed = 1;

  // The simulated machine: a 2x2 mesh of ranks; rows are supernodes.
  sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{graph_cfg.num_vertices(), mesh.ranks()};
  partition::DegreeThresholds thresholds{256, 32};

  std::printf("quickstart: scale %d (%llu vertices, %llu edges) on a %dx%d "
              "mesh\n",
              graph_cfg.scale,
              (unsigned long long)graph_cfg.num_vertices(),
              (unsigned long long)graph_cfg.num_edges(), mesh.rows,
              mesh.cols);

  graph::Vertex root = graph::generate_rmat_range(graph_cfg, 0, 1)[0].u;
  std::vector<graph::Vertex> parent;  // assembled global BFS tree

  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    // Each rank owns one workspace: its worker pool and staging buffers.
    bfs::BfsWorkspace ws(resolve_threads_per_rank(0, size_t(ctx.nranks())));

    // 1. Every rank generates exactly its slice of the edge list.
    uint64_t m = graph_cfg.num_edges();
    auto slice = graph::generate_rmat_range(
        graph_cfg, m * uint64_t(ctx.rank) / uint64_t(ctx.nranks()),
        m * uint64_t(ctx.rank + 1) / uint64_t(ctx.nranks()), &ws.pool());

    // 2. Distributed degree computation and 1.5D partitioning.
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, degrees, thresholds,
                                     ws.pool());
    if (ctx.rank == 0)
      std::printf("classified %llu E + %llu H vertices out of %llu\n",
                  (unsigned long long)part.cls.num_e(),
                  (unsigned long long)part.cls.num_h(),
                  (unsigned long long)space.total);

    // 3. BFS with sub-iteration direction optimization (defaults).
    bfs::Bfs15dOptions options;
    options.workspace = &ws;
    auto result = bfs::bfs15d_run(ctx, part, root, options);
    if (ctx.rank == 0)
      std::printf("BFS finished in %d iterations\n",
                  result.stats.num_iterations);

    // 4. Gather the distributed parent array for validation.
    auto gathered =
        ctx.world.allgatherv(std::span<const graph::Vertex>(result.parent));
    if (ctx.rank == 0) parent = std::move(gathered);
  });

  // 5. Validate against the Graph 500 specification.
  auto edges = graph::generate_rmat(graph_cfg);
  auto check = graph::validate_bfs(graph_cfg.num_vertices(), edges, root,
                                   parent);
  std::printf("root %lld: reached %llu vertices, %llu edges in component, "
              "validation %s\n",
              (long long)root, (unsigned long long)check.reached,
              (unsigned long long)check.edges_in_component,
              check.ok ? "PASSED" : check.error.c_str());
  return check.ok ? 0 : 1;
}
