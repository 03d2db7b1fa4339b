// Running the pipeline on an external graph (§8: the partitioning "is
// designed for any graph with extremely skewed degree distribution, which
// is commonly found in social networks, web graphs").
//
// Reads a SNAP-style text edge list (or writes a demo one first),
// partitions it 1.5D, runs BFS from the highest-degree vertex, validates,
// and prints per-class statistics.
//
//   ./file_bfs [path/to/edges.txt]
#include <algorithm>
#include <cstdio>

#include "bfs/bfs15d.hpp"
#include "bfs/workspace.hpp"
#include "graph/io.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part15d.hpp"
#include "sim/runtime.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    // No input given: write a demo edge list so the example is runnable
    // stand-alone (a small R-MAT graph in the text format).
    path = "file_bfs_demo_edges.txt";
    graph::Graph500Config demo;
    demo.scale = 11;
    graph::write_edge_list_text(path, graph::generate_rmat(demo));
    std::printf("no input given; wrote demo graph to %s\n", path.c_str());
  }

  uint64_t num_vertices = 0;
  auto edges = graph::read_edge_list_text(path, &num_vertices);
  std::printf("loaded %s: %zu edges over %llu vertices\n", path.c_str(),
              edges.size(), (unsigned long long)num_vertices);

  // Pick thresholds from the degree distribution: E ~ top 0.01%%, H ~ top 1%%.
  auto degrees = graph::undirected_degrees(num_vertices, edges);
  auto sorted = degrees;
  std::sort(sorted.rbegin(), sorted.rend());
  partition::DegreeThresholds th;
  th.e = std::max<uint64_t>(2, sorted[sorted.size() / 10000]);
  th.h = std::max<uint64_t>(2, std::min(th.e, sorted[sorted.size() / 100]));
  graph::Vertex root =
      graph::Vertex(std::max_element(degrees.begin(), degrees.end()) -
                    degrees.begin());
  std::printf("auto thresholds: E >= %llu, H >= %llu; root = hub %lld "
              "(degree %llu)\n",
              (unsigned long long)th.e, (unsigned long long)th.h,
              (long long)root, (unsigned long long)degrees[size_t(root)]);

  sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{num_vertices, mesh.ranks()};
  std::vector<graph::Vertex> parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    // Each rank takes its slice of the loaded list (in a production system
    // each rank would read its own byte range of the file).
    size_t lo = edges.size() * size_t(ctx.rank) / size_t(ctx.nranks());
    size_t hi = edges.size() * size_t(ctx.rank + 1) / size_t(ctx.nranks());
    std::span<const graph::Edge> slice(edges.data() + lo, hi - lo);
    bfs::BfsWorkspace ws(resolve_threads_per_rank(0, size_t(ctx.nranks())));
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, deg, th, ws.pool());
    if (ctx.rank == 0)
      std::printf("classified |E| = %llu, |H| = %llu\n",
                  (unsigned long long)part.cls.num_e(),
                  (unsigned long long)part.cls.num_h());
    bfs::Bfs15dOptions options;
    options.workspace = &ws;
    auto res = bfs::bfs15d_run(ctx, part, root, options);
    auto gathered =
        ctx.world.allgatherv(std::span<const graph::Vertex>(res.parent));
    if (ctx.rank == 0) parent = std::move(gathered);
  });

  auto check = graph::validate_bfs(num_vertices, edges, root, parent);
  std::printf("BFS from %lld: reached %llu vertices / %llu in-component "
              "edges; validation %s\n",
              (long long)root, (unsigned long long)check.reached,
              (unsigned long long)check.edges_in_component,
              check.ok ? "PASSED" : check.error.c_str());
  return check.ok ? 0 : 1;
}
