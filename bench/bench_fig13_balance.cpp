// Figure 13 + §6.2.2: load balance of the 1.5D partition.
//
// The paper partitions the SCALE-44 graph over 103,912 nodes and reports the
// CDF of per-partition edge counts for each of the six subgraphs: at most a
// 4.2% min-max spread in EH2EH and <= 0.35% in the others; max-over-average
// 2.8% / 0.17%.
#include <vector>

#include "bench/common.hpp"
#include "graph/rmat.hpp"
#include "partition/balance.hpp"
#include "partition/part15d.hpp"
#include "sim/runtime.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_fig13_balance");
  bench::header("Figure 13", "distribution of partitioned subgraph sizes");
  bench::paper_line(
      "SCALE 44 over 103,912 nodes: min-max spread 4.2% (EH2EH), "
      "<=0.35% (others); max/avg 2.8% / <=0.17%");

  graph::Graph500Config cfg;
  cfg.scale = 16 + bench::scale_delta();
  sim::MeshShape mesh{4, 4};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  partition::DegreeThresholds th{2048, 128};
  std::printf("scale %d over %d ranks (mesh %dx%d), thresholds E>=%llu "
              "H>=%llu\n\n",
              cfg.scale, mesh.ranks(), mesh.rows, mesh.cols,
              (unsigned long long)th.e, (unsigned long long)th.h);

  partition::BalanceReport report;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    ThreadPool pool(resolve_threads_per_rank(0, size_t(ctx.nranks())));
    uint64_t m = cfg.num_edges();
    auto slice = graph::generate_rmat_range(
        cfg, m * uint64_t(ctx.rank) / uint64_t(ctx.nranks()),
        m * uint64_t(ctx.rank + 1) / uint64_t(ctx.nranks()), &pool);
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, deg, th, pool);
    auto rep = partition::gather_balance(ctx, part);
    if (ctx.rank == 0) report = rep;
  });

  std::printf("%-8s %14s %14s %14s %9s %9s\n", "subgraph", "min arcs",
              "avg arcs", "max arcs", "spread", "max/avg-1");
  for (int s = 0; s < partition::kSubgraphCount; ++s) {
    const auto& sm = report.per_subgraph[size_t(s)];
    std::printf("%-8s %14.0f %14.0f %14.0f %8.2f%% %8.2f%%\n",
                partition::subgraph_name(partition::Subgraph(s)), sm.min,
                sm.mean(), sm.max, sm.spread() * 100,
                sm.max_over_mean() * 100);
    const std::string row =
        std::string("fig13.") +
        partition::subgraph_name(partition::Subgraph(s)) + ".";
    bench::report().gauge(row + "spread_pct", sm.spread() * 100);
    bench::report().gauge(row + "max_over_mean_pct", sm.max_over_mean() * 100);
  }

  bench::shape_line(
      "every subgraph spreads only a few percent across ranks without any "
      "explicit rebalancing (vertices distributed evenly, edges follow the "
      "1.5D placement rules)");
  return bench::finish();
}
