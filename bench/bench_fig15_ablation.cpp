// Figure 15 + §6.4: impact of sub-iteration direction optimization and
// CG-aware core subgraph segmenting.
//
// The paper measures three configurations at SCALE 35 / 256 nodes:
//   (a) Baseline   — vanilla whole-iteration direction optimization,
//                     unsegmented (GLD) pull;
//   (b) + Sub-Iter — per-subgraph directions;
//   (c) + Segment. — plus the RMA-segmented EH2EH pull (9x on that kernel).
// Time is broken into EH2EH pull / others pull / EH2EH push / others push /
// other.
#include <vector>

#include "bench/common.hpp"
#include "bfs/runner.hpp"
#include "bfs/segmenting.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_fig15_ablation");
  bench::header("Figure 15", "ablation: sub-iteration direction + segmenting");
  bench::paper_line(
      "sub-iteration moves expensive EH pushes into cheap pulls; segmenting "
      "speeds the EH2EH pull kernel ~9x");

  bfs::RunnerConfig base;
  base.graph.scale = 15 + bench::scale_delta();
  base.graph.seed = 15;
  base.thresholds = {2048, 64};
  base.num_roots = 3;
  base.validate = false;
  base.chip_geometry = chip::Geometry{6, 16, 64 * 1024};  // scaled-down chip
  sim::Topology topo(sim::MeshShape{2, 2});

  struct Config {
    const char* name;
    bool sub_iter;
    bfs::Bfs15dOptions::EhPullKernel kernel;
  };
  std::vector<Config> configs = {
      {"Baseline", false, bfs::Bfs15dOptions::EhPullKernel::ChipGld},
      {"+ Sub-Iter.", true, bfs::Bfs15dOptions::EhPullKernel::ChipGld},
      {"+ Segment.", true, bfs::Bfs15dOptions::EhPullKernel::ChipRma},
  };

  std::printf("scale %d, %d ranks, chip %d CGs x %d CPEs\n\n",
              base.graph.scale, topo.mesh().ranks(),
              base.chip_geometry.core_groups, base.chip_geometry.cpes_per_cg);
  std::printf("%-12s %12s %12s %12s %12s %10s %12s\n", "config",
              "EH2EH pull", "others pull", "EH2EH push", "others push",
              "other", "total (ms)");

  double eh_pull[3] = {};
  for (size_t i = 0; i < configs.size(); ++i) {
    bfs::RunnerConfig cfg = base;
    cfg.bfs.sub_iteration_direction = configs[i].sub_iter;
    cfg.bfs.pull_kernel = configs[i].kernel;
    auto result = bfs::run_graph500(topo, cfg);
    double eh2eh_pull = 0, others_pull = 0, eh2eh_push = 0, others_push = 0,
           other = 0;
    for (const auto& run : result.runs) {
      const auto& s = run.stats;
      int eh = int(partition::Subgraph::EH2EH);
      eh2eh_pull += s.pull_cpu_s[size_t(eh)];
      eh2eh_push += s.push_cpu_s[size_t(eh)];
      for (int g = 0; g < partition::kSubgraphCount; ++g) {
        if (g == eh) continue;
        others_pull += s.pull_cpu_s[size_t(g)];
        others_push += s.push_cpu_s[size_t(g)];
      }
      other += s.reduce_cpu_s + s.other_cpu_s + s.total_comm_modeled_s();
    }
    double total = eh2eh_pull + others_pull + eh2eh_push + others_push + other;
    std::printf("%-12s %11.3f%% %11.3f%% %11.3f%% %11.3f%% %9.3f%% %12.4f\n",
                configs[i].name, 100 * eh2eh_pull / total,
                100 * others_pull / total, 100 * eh2eh_push / total,
                100 * others_push / total, 100 * other / total, total * 1e3);
    const std::string row = "fig15.config" + std::to_string(i) + ".";
    bench::report().gauge(row + "eh2eh_pull_pct", 100 * eh2eh_pull / total);
    bench::report().gauge(row + "eh2eh_push_pct", 100 * eh2eh_push / total);
    bench::report().gauge(row + "total_ms", total * 1e3);
    eh_pull[i] = eh2eh_pull;
  }
  (void)eh_pull;
  // Kernel-level comparison on the heaviest-iteration regime (the paper's
  // 9x claim is specifically about the largest bottom-up iteration): a
  // dense pull over the core subgraph, half the EH frontier active.
  {
    partition::VertexSpace space{base.graph.num_vertices(), 1};
    sim::run_spmd(sim::MeshShape{1, 1}, [&](sim::RankContext& ctx) {
      auto slice = graph::generate_rmat(base.graph);
      auto deg = partition::compute_local_degrees(ctx, space, slice);
      ThreadPool pool(resolve_threads_per_rank(0, 1));
      auto part = partition::build_15d(ctx, space, slice, deg,
                                       {base.thresholds.e, 16}, pool);
      chip::Chip chip(base.chip_geometry);
      bfs::ChipEhPuller puller(chip, part, ctx.mesh, 0);
      uint64_t k = part.cls.num_eh();
      BitVector curr(k), visited(k);
      for (uint64_t i = 0; i < k; i += 2) curr.set(i);
      std::vector<graph::Vertex> cand(k, graph::kNoVertex);
      auto gld = puller.pull(curr, visited, cand, false);
      auto rma = puller.pull(curr, visited, cand, true);
      std::printf("\nEH2EH pull kernel, heaviest iteration (|EH|=%llu, half "
                  "active):\n  GLD baseline %.3f ms -> segmented RMA %.3f "
                  "ms: %.1fx (paper: 9x)\n",
                  (unsigned long long)k, gld.report.modeled_seconds * 1e3,
                  rma.report.modeled_seconds * 1e3,
                  gld.report.modeled_seconds / rma.report.modeled_seconds);
      bench::report().gauge(
          "fig15.segmenting_speedup",
          gld.report.modeled_seconds / rma.report.modeled_seconds);
    });
  }

  bench::shape_line(
      "(a)->(b): EH-related push time drops, replaced by cheaper pulls; "
      "(b)->(c): the EH2EH pull bar shrinks by a large factor");
  return bench::finish();
}
