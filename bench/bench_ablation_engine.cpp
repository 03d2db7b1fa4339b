// Ablation of the §5 implementation techniques that Figures 10/15 fold into
// the end-to-end number: delayed reduction of the delegated parent array,
// edge-aware vertex-cut load balancing for EH2EH push, and the §4.4
// hierarchical L2L route (the 2dca staged exchange).  Each row toggles
// exactly one technique against the full configuration.
#include <vector>

#include "bench/common.hpp"
#include "bfs/runner.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_ablation_engine");
  bench::header("Engine ablation",
                "delayed reduction / vertex cut / 2dca staged exchange");
  bench::paper_line(
      "SS5: delayed reduction 'significantly reduces collective "
      "communication volume during the BFS run'; edge-aware vertex cut "
      "'provides reasonable performance' under frontier skew");

  bfs::RunnerConfig base;
  base.graph.scale = 15 + bench::scale_delta();
  base.graph.seed = 4;
  base.thresholds = {2048, 256};
  base.num_roots = 4;
  base.validate = false;
  sim::Topology topo(sim::MeshShape{4, 4});

  struct Row {
    const char* name;
    const char* slug;  ///< metrics key: "ablation.<slug>.*"
    void (*tweak)(bfs::Bfs15dOptions&);
  };
  std::vector<Row> rows = {
      {"full configuration", "full", [](bfs::Bfs15dOptions&) {}},
      {"- delayed reduction (reduce every iteration)", "no_delayed_reduction",
       [](bfs::Bfs15dOptions& o) { o.delayed_parent_reduction = false; }},
      {"- edge-aware vertex cut", "no_edge_aware_cut",
       [](bfs::Bfs15dOptions& o) { o.edge_aware_vertex_cut = false; }},
      {"+ 2dca staged exchange", "2dca_exchange",
       [](bfs::Bfs15dOptions& o) {
         o.exchange.backend = sim::ExchangeBackend::TwoDCA;
       }},
  };

  std::printf("scale %d, %d ranks, %d roots\n\n", base.graph.scale,
              topo.mesh().ranks(), base.num_roots);
  std::printf("%-46s %10s %14s %16s %12s\n", "configuration", "GTEPS",
              "reduce time", "reduce bytes", "L2L comm");
  for (const auto& row : rows) {
    bfs::RunnerConfig cfg = base;
    row.tweak(cfg.bfs);
    auto result = bfs::run_graph500(topo, cfg);
    double reduce_s = 0, l2l_comm_s = 0;
    uint64_t rs_bytes = 0;
    for (const auto& run : result.runs) {
      reduce_s += run.stats.reduce_cpu_s + run.stats.reduce_comm_modeled_s;
      l2l_comm_s +=
          run.stats.comm_modeled_s[size_t(partition::Subgraph::L2L)];
      rs_bytes +=
          run.stats.comm.entry(sim::CollectiveType::ReduceScatter).bytes_sent;
    }
    std::printf("%-46s %10.3f %12.4fms %16llu %10.4fms\n", row.name,
                result.harmonic_gteps, reduce_s * 1e3,
                (unsigned long long)rs_bytes, l2l_comm_s * 1e3);
    const std::string key = std::string("ablation.") + row.slug + ".";
    bench::report().gauge(key + "gteps", result.harmonic_gteps);
    bench::report().gauge(key + "reduce_ms", reduce_s * 1e3);
    bench::report().add_counter(key + "reduce_scatter_bytes", rs_bytes);
    bench::report().gauge(key + "l2l_comm_ms", l2l_comm_s * 1e3);
  }

  bench::shape_line(
      "delayed reduction cuts reduce-scatter volume by ~the iteration "
      "count; the other toggles are second-order at simulation scale");
  return bench::finish();
}
