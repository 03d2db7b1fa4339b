// Figure 11: execution time breakdown by communication type during scaling.
//
// The paper categorizes the run into compute, imbalance/latency, alltoallv,
// allgather and reduce-scatter, and observes the collective share growing
// with scale (alltoallv and reduce-scatter dominating it) while the
// imbalance component stays flat.
#include <vector>

#include "bench/common.hpp"
#include "bfs/runner.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_fig11_comm_breakdown");
  bench::header("Figure 11", "time breakdown by communication type");
  bench::paper_line(
      "communication share grows with scale, led by alltoallv and "
      "reduce-scatter; imbalance/latency roughly constant");

  int base_scale = 12 + bench::scale_delta();
  std::vector<sim::MeshShape> meshes = {{1, 2}, {2, 2}, {2, 4}, {4, 4}};

  std::printf("%6s | %8s %10s %10s %10s %10s %10s %10s\n", "ranks", "compute",
              "imbalance", "alltoallv", "allgather", "reduce_sc", "allreduce",
              "barrier");

  for (size_t i = 0; i < meshes.size(); ++i) {
    bfs::RunnerConfig cfg;
    cfg.graph.scale = base_scale + int(i) + 1;
    cfg.graph.seed = 9;
    cfg.thresholds = {2048, 256};
    cfg.num_roots = 2;
    cfg.validate = false;
    sim::Topology topo(meshes[i]);
    auto result = bfs::run_graph500(topo, cfg);

    // compute = mean per-rank CPU; imbalance = mean per-rank wait-for-peers
    // measured at every collective as the thread-CPU arrival spread
    // (CommStats::imbalance_s — a first-class measurement, not a
    // max-minus-mean subtraction); comm = modeled per type.
    int p = meshes[i].ranks();
    double comm_by_type[sim::kCollectiveTypeCount] = {};
    double cpu_sum = 0, imbalance = 0;
    for (const auto& run : result.runs) {
      cpu_sum += run.stats.total_cpu_s() / p;  // stats are summed over ranks
      imbalance += run.stats.comm.total_imbalance_s() / p;
      for (int t = 0; t < sim::kCollectiveTypeCount; ++t)
        comm_by_type[t] +=
            run.stats.comm.entry(sim::CollectiveType(t)).modeled_s / p;
    }
    double total = cpu_sum + imbalance;
    for (double c : comm_by_type) total += c;
    std::printf("%6d | %7.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%% %9.1f%%\n",
                p, 100 * cpu_sum / total, 100 * imbalance / total,
                100 * comm_by_type[int(sim::CollectiveType::Alltoallv)] / total,
                100 * comm_by_type[int(sim::CollectiveType::Allgather)] / total,
                100 * comm_by_type[int(sim::CollectiveType::ReduceScatter)] / total,
                100 * comm_by_type[int(sim::CollectiveType::Allreduce)] / total,
                100 * comm_by_type[int(sim::CollectiveType::Barrier)] / total);
    // Machine-readable Figure 11 row (percent shares, keyed by rank count).
    const std::string row = "fig11.ranks" + std::to_string(p) + ".";
    auto& rep = bench::report();
    rep.gauge(row + "compute_pct", 100 * cpu_sum / total);
    rep.gauge(row + "imbalance_pct", 100 * imbalance / total);
    rep.gauge(row + "alltoallv_pct",
              100 * comm_by_type[int(sim::CollectiveType::Alltoallv)] / total);
    rep.gauge(row + "allgather_pct",
              100 * comm_by_type[int(sim::CollectiveType::Allgather)] / total);
    rep.gauge(row + "reduce_scatter_pct",
              100 * comm_by_type[int(sim::CollectiveType::ReduceScatter)] /
                  total);
    rep.gauge(row + "allreduce_pct",
              100 * comm_by_type[int(sim::CollectiveType::Allreduce)] / total);
    rep.gauge(row + "imbalance_s", imbalance);

    // Encoding on/off axis: the same pipeline with raw wire structs, compared
    // on the deterministic search-phase byte counts (the breakdown above ran
    // with the adaptive encoding on — the default).
    bfs::RunnerConfig raw_cfg = cfg;
    raw_cfg.bfs.exchange.encoding = false;
    raw_cfg.bfs1d.exchange.encoding = false;
    auto raw = bfs::run_graph500(topo, raw_cfg);
    const double a2a_red =
        raw.search_alltoallv_bytes
            ? 100.0 * (1.0 - double(result.search_alltoallv_bytes) /
                                 double(raw.search_alltoallv_bytes))
            : 0.0;
    std::printf("%6s | encoding: alltoallv %llu -> %llu bytes "
                "(%.1f%% reduction), allgather %llu -> %llu\n",
                "", (unsigned long long)raw.search_alltoallv_bytes,
                (unsigned long long)result.search_alltoallv_bytes, a2a_red,
                (unsigned long long)raw.search_allgather_bytes,
                (unsigned long long)result.search_allgather_bytes);
    rep.add_counter(row + "encoding.alltoallv_bytes",
                    result.search_alltoallv_bytes);
    rep.add_counter(row + "encoding.alltoallv_bytes_raw",
                    raw.search_alltoallv_bytes);
    rep.add_counter(row + "encoding.allgather_bytes",
                    result.search_allgather_bytes);
    rep.add_counter(row + "encoding.allgather_bytes_raw",
                    raw.search_allgather_bytes);
    rep.gauge(row + "encoding.alltoallv_reduction_pct", a2a_red);

    // Exchange-backend axis: the same mesh driven through each exchange plan
    // (sim/exchange.hpp), compared on the inter-supernode subset of the
    // search alltoallv bytes — the traffic that crosses the oversubscribed
    // top-level links.  The axis pins the 1D engine top-down (pull levels
    // use the allgather, which no exchange plan touches) so every level
    // exercises the plan under test; bench_exchange is the full exhibit.
    uint64_t exch_direct_inter = 0;
    for (sim::ExchangeBackend backend :
         {sim::ExchangeBackend::Direct, sim::ExchangeBackend::TwoDCA}) {
      bfs::RunnerConfig ecfg = cfg;
      ecfg.engine = bfs::EngineKind::OneD;
      ecfg.bfs1d.pull_ratio = 2.0;
      ecfg.bfs1d.exchange.backend = backend;
      ecfg.bfs.exchange.backend = backend;
      auto eres = bfs::run_graph500(topo, ecfg);
      if (backend == sim::ExchangeBackend::Direct)
        exch_direct_inter = eres.search_alltoallv_inter_bytes;
      const double red =
          exch_direct_inter
              ? 100.0 * (1.0 - double(eres.search_alltoallv_inter_bytes) /
                                   double(exch_direct_inter))
              : 0.0;
      std::printf("%6s | exchange %-9s: alltoallv %llu bytes, "
                  "%llu inter-supernode (%.1f%% vs direct)\n",
                  "", sim::exchange_backend_name(backend),
                  (unsigned long long)eres.search_alltoallv_bytes,
                  (unsigned long long)eres.search_alltoallv_inter_bytes, red);
      const std::string ekey =
          row + "exchange." + sim::exchange_backend_name(backend) + ".";
      rep.add_counter(ekey + "alltoallv_bytes", eres.search_alltoallv_bytes);
      rep.add_counter(ekey + "alltoallv_inter_bytes",
                      eres.search_alltoallv_inter_bytes);
      rep.gauge(ekey + "inter_reduction_pct", red);
    }
  }
  std::printf("\nnote: EH frontier unions run as allreduce on this "
              "implementation; the paper's reduce-scatter+allgather pair is "
              "the same mesh-wide union pattern.\n");

  bench::shape_line(
      "collective share grows with rank count; point-to-point alltoallv and "
      "the frontier-union reductions dominate the communication time");
  return bench::finish();
}
