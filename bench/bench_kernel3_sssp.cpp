// Graph 500 kernel 3 (SSSP) companion bench.
//
// Not a paper exhibit — the paper measures BFS only — but §8 names SSSP
// among the algorithms the 1.5D techniques carry to, and Graph 500 defines
// SSSP as its second kernel.  Same pipeline as the BFS headline: generate,
// partition 1.5D, run the search keys, validate (reference-free structural
// rules), report harmonic-mean GTEPS.
#include "analytics/sssp_runner.hpp"
#include "partition/part15d.hpp"
#include "bench/common.hpp"
#include "support/timer.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  bench::init(argc, argv, "bench_kernel3_sssp");
  bench::header("Graph 500 kernel 3", "SSSP over the 1.5D partition");
  bench::paper_line(
      "SS8: 'the push-pull selection ... works on many graph algorithms, "
      "including SSSP'");

  analytics::SsspRunnerConfig cfg;
  cfg.graph.scale = 13 + bench::scale_delta();
  cfg.graph.seed = 3;
  cfg.thresholds = {1024, 128};
  cfg.num_roots = 4;
  sim::Topology topo(sim::MeshShape{2, 2});

  auto result = analytics::run_graph500_sssp(topo, cfg);

  std::printf("SCALE %d, %d ranks, %d keys, weights [1, %llu], |EH| = %llu\n\n",
              cfg.graph.scale, topo.mesh().ranks(), cfg.num_roots,
              (unsigned long long)cfg.sssp.max_weight,
              (unsigned long long)result.num_eh);
  std::printf("%6s %14s %14s %12s %7s\n", "key", "root", "trav. edges",
              "modeled s", "valid");
  for (size_t i = 0; i < result.runs.size(); ++i) {
    const auto& r = result.runs[i];
    std::printf("%6zu %14lld %14llu %12.6f %7s\n", i, (long long)r.root,
                (unsigned long long)r.traversed_edges, r.modeled_s,
                r.valid ? "yes" : r.error.c_str());
  }
  std::printf("\nharmonic mean: %.3f GTEPS (modeled)\n",
              result.harmonic_gteps);
  std::printf("all runs validated: %s\n", result.all_valid ? "YES" : "NO");

  // Wire format of the L-to-L round at key 0: raw (the default) vs encoded.
  {
    partition::VertexSpace space{cfg.graph.num_vertices(), 4};
    sim::run_spmd(sim::MeshShape{2, 2}, [&](sim::RankContext& ctx) {
      uint64_t m = cfg.graph.num_edges();
      auto slice = graph::generate_rmat_range(
          cfg.graph, m * uint64_t(ctx.rank) / 4,
          m * uint64_t(ctx.rank + 1) / 4);
      auto deg = partition::compute_local_degrees(ctx, space, slice);
      auto part = partition::build_15d(ctx, space, slice, deg,
                                       cfg.thresholds);
      struct Figures {
        double mb, comm_ms, cpu_ms;
      };
      auto measure = [&](bool encoded) {
        analytics::SsspOptions o = cfg.sssp;
        o.exchange.encoding = encoded;
        uint64_t bytes0 = ctx.stats.total_bytes_sent();
        double comm0 = ctx.stats.total_modeled_s();
        ThreadCpuTimer t;
        analytics::sssp15d(ctx, part, result.runs[0].root, o);
        return Figures{double(ctx.stats.total_bytes_sent() - bytes0) / 1e6,
                       (ctx.stats.total_modeled_s() - comm0) * 1e3,
                       t.seconds() * 1e3};
      };
      Figures raw = measure(false), enc = measure(true);
      if (ctx.rank == 0)
        std::printf("\nkey 0 on rank 0, raw vs encoded: %.3f vs %.3f MB sent, "
                    "%.3f vs %.3f ms modeled comm, %.3f vs %.3f ms CPU\n",
                    raw.mb, enc.mb, raw.comm_ms, enc.comm_ms, raw.cpu_ms,
                    enc.cpu_ms);
    });
  }

  bench::shape_line(
      "the partition built for BFS serves SSSP unchanged; every run passes "
      "the reference-free distance validation");
  bench::report().gauge("kernel3.harmonic_gteps", result.harmonic_gteps);
  bench::report().info("kernel3.all_valid",
                       result.all_valid ? "true" : "false");
  return bench::finish(result.all_valid ? 0 : 1);
}
