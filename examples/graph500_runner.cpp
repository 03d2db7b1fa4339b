// Full Graph 500 benchmark pipeline as a command-line tool (run with --help
// for the complete flag table; the usage text is generated from the same
// table the parser matches against, so every accepted flag is listed).
//
// --threads-per-rank sets the intra-rank worker count of every BFS kernel
// (and the generator/validator); 0 (default) means auto — hardware
// concurrency divided by the rank count, never oversubscribing the host.
//
// --trace-out writes the run as Chrome trace_event JSON (open in Perfetto:
// per-rank BFS levels, collectives, and — under --faults — rollback/replay
// spans on the modeled clock).  --metrics-out writes the machine-readable
// sunbfs.metrics/1 report that tools/regen_experiments.py consumes; see
// docs/OBSERVABILITY.md.
//
// Runs generation -> partitioning -> K timed BFS runs -> validation and
// prints a Graph 500-style report with the time breakdowns of Figures 10
// and 11 for the configured machine.
//
// --faults SEED injects a deterministic fault schedule (one straggler, two
// payload corruptions, one hard rank failure) into the searches; under the
// default recover policy the engines roll back to level checkpoints and the
// run still validates.  Fault runs are diagnostics, not benchmark numbers.
#include <cstdio>
#include <string>

#include "bfs/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/cli.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  CliFlags cli("graph500_runner",
               "Graph 500 benchmark pipeline: generate -> partition -> K "
               "timed BFS searches -> validate -> GTEPS report.");
  cli.add("--scale", "N", "log2 of the vertex count (default 14)");
  cli.add("--seed", "S", "graph generator seed (default 1)");
  cli.add("--rows", "R", "mesh rows (default 2)");
  cli.add("--cols", "C", "mesh columns (default 2)");
  cli.add("--roots", "K", "number of search keys (default 8)");
  cli.add("--e-threshold", "D", "degree threshold for E vertices (default 2048)");
  cli.add("--h-threshold", "D", "degree threshold for H vertices (default 128)");
  cli.add("--no-validate", "", "skip host-side validation");
  cli.add("--no-encoding", "",
          "ship raw structs instead of adaptive wire encoding");
  cli.add("--exchange", "direct|2dca",
          "exchange plan for the world-wide alltoallvs (default direct)");
  cli.add("--engine", "1d|1.5d|async", "BFS engine (default 1.5d)");
  cli.add("--baseline-direction", "",
          "disable per-sub-iteration direction choice (whole-level only)");
  cli.add("--threads-per-rank", "T",
          "intra-rank worker threads; 0 = auto (default)");
  cli.add("--faults", "SEED",
          "inject a deterministic fault schedule from SEED");
  cli.add("--fault-policy", "abort|report|recover",
          "reaction to detected faults (default recover)");
  cli.add("--trace-out", "PATH", "write Chrome trace_event JSON");
  cli.add("--metrics-out", "PATH", "write the sunbfs.metrics/1 report");
  std::string error;
  if (!cli.parse(argc, argv, &error)) {
    std::fprintf(stderr, "%s\n\n%s", error.c_str(), cli.usage().c_str());
    return 2;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }

  bfs::RunnerConfig cfg;
  cfg.graph.scale = int(cli.u64("--scale", 14));
  cfg.graph.seed = cli.u64("--seed", 1);
  cfg.thresholds.e = cli.u64("--e-threshold", 2048);
  cfg.thresholds.h = cli.u64("--h-threshold", 128);
  cfg.num_roots = int(cli.u64("--roots", 8));
  cfg.bfs.threads_per_rank = int(cli.u64("--threads-per-rank", 0));
  cfg.bfs1d.threads_per_rank = cfg.bfs.threads_per_rank;
  cfg.bfsasync.threads_per_rank = cfg.bfs.threads_per_rank;
  cfg.validate = !cli.has("--no-validate");
  sim::ExchangeOptions exchange{.encoding = !cli.has("--no-encoding")};
  if (!sim::parse_exchange_backend(cli.str("--exchange", "direct"),
                                   &exchange.backend)) {
    std::fprintf(stderr, "%s\n\n%s",
                 bfs::unknown_choice_error("--exchange",
                                           cli.str("--exchange"),
                                           "direct, 2dca")
                     .c_str(),
                 cli.usage().c_str());
    return 2;
  }
  cfg.bfs.exchange = exchange;
  cfg.bfs1d.exchange = exchange;
  cfg.bfsasync.exchange = exchange;
  cfg.bfs.sub_iteration_direction = !cli.has("--baseline-direction");
  if (!bfs::parse_engine_kind(cli.str("--engine", "1.5d"), &cfg.engine)) {
    std::fprintf(stderr, "%s\n\n%s",
                 bfs::unknown_choice_error("--engine", cli.str("--engine"),
                                           bfs::engine_kind_choices())
                     .c_str(),
                 cli.usage().c_str());
    return 2;
  }
  sim::MeshShape mesh{int(cli.u64("--rows", 2)), int(cli.u64("--cols", 2))};
  sim::Topology topo(mesh);

  std::string trace_out = cli.str("--trace-out");
  std::string metrics_out = cli.str("--metrics-out");
  if (!trace_out.empty()) obs::Tracer::instance().enable();

  // Optional deterministic fault injection (the acceptance scenario: one
  // straggler, two payload corruptions, one hard rank failure).
  sim::FaultPlan plan;
  if (cli.has("--faults")) {
    uint64_t fseed = cli.u64("--faults", 1);
    plan = sim::FaultPlan::random(fseed, mesh.ranks(), /*stragglers=*/1,
                                  /*corruptions=*/2, /*failures=*/1);
    cfg.faults = &plan;
    std::string policy = cli.str("--fault-policy", "recover");
    if (policy == "abort")
      cfg.fault_policy = sim::FaultPolicy::Abort;
    else if (policy == "report")
      cfg.fault_policy = sim::FaultPolicy::Report;
    else
      cfg.fault_policy = sim::FaultPolicy::Recover;
  }

  std::printf("graph500_runner: SCALE %d, edge factor %d, %s engine\n",
              cfg.graph.scale, cfg.graph.edge_factor,
              bfs::engine_kind_name(cfg.engine));
  std::printf("machine: %s\n", topo.to_string().c_str());
  std::printf("exchange: %s\n", sim::exchange_backend_name(exchange.backend));
  std::printf("thresholds: E >= %llu, H >= %llu; %d search keys; "
              "validation %s\n\n",
              (unsigned long long)cfg.thresholds.e,
              (unsigned long long)cfg.thresholds.h, cfg.num_roots,
              cfg.validate ? "on" : "off");

  if (cfg.faults) std::printf("fault plan:\n%s\n", plan.to_string().c_str());

  bfs::RunnerResult result;
  try {
    result = bfs::run_graph500(topo, cfg);
  } catch (const std::exception& e) {
    // Abort policy: the first detection / rank failure is rethrown here.
    std::printf("aborted: %s\n", e.what());
    return 1;
  }

  if (cfg.faults) {
    auto f = result.spmd.fault_totals();
    std::printf("faults: %s\n", f.to_string().c_str());
    for (const auto& e : result.spmd.errors)
      std::printf("  error: %s\n", e.c_str());
    std::printf("\n");
    if (!result.spmd.ok()) {
      std::printf("run failed under the %s fault policy\n",
                  cfg.fault_policy == sim::FaultPolicy::Report ? "report"
                                                               : "recover");
      return 1;
    }
  }

  std::printf("%6s %14s %14s %12s %7s\n", "key", "root", "trav. edges",
              "modeled s", "valid");
  for (size_t i = 0; i < result.runs.size(); ++i) {
    const auto& r = result.runs[i];
    std::printf("%6zu %14lld %14llu %12.6f %7s\n", i, (long long)r.root,
                (unsigned long long)r.traversed_edges, r.modeled_s,
                r.valid ? "yes" : "NO");
  }
  if (cfg.engine == bfs::EngineKind::OneFiveD) {
    std::printf("\nclassification: |E| = %llu, |EH| = %llu\n",
                (unsigned long long)result.num_e,
                (unsigned long long)result.num_eh);
    std::printf("time by subgraph (all runs, %% of attributed time):\n");
    double t[partition::kSubgraphCount] = {}, reduce = 0, other = 0,
           total = 0;
    for (const auto& run : result.runs) {
      for (int s = 0; s < partition::kSubgraphCount; ++s)
        t[s] += run.stats.push_cpu_s[size_t(s)] +
                run.stats.pull_cpu_s[size_t(s)] +
                run.stats.comm_modeled_s[size_t(s)];
      reduce += run.stats.reduce_cpu_s + run.stats.reduce_comm_modeled_s;
      other += run.stats.other_cpu_s + run.stats.other_comm_modeled_s;
    }
    for (double x : t) total += x;
    total += reduce + other;
    for (int s = 0; s < partition::kSubgraphCount; ++s)
      std::printf("  %-6s %5.1f%%\n",
                  partition::subgraph_name(partition::Subgraph(s)),
                  100 * t[s] / total);
    std::printf("  %-6s %5.1f%%\n  %-6s %5.1f%%\n", "reduce",
                100 * reduce / total, "other", 100 * other / total);
  }
  std::printf("\nsearch wire bytes: %llu alltoallv (%llu inter-supernode), "
              "%llu allgather (encoding %s, exchange %s)\n",
              (unsigned long long)result.search_alltoallv_bytes,
              (unsigned long long)result.search_alltoallv_inter_bytes,
              (unsigned long long)result.search_allgather_bytes,
              exchange.encoding ? "on" : "off",
              sim::exchange_backend_name(exchange.backend));
  std::printf("\nharmonic mean: %.3f GTEPS (modeled)\n",
              result.harmonic_gteps);
  if (cfg.validate)
    std::printf("validation: %s\n", result.all_valid ? "ALL PASSED" : "FAILED");

  if (!trace_out.empty()) {
    if (obs::Tracer::instance().write_chrome_trace_file(trace_out))
      std::printf("trace: wrote %zu events to %s\n",
                  obs::Tracer::instance().event_count(), trace_out.c_str());
    else
      std::printf("trace: FAILED writing %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::Report report;
    report.info("tool", "graph500_runner");
    report.info("scale", int64_t(cfg.graph.scale));
    report.info("edge_factor", int64_t(cfg.graph.edge_factor));
    report.info("mesh", std::to_string(mesh.rows) + "x" +
                            std::to_string(mesh.cols));
    report.info("engine", bfs::engine_kind_name(cfg.engine));
    report.info("faults", cfg.faults ? "on" : "off");
    report.info("encoding", exchange.encoding ? "on" : "off");
    report.info("exchange", sim::exchange_backend_name(exchange.backend));
    result.to_report(report);
    if (report.write_file(metrics_out))
      std::printf("metrics: wrote %s\n", metrics_out.c_str());
    else
      std::printf("metrics: FAILED writing %s\n", metrics_out.c_str());
  }
  return cfg.validate && !result.all_valid ? 1 : 0;
}
