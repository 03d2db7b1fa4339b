// Graph query service demo: bring up a GraphSession (generate + partition
// once, keep everything resident), then serve a seeded synthetic workload
// through the batching QueryBroker and print per-query outcomes plus the
// latency/throughput summary.  Run with --help for the full flag table.
//
// The whole run is deterministic in its seeds: arrivals, roots, batch
// formation and the virtual clock replay identically, so two invocations
// with the same flags print the same latencies (docs/SERVICE.md).
//
// --faults LEVEL (1-3) injects a deterministic fault schedule of increasing
// intensity, seeded by --fault-seed, mirroring graph500_runner: under the
// default recover policy the engines checkpoint/replay, the broker retries
// queries whose batch exhausted recovery, and recovered answers stay
// bit-identical to a fault-free run.  --shed arms the overload breaker,
// --hedge the straggler re-execution.  Fault runs are diagnostics, not
// benchmark numbers.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

#include "bfs/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/session.hpp"
#include "support/cli.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  CliFlags cli("service_runner",
               "Graph query service: one resident GraphSession serving a "
               "seeded open- or closed-loop workload of BFS / SSSP-root "
               "queries with batching, deadlines and admission control.");
  cli.add("--scale", "N", "log2 of the vertex count (default 11)");
  cli.add("--seed", "S", "graph generator seed (default 1)");
  cli.add("--rows", "R", "mesh rows (default 2)");
  cli.add("--cols", "C", "mesh columns (default 2)");
  cli.add("--threads-per-rank", "T",
          "intra-rank worker threads; 0 = auto (default)");
  cli.add("--queries", "N", "total queries in the workload (default 64)");
  cli.add("--mode", "open|closed", "arrival process (default open)");
  cli.add("--rate", "QPS", "open loop: Poisson arrival rate (default 2000)");
  cli.add("--users", "U", "closed loop: concurrent users (default 8)");
  cli.add("--think-ms", "MS", "closed loop: think time (default 1)");
  cli.add("--deadline-ms", "MS",
          "relative per-query deadline; 0 = none (default 0)");
  cli.add("--width", "W", "batch width, <= 64 (default 64)");
  cli.add("--age-ms", "MS", "batch age timeout (default 5)");
  cli.add("--queue-cap", "N", "admission queue capacity (default 1024)");
  cli.add("--mix-sssp", "F", "fraction of SSSP-root queries (default 0)");
  cli.add("--mix-distance", "F",
          "fraction of point-to-point distance queries (default 0)");
  cli.add("--mix-reachable", "F",
          "fraction of point-to-point reachability queries (default 0)");
  cli.add("--root-dist", "uniform|zipfian",
          "root/target distribution over the pool (default uniform)");
  cli.add("--zipf-theta", "T", "zipfian skew exponent (default 0.99)");
  cli.add("--cache", "",
          "enable the distance-oracle cache (trees + landmark sketches)");
  cli.add("--cache-capacity", "N",
          "exact-tree LRU capacity (default 32)");
  cli.add("--landmarks", "K",
          "pinned landmark roots for the sketch, <= 64 (default 16)");
  cli.add("--lease-ms", "MS", "exact-tree lease (default 250)");
  cli.add("--sketch-lease-ms", "MS", "landmark-sketch lease (default 1000)");
  cli.add("--mutations", "N",
          "enable streaming mutations: N edge inserts + N deletes per batch "
          "(default 0 = off)");
  cli.add("--mutation-rate", "R",
          "mutation batches per query: apply one batch every round(1/R) "
          "query ids (default 1/32)");
  cli.add("--mutation-seed", "S", "mutation stream seed (default 99)");
  cli.add("--exchange", "direct|2dca",
          "exchange plan for the batched-visit and SSSP alltoallvs (default "
          "direct)");
  cli.add("--wl-seed", "S", "workload seed (default 1)");
  cli.add("--root-pool", "N", "root pool size (default 64)");
  cli.add("--faults", "LEVEL",
          "inject a deterministic fault schedule of intensity 1-3 (default "
          "0 = off)");
  cli.add("--fault-seed", "S", "fault schedule seed (default 1)");
  cli.add("--fault-policy", "abort|report|recover",
          "reaction to detected faults (default recover)");
  cli.add("--retry-budget", "N",
          "broker re-admissions per query after a failed batch (default 2)");
  cli.add("--shed", "",
          "enable the overload breaker (sheds priority-0 queries)");
  cli.add("--hedge", "",
          "enable hedged re-execution of straggling batches");
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

  service::ServiceConfig cfg;
  cfg.graph.scale = int(cli.u64("--scale", 11));
  cfg.graph.seed = cli.u64("--seed", 1);
  cfg.threads_per_rank = int(cli.u64("--threads-per-rank", 0));
  cfg.root_pool = int(cli.u64("--root-pool", 64));
  sim::ExchangeBackend backend = sim::ExchangeBackend::Direct;
  if (!sim::parse_exchange_backend(cli.str("--exchange", "direct"),
                                   &backend)) {
    std::fprintf(stderr, "%s\n\n%s",
                 bfs::unknown_choice_error("--exchange",
                                           cli.str("--exchange"),
                                           "direct, 2dca")
                     .c_str(),
                 cli.usage().c_str());
    return 2;
  }
  cfg.msbfs.exchange.backend = backend;
  cfg.sssp.exchange.backend = backend;
  sim::MeshShape mesh{int(cli.u64("--rows", 2)), int(cli.u64("--cols", 2))};
  sim::Topology topo(mesh);

  service::WorkloadConfig wl;
  wl.mode = cli.str("--mode", "open") == "closed"
                ? service::ArrivalMode::Closed
                : service::ArrivalMode::Open;
  wl.seed = cli.u64("--wl-seed", 1);
  wl.num_queries = cli.u64("--queries", 64);
  wl.rate_qps = cli.f64("--rate", 2000);
  wl.users = int(cli.u64("--users", 8));
  wl.think_s = cli.f64("--think-ms", 1) * 1e-3;
  double deadline_ms = cli.f64("--deadline-ms", 0);
  if (deadline_ms > 0) wl.deadline_s = deadline_ms * 1e-3;
  wl.sssp_fraction = cli.f64("--mix-sssp", 0);
  wl.distance_fraction = cli.f64("--mix-distance", 0);
  wl.reachable_fraction = cli.f64("--mix-reachable", 0);
  std::string root_dist = cli.str("--root-dist", "uniform");
  if (root_dist != "uniform" && root_dist != "zipfian") {
    std::fprintf(stderr, "%s\n\n%s",
                 bfs::unknown_choice_error("--root-dist", root_dist,
                                           "uniform, zipfian")
                     .c_str(),
                 cli.usage().c_str());
    return 2;
  }
  wl.root_dist = root_dist == "zipfian" ? service::RootDist::Zipfian
                                        : service::RootDist::Uniform;
  wl.zipf_theta = cli.f64("--zipf-theta", 0.99);

  // Streaming mutations (docs/SERVICE.md "Mutations & epochs"): --mutations N
  // arms the seeded log with N inserts + N deletes per batch; --mutation-rate
  // R spaces batches every round(1/R) query ids.
  const uint64_t mutation_ops = cli.u64("--mutations", 0);
  if (mutation_ops > 0) {
    cfg.mutation.enabled = true;
    cfg.mutation.inserts_per_batch = int(mutation_ops);
    cfg.mutation.deletes_per_batch = int(mutation_ops);
    cfg.mutation.seed = cli.u64("--mutation-seed", 99);
    const double rate = cli.f64("--mutation-rate", 1.0 / 32.0);
    if (rate > 0)
      cfg.mutation.every =
          std::max<uint64_t>(1, uint64_t(std::llround(1.0 / rate)));
  }

  cfg.cache.enabled = cli.has("--cache");
  cfg.cache.tree_capacity = cli.u64("--cache-capacity", 32);
  cfg.cache.landmarks = int(cli.u64("--landmarks", 16));
  cfg.cache.tree_lease_s = cli.f64("--lease-ms", 250) * 1e-3;
  cfg.cache.sketch_lease_s = cli.f64("--sketch-lease-ms", 1000) * 1e-3;

  // Fault schedule by intensity level: 1 = one straggler, 2 = the
  // graph500_runner acceptance mix (straggler + corruptions + one hard
  // failure), 3 = a storm of all three kinds.
  const int fault_level = int(cli.u64("--faults", 0));
  if (fault_level > 0) {
    const uint64_t fseed = cli.u64("--fault-seed", 1);
    const int s = fault_level >= 3 ? 2 : 1;
    const int c = fault_level >= 3 ? 4 : (fault_level >= 2 ? 2 : 1);
    const int f = fault_level >= 3 ? 2 : (fault_level >= 2 ? 1 : 0);
    cfg.faults = sim::FaultPlan::random(fseed, mesh.ranks(), s, c, f);
    std::string policy = cli.str("--fault-policy", "recover");
    if (policy == "abort")
      cfg.fault_policy = sim::FaultPolicy::Abort;
    else if (policy == "report")
      cfg.fault_policy = sim::FaultPolicy::Report;
    else
      cfg.fault_policy = sim::FaultPolicy::Recover;
  }
  cfg.retry_budget = int(cli.u64("--retry-budget", 2));
  cfg.hedge.enabled = cli.has("--hedge");

  service::BrokerConfig broker;
  broker.batch_width = int(cli.u64("--width", 64));
  broker.batch_age_s = cli.f64("--age-ms", 5) * 1e-3;
  broker.queue_capacity = cli.u64("--queue-cap", 1024);
  broker.shed.enabled = cli.has("--shed");

  std::string trace_out = cli.str("--trace-out");
  std::string metrics_out = cli.str("--metrics-out");
  if (!trace_out.empty()) obs::Tracer::instance().enable();

  std::printf("service_runner: SCALE %d graph resident on %s (exchange %s)\n",
              cfg.graph.scale, topo.to_string().c_str(),
              sim::exchange_backend_name(backend));
  std::printf("workload: %llu queries, %s loop, deadline %s, sssp mix %.2f\n",
              (unsigned long long)wl.num_queries,
              wl.mode == service::ArrivalMode::Open ? "open" : "closed",
              deadline_ms > 0 ? (std::to_string(deadline_ms) + " ms").c_str()
                              : "none",
              wl.sssp_fraction);
  std::printf("broker: width %d, age %.1f ms, queue capacity %zu, "
              "shedding %s, hedging %s\n\n",
              broker.batch_width, broker.batch_age_s * 1e3,
              broker.queue_capacity, broker.shed.enabled ? "on" : "off",
              cfg.hedge.enabled ? "on" : "off");
  if (fault_level > 0)
    std::printf("fault plan (level %d):\n%s\n", fault_level,
                cfg.faults.to_string().c_str());

  service::GraphSession session(topo, cfg);
  service::ServiceReport report;
  try {
    report = session.serve(wl, broker);
  } catch (const std::exception& e) {
    std::printf("aborted: %s\n", e.what());
    return 1;
  }
  if (!report.spmd.ok()) {
    for (const auto& e : report.spmd.errors)
      std::printf("error: %s\n", e.c_str());
    return 1;
  }

  std::printf("%6s %5s %9s %14s %12s %12s %6s %5s\n", "id", "kind", "status",
              "root", "latency ms", "trav. edges", "dist", "cache");
  for (const auto& r : report.results)
    std::printf("%6llu %5s %9s %14lld %12.4f %12llu %6lld %5s\n",
                (unsigned long long)r.id, service::query_kind_name(r.kind),
                service::query_status_name(r.status), (long long)r.root,
                r.latency_s * 1e3, (unsigned long long)r.traversed_edges,
                (long long)r.distance, r.cache_hit ? "hit" : "-");

  std::printf("\nsubmitted %llu, accepted %llu, rejected %llu, shed %llu, "
              "completed %llu, expired %llu (%llu queued + %llu late), "
              "failed %llu\n",
              (unsigned long long)report.submitted,
              (unsigned long long)report.accepted,
              (unsigned long long)report.rejected,
              (unsigned long long)report.shed,
              (unsigned long long)report.completed,
              (unsigned long long)report.expired_total(),
              (unsigned long long)report.expired_in_queue,
              (unsigned long long)report.expired_late,
              (unsigned long long)report.failed);
  std::printf("batches %llu, mean occupancy %.2f queries/batch\n",
              (unsigned long long)report.batches,
              report.mean_batch_occupancy);
  if (fault_level > 0 || report.failed_batches > 0 || report.shed > 0 ||
      report.hedged_batches > 0) {
    std::printf("degraded: %llu failed batches, %llu retries, %llu hedged "
                "batches, %llu breaker transitions, staging allocs "
                "%llu warm / %llu steady\n",
                (unsigned long long)report.failed_batches,
                (unsigned long long)report.retried,
                (unsigned long long)report.hedged_batches,
                (unsigned long long)report.breaker_transitions,
                (unsigned long long)report.staging_allocs_warmup,
                (unsigned long long)report.staging_allocs_steady);
    auto f = report.spmd.fault_totals();
    std::printf("faults: %s\n", f.to_string().c_str());
  }
  if (cfg.cache.enabled) {
    const auto& c = report.cache;
    std::printf("cache: %llu probes, %llu hits (%.1f%%; %llu tree + %llu "
                "sketch), %llu expired leases, %llu sketch refreshes\n",
                (unsigned long long)c.probes, (unsigned long long)c.hits,
                c.hit_rate() * 100.0, (unsigned long long)c.tree_hits,
                (unsigned long long)c.sketch_answers,
                (unsigned long long)c.expired,
                (unsigned long long)c.refreshes);
  }
  if (cfg.mutation.enabled) {
    const auto& mu = report.mutate;
    std::printf("mutations: %llu batches -> epoch %llu, %llu arcs inserted / "
                "%llu deleted, %llu tombstone misses, %llu compactions\n",
                (unsigned long long)mu.batches, (unsigned long long)mu.epoch,
                (unsigned long long)mu.inserted_arcs,
                (unsigned long long)mu.deleted_arcs,
                (unsigned long long)mu.delete_misses,
                (unsigned long long)mu.compactions);
    if (mu.sketch_repairs > 0)
      std::printf("repair: %llu sketch repairs (%llu invalidated, %llu "
                  "relaxations, %llu rounds)\n",
                  (unsigned long long)mu.sketch_repairs,
                  (unsigned long long)mu.repair_invalidated,
                  (unsigned long long)mu.repair_relaxations,
                  (unsigned long long)mu.repair_rounds);
  }
  std::printf("virtual makespan %.6f s -> %.1f QPS\n", report.makespan_s,
              report.qps);
  std::printf("latency (modeled): mean %.4f ms, p50 %.4f ms, p95 %.4f ms, "
              "p99 %.4f ms\n",
              report.latency_mean_s * 1e3, report.latency_p50_s * 1e3,
              report.latency_p95_s * 1e3, report.latency_p99_s * 1e3);

  if (!trace_out.empty()) {
    if (obs::Tracer::instance().write_chrome_trace_file(trace_out))
      std::printf("trace: wrote %zu events to %s\n",
                  obs::Tracer::instance().event_count(), trace_out.c_str());
    else
      std::printf("trace: FAILED writing %s\n", trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    obs::Report metrics;
    metrics.info("tool", "service_runner");
    metrics.info("scale", int64_t(cfg.graph.scale));
    metrics.info("mesh", std::to_string(mesh.rows) + "x" +
                             std::to_string(mesh.cols));
    metrics.info("mode",
                 wl.mode == service::ArrivalMode::Open ? "open" : "closed");
    metrics.info("faults",
                 fault_level > 0 ? std::to_string(fault_level) : "off");
    metrics.info("exchange", sim::exchange_backend_name(backend));
    report.to_report(metrics);
    if (metrics.write_file(metrics_out))
      std::printf("metrics: wrote %s\n", metrics_out.c_str());
    else
      std::printf("metrics: FAILED writing %s\n", metrics_out.c_str());
  }
  return 0;
}
