// Chaos soak for the query service (ctest -L chaos): the full serving
// pipeline — workload generation, admission, batch formation, recoverable
// MS-BFS/SSSP execution, broker retries, shedding and hedging — replayed
// under randomized fault plans at three intensities.  Every run must hold
// the service's hard invariants:
//
//   1. Exactly-one-terminal-state: every issued query id appears exactly
//      once in the results, with a terminal status (Done / Expired /
//      Rejected / Failed) — faults may delay or fail queries, never lose or
//      duplicate them.
//   2. Bit-identical answers: a query completed under faults returns the
//      same traversed-edge count and level count as the fault-free replay
//      of the same workload (the engines' rollback-and-replay contract).
//   3. Allocation-free steady state: the resident staging pools stop
//      growing after the first executed batch, faults or not (BFS
//      workloads; the SSSP propagation engine is outside the pools).
//   4. Determinism: the same faulty configuration serves to bit-identical
//      reports, timings included.
//
// Any failure prints a single service_runner command that replays the
// offending configuration (--faults LEVEL --fault-seed SEED map to the
// same FaultPlan::random draws used here).
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bfs/runner.hpp"
#include "service/broker.hpp"
#include "service/session.hpp"
#include "service/workload.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"

namespace sunbfs::service {
namespace {

// Intensity levels, identical to service_runner's --faults LEVEL mapping so
// the printed repro command replays the same plan.
struct Intensity {
  int level;
  int stragglers, corruptions, failures;
};
constexpr Intensity kIntensities[] = {
    {1, 1, 1, 0},  // light: a straggler and one corruption
    {2, 1, 2, 1},  // medium: the graph500_runner acceptance mix
    {3, 2, 4, 2},  // heavy: a storm of all three kinds
};

ServiceConfig chaos_service() {
  ServiceConfig cfg;
  cfg.graph.scale = 9;
  cfg.graph.seed = 3;
  cfg.threads_per_rank = 2;
  cfg.root_pool = 16;
  return cfg;
}

WorkloadConfig chaos_workload() {
  WorkloadConfig wl;
  wl.seed = 17;
  wl.num_queries = 40;
  wl.rate_qps = 4000;
  return wl;
}

std::string repro_command(const ServiceConfig& cfg, const WorkloadConfig& wl,
                          int fault_level, uint64_t fault_seed) {
  std::string cmd =
      "service_runner --scale " + std::to_string(cfg.graph.scale) + " --seed " +
      std::to_string(cfg.graph.seed) + " --rows 2 --cols 2 "
      "--threads-per-rank " + std::to_string(cfg.threads_per_rank) +
      " --queries " + std::to_string(wl.num_queries) + " --rate " +
      std::to_string(int64_t(wl.rate_qps)) + " --wl-seed " +
      std::to_string(wl.seed) + " --root-pool " +
      std::to_string(cfg.root_pool);
  if (wl.deadline_s != kNoDeadline)
    cmd += " --deadline-ms " + std::to_string(wl.deadline_s * 1e3);
  if (cfg.mutation.enabled)
    cmd += " --mutations " + std::to_string(cfg.mutation.inserts_per_batch) +
           " --mutation-rate " +
           std::to_string(1.0 / double(cfg.mutation.every)) +
           " --mutation-seed " + std::to_string(cfg.mutation.seed);
  if (fault_level > 0)
    cmd += " --faults " + std::to_string(fault_level) + " --fault-seed " +
           std::to_string(fault_seed) + " --fault-policy recover";
  return cmd;
}

bool is_terminal(QueryStatus s) {
  return s == QueryStatus::Done || s == QueryStatus::Expired ||
         s == QueryStatus::Rejected || s == QueryStatus::Failed;
}

// Invariant 1: every issued id ends in exactly one terminal state, and the
// per-status counters partition the workload.
void check_terminal_accounting(const ServiceReport& report,
                               uint64_t num_queries) {
  std::vector<int> seen(num_queries, 0);
  for (const auto& r : report.results) {
    ASSERT_LT(r.id, num_queries);
    ASSERT_TRUE(is_terminal(r.status))
        << "query " << r.id << " non-terminal status";
    ++seen[size_t(r.id)];
  }
  for (uint64_t id = 0; id < num_queries; ++id)
    ASSERT_EQ(seen[size_t(id)], 1)
        << "query " << id << " has " << seen[size_t(id)]
        << " terminal states (want exactly 1)";
  EXPECT_EQ(report.completed + report.expired_total() + report.rejected +
                report.shed + report.failed,
            num_queries);
}

// Invariant 2: completed answers match the fault-free oracle bit-for-bit.
void check_answers_match(const ServiceReport& faulty,
                         const ServiceReport& clean) {
  std::map<uint64_t, std::pair<uint64_t, int>> oracle;
  for (const auto& r : clean.results)
    if (r.status == QueryStatus::Done)
      oracle[r.id] = {r.traversed_edges, r.levels};
  for (const auto& r : faulty.results) {
    if (r.status != QueryStatus::Done) continue;
    auto it = oracle.find(r.id);
    ASSERT_NE(it, oracle.end()) << "query " << r.id;
    EXPECT_EQ(r.traversed_edges, it->second.first)
        << "query " << r.id << " answer diverged under faults";
    EXPECT_EQ(r.levels, it->second.second)
        << "query " << r.id << " level count diverged under faults";
  }
}

void check_identical_reports(const ServiceReport& a, const ServiceReport& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    ASSERT_EQ(a.results[i].id, b.results[i].id) << "result " << i;
    ASSERT_EQ(a.results[i].status, b.results[i].status);
    ASSERT_EQ(a.results[i].done_s, b.results[i].done_s);
    ASSERT_EQ(a.results[i].latency_s, b.results[i].latency_s);
    ASSERT_EQ(a.results[i].traversed_edges, b.results[i].traversed_edges);
    ASSERT_EQ(a.results[i].retries, b.results[i].retries);
  }
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.retried, b.retried);
  EXPECT_EQ(a.failed, b.failed);
  EXPECT_EQ(a.shed, b.shed);
}

// The soak proper: three intensities x two plan seeds, all against the same
// fault-free oracle run.
TEST(ChaosSoak, RandomizedFaultPlansHoldServiceInvariants) {
  const ServiceConfig base = chaos_service();
  const WorkloadConfig wl = chaos_workload();
  sim::Topology topo(sim::MeshShape{2, 2});

  GraphSession clean_session(topo, base);
  ServiceReport clean = clean_session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(clean.spmd.ok());
  ASSERT_EQ(clean.completed, wl.num_queries);
  check_terminal_accounting(clean, wl.num_queries);
  EXPECT_EQ(clean.staging_allocs_steady, 0u);

  uint64_t injected_total = 0;
  for (const Intensity& in : kIntensities) {
    for (uint64_t fault_seed : {11ull, 29ull}) {
      SCOPED_TRACE("repro: " + repro_command(base, wl, in.level, fault_seed));
      ServiceConfig cfg = base;
      cfg.faults =
          sim::FaultPlan::random(fault_seed, topo.mesh().ranks(),
                                 in.stragglers, in.corruptions, in.failures);
      GraphSession session(topo, cfg);
      ServiceReport report = session.serve(wl, BrokerConfig{});
      ASSERT_TRUE(report.spmd.ok());
      check_terminal_accounting(report, wl.num_queries);
      check_answers_match(report, clean);
      // Invariant 3: no steady-state staging growth even while replaying.
      EXPECT_EQ(report.staging_allocs_steady, 0u);
      injected_total += report.spmd.fault_totals().injected();
    }
  }
  // The soak must actually have exercised the unhappy paths.
  EXPECT_GT(injected_total, 0u);
}

// Invariant 4 on the heaviest intensity: chaos is replayable.
TEST(ChaosSoak, FaultyRunsAreDeterministic) {
  const Intensity in = kIntensities[2];
  ServiceConfig cfg = chaos_service();
  cfg.faults = sim::FaultPlan::random(11, 4, in.stragglers, in.corruptions,
                                      in.failures);
  sim::Topology topo(sim::MeshShape{2, 2});
  SCOPED_TRACE("repro: " + repro_command(cfg, chaos_workload(), in.level, 11));
  GraphSession session(topo, cfg);
  ServiceReport first = session.serve(chaos_workload(), BrokerConfig{});
  ServiceReport second = session.serve(chaos_workload(), BrokerConfig{});
  ASSERT_TRUE(first.spmd.ok());
  ASSERT_TRUE(second.spmd.ok());
  check_identical_reports(first, second);
}

// The asynchronous relaxed-frontier engine under the same chaos treatment:
// randomized fault plans (the graph500_runner --faults mix: one straggler,
// two corruptions, one hard rank failure) against the full pipeline, every
// root still validating against the host reference.  The async engine's
// recoverable surface is different from the level-synchronous engines' —
// round-indexed checkpoints, a carried control fold — so the soak pins
// that rollback-and-replay is equally invisible there.
TEST(ChaosSoak, AsyncEngineSurvivesRandomFaultPlans) {
  sim::Topology topo(sim::MeshShape{2, 2});
  uint64_t injected_total = 0, recovered_total = 0;
  for (uint64_t fault_seed : {3ull, 13ull, 21ull}) {
    bfs::RunnerConfig cfg;
    cfg.graph.scale = 9;
    cfg.graph.seed = 5;
    cfg.engine = bfs::EngineKind::Async;
    cfg.num_roots = 2;
    cfg.bfsasync.threads_per_rank = 2;
    cfg.validate = true;
    sim::FaultPlan plan = sim::FaultPlan::random(
        fault_seed, topo.mesh().ranks(), /*stragglers=*/1, /*corruptions=*/2,
        /*failures=*/1);
    cfg.faults = &plan;
    cfg.fault_policy = sim::FaultPolicy::Recover;
    SCOPED_TRACE("repro: graph500_runner --scale 9 --seed 5 --rows 2 --cols 2"
                 " --roots 2 --threads-per-rank 2 --engine async --faults " +
                 std::to_string(fault_seed));
    bfs::RunnerResult result = bfs::run_graph500(topo, cfg);
    ASSERT_TRUE(result.spmd.ok())
        << result.spmd.errors.front();
    EXPECT_TRUE(result.all_valid);
    const sim::FaultStats totals = result.spmd.fault_totals();
    injected_total += totals.injected();
    recovered_total += totals.recovered;
  }
  // The soak must actually have exercised injection and rollback-and-replay.
  EXPECT_GT(injected_total, 0u);
  EXPECT_GT(recovered_total, 0u);
}

// Broker retry path end to end: with the in-engine retry budget at zero,
// every planned rank failure exhausts recovery, the batch fails, and the
// broker re-admits with backoff until the per-query budget runs out.
TEST(ChaosSoak, ExhaustedRecoveryFailsOverToBrokerRetries) {
  ServiceConfig cfg = chaos_service();
  cfg.faults = sim::FaultPlan::random(7, 4, 0, 0, /*failures=*/1);
  cfg.msbfs.recovery.max_retries = 0;  // any rollback exhausts the engine
  cfg.retry_budget = 1;
  WorkloadConfig wl = chaos_workload();
  wl.num_queries = 16;
  sim::Topology topo(sim::MeshShape{2, 2});
  SCOPED_TRACE("repro: " + repro_command(cfg, wl, 0, 7) +
               " (retry-budget 1, in-engine retries 0, 1 rank failure)");
  GraphSession session(topo, cfg);
  ServiceReport report = session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(report.spmd.ok());
  check_terminal_accounting(report, wl.num_queries);

  // Rank failures fire in every execution, so every attempt fails: each
  // query is retried once (the budget) and then fails for good.
  EXPECT_EQ(report.failed, wl.num_queries);
  EXPECT_EQ(report.retried, wl.num_queries);
  EXPECT_GT(report.failed_batches, 0u);
  EXPECT_EQ(report.completed, 0u);
  for (const auto& r : report.results) {
    ASSERT_EQ(r.status, QueryStatus::Failed);
    EXPECT_EQ(r.retries, 1);
    EXPECT_NE(r.error.find("QueryFailed"), std::string::npos) << r.error;
  }
}

// Overload shedding keeps the p99 of admitted queries bounded: under a
// burst overload (every arrival lands before the first batch finishes) with
// a fault storm stretching batch service times, the breaker must trip on
// queue occupancy, shed priority-0 load as typed fast-failures, and leave
// the admitted queries with a strictly better completed-query p99 than the
// unshedded baseline that drains the whole queue.
TEST(ChaosSoak, SheddingBoundsTailLatencyUnderOverload) {
  ServiceConfig cfg = chaos_service();
  cfg.faults = sim::FaultPlan::random(11, 4, 1, 2, 1);
  WorkloadConfig wl = chaos_workload();
  wl.num_queries = 64;
  wl.rate_qps = 1e6;  // a burst: all arrivals land at once, queue-wait rules
  sim::Topology topo(sim::MeshShape{2, 2});
  GraphSession session(topo, cfg);

  BrokerConfig unshed;
  unshed.batch_width = 8;  // 8 batches deep: the tail is pure queueing delay
  ServiceReport baseline = session.serve(wl, unshed);
  ASSERT_TRUE(baseline.spmd.ok());
  ASSERT_EQ(baseline.shed, 0u);

  BrokerConfig shed = unshed;
  shed.shed.enabled = true;
  shed.shed.queue_highwater = 0.02;  // trips on queue pressure quickly
  shed.shed.min_samples = 4;
  ServiceReport report = session.serve(wl, shed);
  ASSERT_TRUE(report.spmd.ok());
  check_terminal_accounting(report, wl.num_queries);

  EXPECT_GT(report.shed, 0u);
  EXPECT_GT(report.breaker_transitions, 0u);
  for (const auto& r : report.results) {
    if (r.status != QueryStatus::Rejected) continue;
    EXPECT_NE(r.error.find("QueryShed"), std::string::npos) << r.error;
  }
  // The point of shedding: admitted queries keep a bounded tail.
  EXPECT_LT(report.latency_p99_s, baseline.latency_p99_s)
      << "shedding did not improve the admitted p99";
}

// ----------------------- mutation-interleaved storms (ctest -L mutation)

ServiceConfig mutating_chaos_service() {
  ServiceConfig cfg = chaos_service();
  cfg.mutation.enabled = true;
  cfg.mutation.every = 8;
  cfg.mutation.max_batches = 4;
  cfg.mutation.inserts_per_batch = 4;
  cfg.mutation.deletes_per_batch = 4;
  return cfg;
}

// Epoch-aware variant of check_answers_match: a completed query whose epoch
// equals the oracle run's must answer bit-identically; a query that moved to
// a different epoch may only have done so through a broker retry (the
// rollback path re-admits it after mutations advanced the graph).
void check_answers_match_by_epoch(const ServiceReport& faulty,
                                  const ServiceReport& clean) {
  std::map<uint64_t, const QueryResult*> oracle;
  for (const auto& r : clean.results)
    if (r.status == QueryStatus::Done) oracle[r.id] = &r;
  for (const auto& r : faulty.results) {
    if (r.status != QueryStatus::Done) continue;
    auto it = oracle.find(r.id);
    ASSERT_NE(it, oracle.end()) << "query " << r.id;
    const QueryResult& b = *it->second;
    if (r.epoch != b.epoch) {
      EXPECT_GT(r.retries, 0)
          << "query " << r.id << " changed epoch without a retry";
      continue;
    }
    EXPECT_EQ(r.traversed_edges, b.traversed_edges)
        << "query " << r.id << " answer diverged under faults";
    EXPECT_EQ(r.levels, b.levels)
        << "query " << r.id << " level count diverged under faults";
    EXPECT_EQ(r.distance, b.distance) << "query " << r.id;
    EXPECT_EQ(r.reachable, b.reachable) << "query " << r.id;
  }
}

// The soak with streaming mutations live: randomized storms interleave edge
// insert/delete batches with fault injections.  Terminal accounting, the
// allocation-free steady state, and epoch-consistent answers must all
// survive, and the run must actually have mutated (epoch advanced).
TEST(ChaosSoak, MutationStormHoldsServiceInvariants) {
  const ServiceConfig base = mutating_chaos_service();
  const WorkloadConfig wl = chaos_workload();
  sim::Topology topo(sim::MeshShape{2, 2});

  GraphSession clean_session(topo, base);
  ServiceReport clean = clean_session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(clean.spmd.ok());
  check_terminal_accounting(clean, wl.num_queries);
  ASSERT_GT(clean.mutate.batches, 0u);
  EXPECT_EQ(clean.staging_allocs_steady, 0u);

  uint64_t injected_total = 0;
  for (const Intensity& in : kIntensities) {
    for (uint64_t fault_seed : {11ull, 29ull}) {
      SCOPED_TRACE("repro: " + repro_command(base, wl, in.level, fault_seed));
      ServiceConfig cfg = base;
      cfg.faults =
          sim::FaultPlan::random(fault_seed, topo.mesh().ranks(),
                                 in.stragglers, in.corruptions, in.failures);
      GraphSession session(topo, cfg);
      ServiceReport report = session.serve(wl, BrokerConfig{});
      ASSERT_TRUE(report.spmd.ok());
      check_terminal_accounting(report, wl.num_queries);
      check_answers_match_by_epoch(report, clean);
      EXPECT_EQ(report.mutate.batches, clean.mutate.batches)
          << "faults changed how many mutation batches applied";
      EXPECT_EQ(report.staging_allocs_steady, 0u);
      injected_total += report.spmd.fault_totals().injected();
    }
  }
  EXPECT_GT(injected_total, 0u);
}

// A mutation racing lease expiry: tiny oracle leases force constant artifact
// churn while mutation batches bump the epoch underneath.  Cache-served
// answers must stay bit-identical to the cache-off mutating run, with both
// the lease-expiry and the epoch-invalidation paths demonstrably exercised.
TEST(ChaosSoak, MutationRacesLeaseExpiryWithoutStaleAnswers) {
  ServiceConfig cached = mutating_chaos_service();
  cached.cache.enabled = true;
  cached.cache.tree_capacity = 8;
  cached.cache.landmarks = 8;
  cached.cache.tree_lease_s = 2e-4;   // expires between most probes
  cached.cache.sketch_lease_s = 2e-4;
  ServiceConfig plain = mutating_chaos_service();

  WorkloadConfig wl = chaos_workload();
  wl.distance_fraction = 0.3;
  wl.reachable_fraction = 0.15;
  wl.root_dist = RootDist::Zipfian;
  sim::Topology topo(sim::MeshShape{2, 2});
  SCOPED_TRACE("repro: " + repro_command(cached, wl, 0, 0) +
               " --cache --cache-capacity 8 --landmarks 8 --lease-ms 0.2"
               " --sketch-lease-ms 0.2 --mix-distance 0.3"
               " --mix-reachable 0.15 --root-dist zipfian");

  ServiceReport on = GraphSession(topo, cached).serve(wl, BrokerConfig{});
  ServiceReport off = GraphSession(topo, plain).serve(wl, BrokerConfig{});
  ASSERT_TRUE(on.spmd.ok());
  ASSERT_TRUE(off.spmd.ok());
  check_terminal_accounting(on, wl.num_queries);
  ASSERT_GT(on.mutate.batches, 0u);
  EXPECT_GT(on.cache.expired, 0u) << "leases never expired; race is vacuous";

  std::map<uint64_t, const QueryResult*> baseline;
  for (const auto& r : off.results) baseline[r.id] = &r;
  for (const auto& r : on.results) {
    auto it = baseline.find(r.id);
    ASSERT_NE(it, baseline.end()) << "query " << r.id;
    const QueryResult& b = *it->second;
    ASSERT_EQ(r.epoch, b.epoch) << "query " << r.id;
    EXPECT_EQ(r.status, b.status) << "query " << r.id;
    EXPECT_EQ(r.distance, b.distance)
        << "query " << r.id << (r.cache_hit ? " (cache hit)" : "");
    EXPECT_EQ(r.reachable, b.reachable) << "query " << r.id;
    EXPECT_EQ(r.traversed_edges, b.traversed_edges) << "query " << r.id;
    EXPECT_EQ(r.levels, b.levels) << "query " << r.id;
  }
}

// Rollback replaying a mutation from the log: planned rank failures force
// batch rollbacks after mutation epochs have applied.  The replicated log
// means replayed batches execute against exactly the graph their admission
// epoch named, so recovered answers still match the fault-free mutating
// oracle (epoch-aware) and the whole run replays bit-identically.
TEST(ChaosSoak, RollbackReplaysAcrossMutationEpochs) {
  ServiceConfig cfg = mutating_chaos_service();
  cfg.faults = sim::FaultPlan::random(7, 4, /*stragglers=*/0,
                                      /*corruptions=*/0, /*failures=*/2);
  const WorkloadConfig wl = chaos_workload();
  sim::Topology topo(sim::MeshShape{2, 2});
  SCOPED_TRACE("repro: " + repro_command(cfg, wl, 2, 7));

  GraphSession clean_session(topo, mutating_chaos_service());
  ServiceReport clean = clean_session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(clean.spmd.ok());

  GraphSession session(topo, cfg);
  ServiceReport first = session.serve(wl, BrokerConfig{});
  ServiceReport second = session.serve(wl, BrokerConfig{});
  ASSERT_TRUE(first.spmd.ok());
  ASSERT_TRUE(second.spmd.ok());
  check_terminal_accounting(first, wl.num_queries);
  check_answers_match_by_epoch(first, clean);
  check_identical_reports(first, second);
  EXPECT_GT(first.mutate.batches, 0u);
  EXPECT_GT(first.spmd.fault_totals().recovered, 0u)
      << "no rollback happened; the replay path is vacuous";
  EXPECT_EQ(first.staging_allocs_steady, 0u);
}

// Hedged re-execution: a one-off straggler delay far past the service's
// normal batch time triggers a hedge whose replay (the straggler already
// fired) finishes sooner, shortening the makespan without changing answers.
TEST(ChaosSoak, HedgingCutsStragglerTailWithoutChangingAnswers) {
  ServiceConfig cfg = chaos_service();
  // One huge straggler on an Allreduce a few batches in (armed-call indices
  // count engine collectives only, so the hit lands mid-workload).
  cfg.faults.add_straggler(1, sim::CollectiveType::Allreduce, 40, 0.05);
  WorkloadConfig wl = chaos_workload();
  sim::Topology topo(sim::MeshShape{2, 2});
  BrokerConfig broker;
  broker.batch_width = 8;  // enough batches to warm the straggle quantile

  GraphSession plain_session(topo, cfg);
  ServiceReport plain = plain_session.serve(wl, broker);
  ASSERT_TRUE(plain.spmd.ok());

  ServiceConfig hedged_cfg = cfg;
  hedged_cfg.hedge.enabled = true;
  hedged_cfg.hedge.min_samples = 2;
  GraphSession hedged_session(topo, hedged_cfg);
  ServiceReport hedged = hedged_session.serve(wl, broker);
  ASSERT_TRUE(hedged.spmd.ok());
  check_terminal_accounting(hedged, wl.num_queries);
  check_answers_match(hedged, plain);

  EXPECT_GT(hedged.hedged_batches, 0u);
  EXPECT_LT(hedged.makespan_s, plain.makespan_s)
      << "the hedge never beat the straggler";
  for (const auto& r : hedged.results)
    if (r.hedged) EXPECT_EQ(r.status, QueryStatus::Done);
}

}  // namespace
}  // namespace sunbfs::service
