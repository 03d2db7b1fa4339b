#pragma once

#include <cstdint>
#include <vector>

#include "analytics/sssp.hpp"
#include "graph/rmat.hpp"
#include "obs/metrics.hpp"
#include "partition/classify.hpp"
#include "service/broker.hpp"
#include "service/msbfs.hpp"
#include "service/oracle/oracle.hpp"
#include "service/workload.hpp"
#include "sim/runtime.hpp"

/// Long-lived graph query serving (the ROADMAP north star's serving layer):
/// a GraphSession generates and partitions the graph ONCE, keeps the CSR,
/// partition and per-rank BfsWorkspace + staging pools resident, and then
/// serves an entire workload of traversal queries against them — the shift
/// from one-shot Graph 500 batches (bfs::run_graph500 regenerates per
/// invocation) to query throughput.
///
/// Scheduling is a deterministic discrete-event loop on a *virtual clock*:
/// every rank runs an identical broker + workload replica (both are pure
/// functions of their seeds), and the clock only ever advances by replicated
/// quantities — arrival times from the seeded generator, batch service times
/// from an allreduce_max of each rank's deterministic cost (modeled network
/// seconds + the work-counter compute model).  No wall time enters the
/// clock, so a (config, seeds) triple replays to bit-identical results and
/// latency statistics, and the broker needs zero coordination collectives
/// of its own.  See docs/SERVICE.md.
namespace sunbfs::service {

/// Hedged re-execution of straggling batches: when a batch's service time
/// exceeds `factor` x the `quantile`-th percentile of the service times seen
/// so far (a replicated history — every rank computes the same cut), the
/// session models a hedge replica launched at the cut and charges the batch
/// min(first attempt, cut + second attempt).  The engines are deterministic,
/// so the hedge only wins when the straggle came from injected faults the
/// replay does not hit again — exactly the transient-straggler case hedging
/// exists for.
struct HedgeConfig {
  bool enabled = false;
  /// Batches observed before the latency quantile is trusted.
  int min_samples = 8;
  /// Straggle cut: factor x percentile(service history, quantile).
  double quantile = 95;
  double factor = 3.0;
};

/// Streaming graph mutations between query epochs (docs/SERVICE.md
/// "Mutations & epochs").  A seeded MutationLog generates deterministic
/// edge insert/delete batches; batch k is applied — on every rank, to the
/// resident 1D (and, when built, 1.5D) partitions in place — immediately
/// before the first query with id >= k * `every` is admitted.  Because the
/// trigger is *id-driven* rather than clock-driven, the epoch each query
/// executes at is a pure function of the workload seed: cache-on and
/// cache-off runs see identical epochs even though their virtual clocks
/// differ.  Before a batch applies, the broker's queue is drained (queued
/// batches execute against their admission epoch), so a query never
/// observes a graph newer than the one it was admitted against.
struct MutationConfig {
  bool enabled = false;
  uint64_t seed = 99;          ///< mutation stream seed (MutationLogConfig)
  int inserts_per_batch = 6;
  int deletes_per_batch = 6;
  /// Fraction of delete draws aimed at arbitrary vertex pairs; misses are
  /// tombstone no-ops the log records as delete_misses.
  double phantom_fraction = 0.25;
  /// Apply batch k before admitting query id k * every (0 disables).
  uint64_t every = 32;
  uint64_t max_batches = 64;
};

struct ServiceConfig {
  graph::Graph500Config graph;
  /// 1.5D thresholds for the SSSP partition (built only when the workload
  /// contains SSSP-root queries).
  partition::DegreeThresholds thresholds{2048, 128};
  int threads_per_rank = 0;  ///< <= 0 means auto
  /// Root pool the load generator draws from (degree >= 1 search keys).
  int root_pool = 64;
  uint64_t root_seed = 7;
  MsbfsOptions msbfs;  ///< the workspace field is managed per rank
  analytics::SsspOptions sssp;
  /// Distance-oracle cache between the broker and the engines
  /// (src/service/oracle/): LRU of exact trees + landmark sketches +
  /// lease-based self-invalidation.  Disabled by default — the cache-off
  /// code path is bit-identical to the pre-oracle service.
  oracle::CacheConfig cache;
  /// Streaming mutations between query epochs (src/mutate, docs/SERVICE.md
  /// "Mutations & epochs").  Disabled by default — the mutation-off path is
  /// bit-identical to the static-snapshot service.
  MutationConfig mutation;

  // ---- Fault tolerance (docs/SERVICE.md "Degraded modes"). ---------------
  /// Deterministic fault schedule armed only around engine executions; an
  /// empty plan keeps the session on the exact fault-free code path.
  sim::FaultPlan faults;
  /// Recover lets the engines checkpoint/replay and the broker retry; Abort
  /// and Report keep the pre-fault-framework semantics.
  sim::FaultPolicy fault_policy = sim::FaultPolicy::Recover;
  sim::ChecksumMode checksums = sim::ChecksumMode::Auto;
  /// Broker-level re-admissions allowed per query after its batch exhausted
  /// in-engine recovery (0 fails immediately).  Each waits a capped
  /// exponential backoff first (session.cpp); a retry that cannot land
  /// before the query's deadline is not scheduled — the query fails fast.
  int retry_budget = 2;
  HedgeConfig hedge;
};

/// Mutation telemetry, surfaced as service.mutate.* (docs/OBSERVABILITY.md).
struct MutateStats {
  uint64_t batches = 0;           ///< mutation batches applied
  uint64_t epoch = 0;             ///< final graph epoch (== batches)
  uint64_t inserted_arcs = 0;     ///< CSR arcs appended (summed over ranks)
  uint64_t deleted_arcs = 0;      ///< CSR arcs removed (summed over ranks)
  uint64_t delete_misses = 0;     ///< tombstone no-op deletes (replicated)
  uint64_t compactions = 0;       ///< CSR slack rebuilds (summed over ranks)
  uint64_t repair_invalidated = 0;  ///< vertices re-entering repair frontiers
  uint64_t repair_relaxations = 0;  ///< repair candidates applied
  uint64_t repair_rounds = 0;       ///< cascade + relaxation rounds
  uint64_t sketch_repairs = 0;    ///< sketches reinstalled via repair_bfs
};

/// Aggregate outcome of one served workload.
struct ServiceReport {
  /// Every terminal result in decision order (identical on all ranks; this
  /// is rank 0's copy).
  std::vector<QueryResult> results;

  uint64_t submitted = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;           ///< queue-capacity refusals
  uint64_t shed = 0;               ///< fast-failed by the overload breaker
  uint64_t completed = 0;          ///< Done before deadline
  uint64_t expired_in_queue = 0;   ///< swept at batch formation
  uint64_t expired_late = 0;       ///< executed but finished past deadline
  uint64_t failed = 0;             ///< terminal Failed (retry budget ran out)
  uint64_t retried = 0;            ///< broker re-admissions after failed batches
  uint64_t batches = 0;
  uint64_t failed_batches = 0;     ///< batches that exhausted in-engine recovery
  uint64_t hedged_batches = 0;     ///< batches hedge-re-executed past the cut
  uint64_t breaker_transitions = 0;
  /// Staging-pool growths (summed over ranks) during the first executed
  /// batch vs. after it; steady must be 0 for BFS workloads (the resident
  /// pools are primed once — the chaos suite gates this under faults too).
  uint64_t staging_allocs_warmup = 0;
  uint64_t staging_allocs_steady = 0;
  /// Distance-oracle telemetry (service.cache.* in the metrics report).
  oracle::CacheStats cache;
  /// Streaming-mutation telemetry (service.mutate.* in the metrics report).
  MutateStats mutate;
  double mean_batch_occupancy = 0;  ///< queries per executed batch
  double makespan_s = 0;            ///< virtual clock at the last decision
  double qps = 0;                   ///< completed / makespan
  double latency_mean_s = 0;        ///< over completed queries
  double latency_p50_s = 0;
  double latency_p95_s = 0;
  double latency_p99_s = 0;
  sim::SpmdReport spmd;

  uint64_t expired_total() const { return expired_in_queue + expired_late; }

  /// Fold into a metrics report under "service." (plus the comm/fault/spmd
  /// aggregates via SpmdReport::to_report) — what service_runner's
  /// --metrics-out serializes.
  void to_report(obs::Report& report) const;
};

/// Nearest-rank percentile of an unsorted sample set (p in [0, 100]).
double percentile(std::vector<double> samples, double p);

/// One resident graph serving whole workloads.  serve() runs one SPMD
/// session: setup (generate, partition, pick the root pool, warm the
/// workspace) happens once, then every query of the workload executes
/// against the resident structures.
class GraphSession {
 public:
  GraphSession(const sim::Topology& topology, const ServiceConfig& config)
      : topology_(topology), config_(config) {}

  const ServiceConfig& config() const { return config_; }

  /// Serve `workload` with batch formation under `broker`.  Deterministic in
  /// (config, workload.seed): serving the same workload twice yields
  /// bit-identical reports.
  ServiceReport serve(const WorkloadConfig& workload,
                      const BrokerConfig& broker) const;

 private:
  sim::Topology topology_;  ///< by value: the session outlives its argument
  ServiceConfig config_;
};

}  // namespace sunbfs::service
