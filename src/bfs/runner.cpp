#include "bfs/runner.hpp"

#include <mutex>

#include "bfs/bfs1d.hpp"
#include "bfs/workspace.hpp"
#include "partition/part1d.hpp"
#include "support/log.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "support/timer.hpp"

namespace sunbfs::bfs {

using graph::Vertex;

std::vector<Vertex> pick_search_keys(sim::RankContext& ctx,
                                     const partition::VertexSpace& space,
                                     std::span<const uint64_t> degrees,
                                     int count, uint64_t seed) {
  // Same RNG everywhere; the owner votes on degree >= 1 and the vote is
  // allreduced, so the chosen keys are replicated without a broadcast.
  Xoshiro256StarStar rng(seed);
  std::vector<Vertex> chosen;
  while (int(chosen.size()) < count) {
    Vertex cand = Vertex(rng.next_below(space.total));
    int has_edge = 0;
    if (space.owner(cand) == ctx.rank)
      has_edge = degrees[space.to_local(ctx.rank, cand)] > 0 ? 1 : 0;
    if (ctx.world.allreduce_sum(has_edge) > 0) chosen.push_back(cand);
  }
  return chosen;
}

BfsStats sum_stats(const std::vector<BfsStats>& per_rank) {
  BfsStats total;
  for (const auto& s : per_rank) {
    for (int i = 0; i < partition::kSubgraphCount; ++i) {
      total.push_cpu_s[size_t(i)] += s.push_cpu_s[size_t(i)];
      total.pull_cpu_s[size_t(i)] += s.pull_cpu_s[size_t(i)];
      total.comm_modeled_s[size_t(i)] += s.comm_modeled_s[size_t(i)];
    }
    total.reduce_cpu_s += s.reduce_cpu_s;
    total.reduce_comm_modeled_s += s.reduce_comm_modeled_s;
    total.other_cpu_s += s.other_cpu_s;
    total.other_comm_modeled_s += s.other_comm_modeled_s;
    total.comm.merge(s.comm);
    total.num_iterations = std::max(total.num_iterations, s.num_iterations);
    if (total.iterations.size() < s.iterations.size())
      total.iterations = s.iterations;  // replicated content; keep longest
  }
  return total;
}

RunnerResult run_graph500(const sim::Topology& topology,
                          const RunnerConfig& config) {
  const sim::MeshShape mesh = topology.mesh();
  const int nranks = mesh.ranks();
  const graph::Graph500Config& g = config.graph;
  partition::VertexSpace space{g.num_vertices(), nranks};

  // Search keys: deterministic, degree >= 1 enforced after degrees are
  // known (all ranks run the same RNG; validity is allreduced).
  RunnerResult result;

  // Per-root, per-rank collection areas (indexed [root][rank]).
  std::vector<std::vector<BfsStats>> stats(size_t(config.num_roots),
                                           std::vector<BfsStats>(size_t(nranks)));
  std::vector<std::vector<double>> cpu_s(size_t(config.num_roots),
                                         std::vector<double>(size_t(nranks), 0));
  std::vector<std::vector<double>> comm_s = cpu_s;
  std::vector<double> wall_s(size_t(config.num_roots), 0);
  std::vector<uint64_t> traversed(size_t(config.num_roots), 0);
  std::vector<Vertex> roots;
  // Gathered global parent arrays per root (filled by rank 0's view).
  std::vector<std::vector<Vertex>> parents(size_t(config.num_roots));
  partition::BalanceReport balance;
  uint64_t num_eh = 0, num_e = 0;
  double partition_wall = 0;
  uint64_t threads_per_rank = 0;
  uint64_t allocs_warmup_total = 0, allocs_steady_total = 0;
  uint64_t search_a2a_bytes_total = 0, search_ag_bytes_total = 0;
  uint64_t search_a2a_inter_bytes_total = 0;
  double search_a2a_modeled_s_total = 0;

  sim::SpmdOptions spmd_options;
  spmd_options.policy = config.fault_policy;
  spmd_options.faults = config.faults;

  result.spmd = sim::run_spmd(topology, [&](sim::RankContext& ctx) {
    // Setup (generation, partitioning, root selection) runs fault-free;
    // plans fire only while armed, around the searches below.
    ctx.faults.armed = false;
    // One warm workspace (worker pool + staging buffer pools) per rank for
    // the whole run: capacities grow during the first root and stay put, so
    // steady-state searches stage and exchange without allocating.
    EngineConfig ecfg;
    ecfg.kind = config.engine;
    ecfg.thresholds = config.thresholds;
    ecfg.bfs15 = config.bfs;
    ecfg.bfs1d = config.bfs1d;
    ecfg.async = config.bfsasync;
    BfsWorkspace ws(
        resolve_threads_per_rank(ecfg.threads_request(), size_t(nranks)));
    if (ctx.rank == 0) threads_per_rank = ws.pool().size();
    WallTimer setup_wall;
    uint64_t m = g.num_edges();
    auto slice = graph::generate_rmat_range(
        g, m * uint64_t(ctx.rank) / uint64_t(nranks),
        m * uint64_t(ctx.rank + 1) / uint64_t(nranks), &ws.pool());
    auto degrees = partition::compute_local_degrees(ctx, space, slice);

    // Engine-specific resources first (the options go into make_engine by
    // value): the chip backing a chip-executed 1.5D pull kernel must outlive
    // the engine.
    std::optional<chip::Chip> chip;
    ecfg.bfs15.workspace = &ws;
    if (ecfg.kind == EngineKind::OneFiveD &&
        ecfg.bfs15.pull_kernel != Bfs15dOptions::EhPullKernel::Host) {
      chip.emplace(config.chip_geometry);
      ecfg.bfs15.chip = &*chip;
    }
    ecfg.bfs1d.workspace = &ws;
    ecfg.async.workspace = &ws;
    // Build the partition the selected engine needs and bind it (collective).
    std::unique_ptr<TraversalEngine> engine =
        make_engine(ctx, space, slice, degrees, ecfg);
    if (const partition::Part15d* part15 = engine->part15()) {
      if (ctx.rank == 0) {
        num_eh = part15->cls.num_eh();
        num_e = part15->cls.num_e();
      }
      // Collective: every rank participates, only rank 0 keeps the result.
      auto bal = partition::gather_balance(ctx, *part15);
      if (ctx.rank == 0) balance = std::move(bal);
    }
    slice.clear();
    slice.shrink_to_fit();
    if (ctx.rank == 0) partition_wall = setup_wall.seconds();

    // Pick roots (degree-aware voting, shared with the service's load
    // generator — see pick_search_keys).
    std::vector<Vertex> chosen = pick_search_keys(
        ctx, space, degrees, config.num_roots, config.root_seed ^ g.seed);
    if (ctx.rank == 0) roots = chosen;

    uint64_t warmup_allocs = 0;
    uint64_t search_a2a = 0, search_a2a_inter = 0, search_ag = 0;
    double search_a2a_modeled = 0;
    for (int i = 0; i < config.num_roots; ++i) {
      ctx.world.barrier();
      WallTimer run_wall;
      std::vector<Vertex> local_parent;
      // Search-phase wire bytes: delta of this rank's CommStats across the
      // engine call (the TEPS reduction and parent gather below run outside
      // the window).
      const uint64_t a2a0 =
          ctx.stats.entry(sim::CollectiveType::Alltoallv).bytes_sent;
      const uint64_t a2ax0 = ctx.stats.entry(sim::CollectiveType::Alltoallv)
                                 .bytes_inter_supernode;
      const double a2am0 =
          ctx.stats.entry(sim::CollectiveType::Alltoallv).modeled_s;
      const uint64_t ag0 =
          ctx.stats.entry(sim::CollectiveType::Allgather).bytes_sent;
      ctx.faults.armed = true;
      {
        EngineRun r = engine->run(ctx, chosen[size_t(i)]);
        if (r.has_stats)
          stats[size_t(i)][size_t(ctx.rank)] = std::move(r.stats);
        cpu_s[size_t(i)][size_t(ctx.rank)] = r.cpu_s;
        comm_s[size_t(i)][size_t(ctx.rank)] = r.comm_modeled_s;
        local_parent = std::move(r.parent);
      }
      // Disarm for the TEPS reduction and parent gather below: faults
      // target the search itself.
      ctx.faults.armed = false;
      search_a2a +=
          ctx.stats.entry(sim::CollectiveType::Alltoallv).bytes_sent - a2a0;
      search_a2a_inter += ctx.stats.entry(sim::CollectiveType::Alltoallv)
                              .bytes_inter_supernode -
                          a2ax0;
      search_a2a_modeled +=
          ctx.stats.entry(sim::CollectiveType::Alltoallv).modeled_s - a2am0;
      search_ag +=
          ctx.stats.entry(sim::CollectiveType::Allgather).bytes_sent - ag0;
      if (ctx.rank == 0) wall_s[size_t(i)] = run_wall.seconds();
      // Degree-sum TEPS numerator (exact validation count replaces it when
      // validation is enabled): each in-component edge contributes twice.
      uint64_t local_deg_sum = 0;
      for (uint64_t l = 0; l < local_parent.size(); ++l)
        if (local_parent[l] != graph::kNoVertex) local_deg_sum += degrees[l];
      uint64_t deg_sum = ctx.world.allreduce_sum(local_deg_sum);
      if (ctx.rank == 0) traversed[size_t(i)] = deg_sum / 2;
      // Assemble the global parent array for host-side validation.
      auto global_parent =
          ctx.world.allgatherv(std::span<const Vertex>(local_parent));
      if (ctx.rank == 0) parents[size_t(i)] = std::move(global_parent);
      if (i == 0) warmup_allocs = ws.staging_allocs();
    }
    // Staging-allocation audit (faults stay disarmed): every growth after
    // the warmup root is a regression of the allocation-free guarantee.
    uint64_t wu = ctx.world.allreduce_sum(warmup_allocs);
    uint64_t st =
        ctx.world.allreduce_sum(ws.staging_allocs() - warmup_allocs);
    uint64_t a2a = ctx.world.allreduce_sum(search_a2a);
    uint64_t a2ax = ctx.world.allreduce_sum(search_a2a_inter);
    double a2am = ctx.world.allreduce_max(search_a2a_modeled);
    uint64_t ag = ctx.world.allreduce_sum(search_ag);
    if (ctx.rank == 0) {
      allocs_warmup_total = wu;
      allocs_steady_total = st;
      search_a2a_bytes_total = a2a;
      search_a2a_inter_bytes_total = a2ax;
      search_a2a_modeled_s_total = a2am;
      search_ag_bytes_total = ag;
    }
  }, spmd_options);

  result.balance = std::move(balance);
  result.num_eh = num_eh;
  result.num_e = num_e;
  result.partition_wall_s = partition_wall;
  result.threads_per_rank = threads_per_rank;
  result.staging_allocs_warmup = allocs_warmup_total;
  result.staging_allocs_steady = allocs_steady_total;
  result.search_alltoallv_bytes = search_a2a_bytes_total;
  result.search_alltoallv_inter_bytes = search_a2a_inter_bytes_total;
  result.search_alltoallv_modeled_s = search_a2a_modeled_s_total;
  result.search_allgather_bytes = search_ag_bytes_total;

  if (!result.spmd.ok()) {
    // At least one rank's body threw (report / recover policy): per-root
    // outputs are incomplete, so skip validation and surface the rank
    // errors instead of touching half-filled arrays.
    result.all_valid = false;
    for (const auto& e : result.spmd.errors) log_warn("graph500: ", e);
    return result;
  }

  // Host-side validation against the full edge list, on a host-wide pool of
  // its own (the SPMD ranks and their workers have wound down by now).
  ThreadPool host_pool(0);
  std::vector<graph::Edge> all_edges;
  if (config.validate) all_edges = graph::generate_rmat(g, &host_pool);

  result.all_valid = true;
  for (int i = 0; i < config.num_roots; ++i) {
    RootRun run;
    run.root = roots[size_t(i)];
    double max_cpu = 0, max_comm = 0;
    for (int r = 0; r < nranks; ++r) {
      max_cpu = std::max(max_cpu, cpu_s[size_t(i)][size_t(r)]);
      max_comm = std::max(max_comm, comm_s[size_t(i)][size_t(r)]);
    }
    run.modeled_s = max_cpu + max_comm;
    run.wall_s = wall_s[size_t(i)];
    run.parent_checksum = sim::checksum64(
        parents[size_t(i)].data(), parents[size_t(i)].size() * sizeof(Vertex));
    if (config.engine == EngineKind::OneFiveD)
      run.stats = sum_stats(stats[size_t(i)]);
    if (config.validate) {
      auto v = graph::validate_bfs(g.num_vertices(), all_edges, run.root,
                                   parents[size_t(i)], &host_pool);
      run.valid = v.ok;
      run.error = v.error;
      run.traversed_edges = v.edges_in_component;
      if (!v.ok) {
        result.all_valid = false;
        log_warn("root ", run.root, " failed validation: ", v.error);
      }
    } else {
      run.valid = true;
      run.traversed_edges = std::max<uint64_t>(1, traversed[size_t(i)]);
    }
    result.runs.push_back(std::move(run));
  }

  std::vector<graph::BfsRunSample> samples;
  for (const auto& r : result.runs)
    if (r.traversed_edges > 0 && r.modeled_s > 0)
      samples.push_back(r.sample());
  if (!samples.empty())
    result.harmonic_gteps =
        graph::gteps(graph::harmonic_mean_teps(samples));
  return result;
}

void BfsStats::to_report(obs::Report& report,
                         const std::string& prefix) const {
  for (int i = 0; i < partition::kSubgraphCount; ++i) {
    const std::string sub =
        prefix + partition::subgraph_name(partition::Subgraph(i)) + ".";
    if (push_cpu_s[size_t(i)] > 0)
      report.gauge(sub + "push_cpu_s", push_cpu_s[size_t(i)]);
    if (pull_cpu_s[size_t(i)] > 0)
      report.gauge(sub + "pull_cpu_s", pull_cpu_s[size_t(i)]);
    if (comm_modeled_s[size_t(i)] > 0)
      report.gauge(sub + "comm_modeled_s", comm_modeled_s[size_t(i)]);
  }
  report.gauge(prefix + "reduce_cpu_s", reduce_cpu_s);
  report.gauge(prefix + "reduce_comm_modeled_s", reduce_comm_modeled_s);
  report.gauge(prefix + "other_cpu_s", other_cpu_s);
  report.gauge(prefix + "other_comm_modeled_s", other_comm_modeled_s);
  report.add_counter(prefix + "iterations", uint64_t(num_iterations));
  Log2Histogram& frontier = report.histogram(prefix + "frontier_active");
  for (const IterationRecord& rec : iterations)
    frontier.add(rec.active_e + rec.active_h + rec.active_l);
}

void RunnerResult::to_report(obs::Report& report) const {
  report.gauge("graph500.harmonic_gteps", harmonic_gteps);
  report.add_counter("graph500.roots", uint64_t(runs.size()));
  report.add_counter("graph500.valid_roots", [&] {
    uint64_t n = 0;
    for (const auto& r : runs)
      if (r.valid) ++n;
    return n;
  }());
  report.info("graph500.all_valid", all_valid ? "true" : "false");
  report.add_counter("graph500.num_eh", num_eh);
  report.add_counter("graph500.num_e", num_e);
  report.gauge("graph500.partition_wall_s", partition_wall_s);
  report.add_counter("spmd.threads_per_rank", threads_per_rank);
  // Staging-pool capacity growths: warmup covers the first root; the steady
  // counter must stay 0 (allocation-free steady-state staging).
  report.add_counter("comm.staging_allocs_warmup", staging_allocs_warmup);
  report.add_counter("comm.staging_allocs", staging_allocs_steady);
  // Search-phase wire bytes (engine invocations only; encoded bytes when
  // wire encoding is on) — what the BENCH_encoding ablation gates.
  report.add_counter("graph500.search_alltoallv_bytes",
                     search_alltoallv_bytes);
  report.add_counter("graph500.search_alltoallv_inter_bytes",
                     search_alltoallv_inter_bytes);
  report.add_counter("graph500.search_allgather_bytes",
                     search_allgather_bytes);
  double modeled = 0, wall = 0;
  uint64_t edges = 0;
  for (const auto& r : runs) {
    modeled += r.modeled_s;
    wall += r.wall_s;
    edges += r.traversed_edges;
  }
  report.gauge("graph500.total_modeled_s", modeled);
  report.gauge("graph500.total_wall_s", wall);
  report.add_counter("graph500.traversed_edges", edges);
  // Per-subgraph breakdown summed over roots (composition shares are what
  // the figures report).
  std::vector<BfsStats> per_root;
  per_root.reserve(runs.size());
  for (const auto& r : runs) per_root.push_back(r.stats);
  if (!per_root.empty()) sum_stats(per_root).to_report(report, "bfs.");
  spmd.to_report(report);
}

}  // namespace sunbfs::bfs
