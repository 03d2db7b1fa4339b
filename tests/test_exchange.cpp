// Exchange-plan tests (ctest -L differential / -L faults): the staged
// exchange backends must be pure routing — bit-identical engine output —
// and the recovery machinery must see through every staged hop.  Five
// layers:
//
//   1. ExchangePlan unit tests: hop() composed over every stage delivers
//      every (holder, dst) pair for every backend, mesh shape and
//      communicator size, stage counts match the construction, and the
//      degenerate shapes collapse to direct.
//   2. Backend bit-identity: each engine (1D, 1.5D — including an all-L
//      partition whose every push is the L2L route — MS-BFS, and SSSP and
//      CC on the propagation engine) run under 2D-CA — across encoding
//      on/off and thread counts — returns output bit-identical to the
//      direct-alltoallv baseline, which the suites in
//      test_differential.cpp already pin to the serial oracles.
//   3. Fault recovery through staged hops: corruption and rank failures
//      landing inside 2D-CA's row and column alltoallvs are detected
//      (xxhash64 block checksums per hop), rolled back and replayed to the
//      exact fault-free answer.
//   4. A seeded randomized full-pipeline sweep over exchange backends;
//      any failure prints one graph500_runner command line (including
//      --exchange) that replays it.
//   5. The priming contract end to end: every engine under every plan
//      grows no staging buffer after the warmup root.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "analytics/propagate.hpp"
#include "analytics/sssp.hpp"
#include "bfs/bfs15d.hpp"
#include "bfs/bfs1d.hpp"
#include "bfs/runner.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part15d.hpp"
#include "partition/part1d.hpp"
#include "service/msbfs.hpp"
#include "sim/exchange.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "support/random.hpp"

namespace sunbfs {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::Vertex;

std::vector<Edge> slice_of(const Graph500Config& cfg, int rank, int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_rmat_range(cfg, m * uint64_t(rank) / uint64_t(nranks),
                                    m * uint64_t(rank + 1) / uint64_t(nranks));
}

Vertex pick_root(const Graph500Config& cfg) {
  return graph::generate_rmat_range(cfg, 0, 1)[0].u;
}

// ------------------------------------------------ plan routing unit tests

// Composing hop() over every stage must land every message on its
// destination, for every backend over representative meshes — including a
// communicator smaller than the mesh (sub-communicator exchanges always
// run nparts < ranks, where 2D-CA degenerates to direct).
TEST(ExchangePlan, HopCompositionDeliversEveryPair) {
  const sim::MeshShape meshes[] = {{1, 1}, {1, 4}, {4, 1}, {2, 2},
                                   {2, 3}, {3, 2}, {2, 4}, {4, 4},
                                   {3, 3}, {4, 2}, {3, 4}, {4, 3}};
  const sim::ExchangeBackend backends[] = {sim::ExchangeBackend::Direct,
                                           sim::ExchangeBackend::TwoDCA};
  for (const auto mesh : meshes) {
    for (const auto backend : backends) {
      for (int nparts : {mesh.ranks(), std::max(1, mesh.ranks() - 1)}) {
        const auto plan = sim::ExchangePlan::build(backend, nparts, mesh);
        for (int dst = 0; dst < nparts; ++dst) {
          for (int holder = 0; holder < nparts; ++holder) {
            int h = holder;
            for (int s = 0; s < plan.stages(); ++s) h = plan.hop(s, h, dst);
            if (plan.stages() > 0) {
              ASSERT_EQ(h, dst)
                  << sim::exchange_backend_name(backend) << " on "
                  << mesh.rows << "x" << mesh.cols << " nparts " << nparts
                  << ": holder " << holder << " never reached " << dst;
            }
          }
        }
      }
    }
  }
}

TEST(ExchangePlan, StageCountsMatchConstruction) {
  const sim::MeshShape m44{4, 4};
  // Direct and single-rank plans are always flat.
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::Direct, 16, m44)
                .stages(),
            0);
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA, 1,
                                     sim::MeshShape{1, 1})
                .stages(),
            0);
  // 2D-CA: row split + column delivery when there is something to split...
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA, 16, m44)
                .stages(),
            2);
  // ...and degenerate on flat meshes or sub-communicators.
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA, 4,
                                     sim::MeshShape{1, 4})
                .stages(),
            0);
  EXPECT_EQ(sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA, 8, m44)
                .stages(),
            0);
}

// 2D-CA routes every message through exactly one rank: the row-mate in the
// destination's column.  At most one hop is inter-supernode.
TEST(ExchangePlan, TwoDCARoutesThroughTheRowMate) {
  const sim::MeshShape mesh{2, 4};
  const auto plan = sim::ExchangePlan::build(sim::ExchangeBackend::TwoDCA,
                                             mesh.ranks(), mesh);
  ASSERT_EQ(plan.stages(), 2);
  for (int dst = 0; dst < mesh.ranks(); ++dst) {
    for (int holder = 0; holder < mesh.ranks(); ++holder) {
      const int mid = plan.hop(0, holder, dst);
      EXPECT_EQ(mesh.row_of(mid), mesh.row_of(holder));
      EXPECT_EQ(mesh.col_of(mid), mesh.col_of(dst));
      EXPECT_EQ(plan.hop(1, mid, dst), dst);
    }
  }
}

// ------------------------------------------- engine backend bit-identity

std::vector<Vertex> run_1d(const Graph500Config& cfg, sim::MeshShape mesh,
                           Vertex root, int threads, bool encoding,
                           sim::ExchangeBackend backend) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> global_parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto part = partition::build_1d(ctx, space, slice);
    bfs::Bfs1dOptions opts;
    opts.threads_per_rank = threads;
    opts.exchange.encoding = encoding;
    opts.exchange.backend = backend;
    auto res = bfs::bfs1d_run(ctx, part, root, opts);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) global_parent = std::move(gathered);
  });
  return global_parent;
}

std::vector<Vertex> run_15d(const Graph500Config& cfg, sim::MeshShape mesh,
                            partition::DegreeThresholds th, Vertex root,
                            int threads, bool encoding,
                            sim::ExchangeBackend backend) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> global_parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, deg, th);
    bfs::Bfs15dOptions opts;
    opts.threads_per_rank = threads;
    opts.exchange.encoding = encoding;
    opts.exchange.backend = backend;
    auto res = bfs::bfs15d_run(ctx, part, root, opts);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) global_parent = std::move(gathered);
  });
  return global_parent;
}

struct BackendCase {
  const char* engine;  // "1d" or "1.5d"
  uint64_t seed;
  int scale;
  int rows, cols;
  partition::DegreeThresholds thresholds;  // 1.5D only
};

class BackendBitIdentity : public ::testing::TestWithParam<BackendCase> {};

// Parent claims are order-independent reductions, so re-routing (and
// in-flight merging) must not change one output word: every backend at
// every (encoding, threads) combination equals the direct baseline, which
// test_differential.cpp pins against the serial reference.
TEST_P(BackendBitIdentity, ParentsEqualDirectBaseline) {
  const BackendCase c = GetParam();
  Graph500Config cfg;
  cfg.scale = c.scale;
  cfg.seed = c.seed;
  const Vertex root = pick_root(cfg);
  const sim::MeshShape mesh{c.rows, c.cols};
  const bool is_1d = std::string(c.engine) == "1d";
  auto run = [&](int threads, bool encoding, sim::ExchangeBackend backend) {
    return is_1d ? run_1d(cfg, mesh, root, threads, encoding, backend)
                 : run_15d(cfg, mesh, c.thresholds, root, threads, encoding,
                           backend);
  };
  const auto baseline = run(1, true, sim::ExchangeBackend::Direct);
  // Direct stays the oracle-pinned answer regardless of routing.
  auto levels =
      graph::levels_from_parents(cfg.num_vertices(), baseline, root);
  ASSERT_GT(levels[size_t(root)] + 1, 0);
  for (sim::ExchangeBackend backend :
       {sim::ExchangeBackend::Direct, sim::ExchangeBackend::TwoDCA}) {
    for (bool encoding : {true, false}) {
      for (int threads : {1, 4}) {
        if (backend == sim::ExchangeBackend::Direct && encoding &&
            threads == 1)
          continue;  // the baseline itself
        SCOPED_TRACE(std::string(c.engine) + " " +
                     sim::exchange_backend_name(backend) + ", encoding " +
                     (encoding ? "on" : "off") + ", threads " +
                     std::to_string(threads));
        ASSERT_EQ(run(threads, encoding, backend), baseline);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededConfigs, BackendBitIdentity,
    ::testing::Values(BackendCase{"1d", 51, 10, 2, 2, {}},
                      BackendCase{"1d", 52, 10, 2, 4, {}},
                      BackendCase{"1d", 53, 9, 2, 3, {}},
                      BackendCase{"1.5d", 54, 10, 2, 2, {128, 32}},
                      BackendCase{"1.5d", 55, 10, 2, 4, {128, 32}},
                      BackendCase{"1.5d", 56, 9, 3, 2, {128, 32}},
                      // All-L: every push is the world-wide L2L route, and
                      // at this size 2D-CA's row-mates merge L2L messages
                      // from different senders.
                      BackendCase{"1.5d", 6, 11, 3, 2,
                                  {1u << 30, 1u << 30}}));

// MS-BFS: the batch engine's OR-mask visit messages merge across senders;
// exact parent equality with the direct run (which MsbfsOracle in
// test_differential.cpp pins to the canonical max-global-id rule).
TEST(BackendBitIdentityMsbfs, BatchParentsEqualDirectBaseline) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 61;
  const sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  const int width = 17;

  auto run = [&](sim::ExchangeBackend backend, bool encoding, int threads) {
    std::vector<std::vector<Vertex>> got;
    sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
      auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
      auto degrees = partition::compute_local_degrees(ctx, space, slice);
      auto part = partition::build_1d(ctx, space, slice);
      auto keys = bfs::pick_search_keys(ctx, space, degrees, width, cfg.seed);
      service::MsbfsOptions opts;
      opts.threads_per_rank = threads;
      opts.exchange.encoding = encoding;
      opts.exchange.backend = backend;
      auto batch = service::msbfs_run(ctx, part, keys, opts);
      const uint64_t local = space.count(ctx.rank);
      std::vector<std::vector<Vertex>> gathered(keys.size());
      for (size_t q = 0; q < keys.size(); ++q)
        gathered[q] = ctx.world.allgatherv(std::span<const Vertex>(
            batch.parent.data() + q * local, local));
      if (ctx.rank == 0) got = std::move(gathered);
    });
    return got;
  };

  const auto baseline = run(sim::ExchangeBackend::Direct, true, 1);
  ASSERT_EQ(baseline.size(), size_t(width));
  for (bool encoding : {true, false}) {
    for (int threads : {1, 4}) {
      SCOPED_TRACE(std::string("2dca, encoding ") + (encoding ? "on" : "off") +
                   ", threads " + std::to_string(threads));
      ASSERT_EQ(run(sim::ExchangeBackend::TwoDCA, encoding, threads),
                baseline);
    }
  }
}

// Min-label propagation (connected components) declaring its min gather,
// so staged plans merge its contributions in flight.
struct MinLabelProgram {
  using Value = Vertex;
  static constexpr bool kMinGather = true;
  Value identity() const { return std::numeric_limits<Vertex>::max(); }
  Value combine(Value a, Value b) const { return std::min(a, b); }
  Value contribution(Value u_value, Vertex, Vertex) const { return u_value; }
  bool update(Value& state, const Value& gathered) const {
    if (gathered < state) {
      state = gathered;
      return true;
    }
    return false;
  }
};

// SSSP and min-label propagation on the propagation engine: their min
// gathers merge in flight on staged plans, and the settled distances and
// labels are bit-identical to the raw direct run on every backend, encoded
// or not (both are unique answers, unlike BFS trees, so equality is the
// full check).
TEST(BackendBitIdentityPropagation, DistancesAndLabelsEqualDirectRaw) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 67;
  auto edges = graph::generate_rmat(cfg);
  const Vertex root = edges[5].u;

  auto run = [&](sim::MeshShape mesh, sim::ExchangeBackend backend,
                 bool encoding) {
    std::vector<uint64_t> got;
    sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
      partition::VertexSpace space{cfg.num_vertices(), ctx.nranks()};
      auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
      auto degrees = partition::compute_local_degrees(ctx, space, slice);
      auto part = partition::build_15d(ctx, space, slice, degrees, {64, 16});
      analytics::SsspOptions opts;
      opts.exchange.encoding = encoding;
      opts.exchange.backend = backend;
      std::vector<uint64_t> mine;
      for (analytics::Dist d : analytics::sssp15d(ctx, part, root, opts))
        mine.push_back(d);
      analytics::PropagationEngine<MinLabelProgram> cc(
          ctx, part, {},
          {.incremental = true, .exchange = opts.exchange});
      cc.initialize([](Vertex v) { return v; });
      EXPECT_TRUE(cc.run().converged);
      for (Vertex label : cc.owned_values()) mine.push_back(uint64_t(label));
      auto gathered = ctx.world.allgatherv(std::span<const uint64_t>(mine));
      if (ctx.rank == 0) got = std::move(gathered);
    });
    return got;
  };

  for (sim::MeshShape mesh : {sim::MeshShape{2, 2}, sim::MeshShape{2, 3},
                              sim::MeshShape{3, 2}, sim::MeshShape{2, 4}}) {
    const auto baseline = run(mesh, sim::ExchangeBackend::Direct, false);
    ASSERT_EQ(baseline.size(), 2 * cfg.num_vertices());
    for (sim::ExchangeBackend backend :
         {sim::ExchangeBackend::Direct, sim::ExchangeBackend::TwoDCA}) {
      for (bool encoding : {true, false}) {
        if (backend == sim::ExchangeBackend::Direct && !encoding)
          continue;  // the baseline itself
        SCOPED_TRACE(std::to_string(mesh.rows) + "x" +
                     std::to_string(mesh.cols) + ", " +
                     sim::exchange_backend_name(backend) + ", encoding " +
                     (encoding ? "on" : "off"));
        ASSERT_EQ(run(mesh, backend, encoding), baseline);
      }
    }
  }
}

// -------------------------------- fault recovery through staged hops

// Each staged hop is its own alltoallv on the wire: its blocks carry their
// own xxhash64 checksums and count against the fault plan's per-collective
// call indices.  Corruption landing in either 2D-CA stage — and a rank
// failure mid-search — must be detected, rolled back and replayed to the
// bit-exact fault-free answer.
struct StagedFaultCase {
  sim::FaultKind kind;
  uint64_t call_index;  // which Alltoallv the corruption lands in
  int threads;
  bool encoding;
};

class StagedFaultRecovery : public ::testing::TestWithParam<StagedFaultCase> {
};

TEST_P(StagedFaultRecovery, RecoveredParentsEqualFaultFree) {
  const StagedFaultCase c = GetParam();
  SCOPED_TRACE(std::string("kind ") + sim::fault_kind_name(c.kind) +
               ", call index " + std::to_string(c.call_index) + ", threads " +
               std::to_string(c.threads) + ", encoding " +
               (c.encoding ? "on" : "off"));
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 71;
  const sim::MeshShape mesh{2, 2};
  const Vertex root = pick_root(cfg);
  const auto backend = sim::ExchangeBackend::TwoDCA;

  const auto expect = run_1d(cfg, mesh, root, c.threads, c.encoding, backend);

  sim::FaultPlan plan;
  switch (c.kind) {
    case sim::FaultKind::BitFlip:
      plan.add_bitflip(1, sim::CollectiveType::Alltoallv, c.call_index);
      break;
    case sim::FaultKind::Truncate:
      plan.add_truncate(0, sim::CollectiveType::Alltoallv, c.call_index);
      break;
    case sim::FaultKind::RankFailure:
      plan.add_rank_failure(1, 2);
      break;
    case sim::FaultKind::Straggler:
      plan.add_straggler(1, sim::CollectiveType::Alltoallv, c.call_index,
                         1e-3);
      break;
  }
  sim::SpmdOptions sopts;
  sopts.policy = sim::FaultPolicy::Recover;
  sopts.faults = &plan;

  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> got;
  auto report = sim::run_spmd(sim::Topology(mesh), [&](sim::RankContext& ctx) {
    ctx.faults.armed = false;  // setup runs fault-free, as in the runner
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto part = partition::build_1d(ctx, space, slice);
    bfs::Bfs1dOptions opts;
    opts.threads_per_rank = c.threads;
    opts.exchange.encoding = c.encoding;
    opts.exchange.backend = backend;
    ctx.faults.armed = true;
    auto res = bfs::bfs1d_run(ctx, part, root, opts);
    ctx.faults.armed = false;
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) got = std::move(gathered);
  }, sopts);
  ASSERT_TRUE(report.ok()) << report.errors.front();

  const sim::FaultStats totals = report.fault_totals();
  EXPECT_GE(totals.injected(), 1u);
  if (c.kind != sim::FaultKind::Straggler) {
    EXPECT_GE(totals.recovered, 1u);
  }
  ASSERT_EQ(got, expect);
}

INSTANTIATE_TEST_SUITE_P(
    TwoDcaStages, StagedFaultRecovery,
    ::testing::Values(
        // Corruptions landing at increasing Alltoallv call indices hit
        // the row and column stages of different levels (2 staged hops per
        // level on a 2x2 mesh).
        StagedFaultCase{sim::FaultKind::BitFlip, 0, 1, true},
        StagedFaultCase{sim::FaultKind::BitFlip, 1, 1, true},
        StagedFaultCase{sim::FaultKind::BitFlip, 2, 4, true},
        StagedFaultCase{sim::FaultKind::BitFlip, 3, 1, false},
        StagedFaultCase{sim::FaultKind::Truncate, 1, 1, true},
        StagedFaultCase{sim::FaultKind::Truncate, 2, 4, false},
        StagedFaultCase{sim::FaultKind::RankFailure, 0, 1, true},
        StagedFaultCase{sim::FaultKind::RankFailure, 0, 4, false},
        StagedFaultCase{sim::FaultKind::Straggler, 1, 4, true}));

// ----------------------------------------- seeded randomized sweep

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10)
                                      : fallback;
}

// Full-pipeline draws over (engine, backend, mesh, threads, encoding,
// faults); every draw must validate, and a failing one prints the exact
// graph500_runner invocation — --exchange included — that replays it.
TEST(RandomizedExchangeSweep, SampledPipelinesValidateOrPrintRepro) {
  const uint64_t seed = env_u64("SUNBFS_SWEEP_SEED", 2026);
  const uint64_t iters = env_u64("SUNBFS_SWEEP_ITERS", 2);
  Xoshiro256StarStar rng(seed ^ 0xbf11);
  static const sim::MeshShape kMeshes[] = {{1, 2}, {2, 2}, {2, 4}, {4, 4}};
  static const int kThreads[] = {1, 2, 4};

  for (uint64_t it = 0; it < iters; ++it) {
    bfs::RunnerConfig cfg;
    cfg.graph.scale = int(9 + rng.next() % 3);
    cfg.graph.seed = 1 + rng.next() % 1000;
    cfg.engine = (rng.next() % 2 == 0) ? bfs::EngineKind::OneFiveD
                                       : bfs::EngineKind::OneD;
    cfg.num_roots = int(1 + rng.next() % 3);
    const int threads = kThreads[rng.next() % 3];
    cfg.bfs.threads_per_rank = threads;
    cfg.bfs1d.threads_per_rank = threads;
    const bool encoding = rng.next() % 2 == 0;
    cfg.bfs.exchange.encoding = encoding;
    cfg.bfs1d.exchange.encoding = encoding;
    const sim::ExchangeBackend backend = sim::ExchangeBackend::TwoDCA;
    cfg.bfs.exchange.backend = backend;
    cfg.bfs1d.exchange.backend = backend;
    const sim::MeshShape mesh = kMeshes[rng.next() % 4];
    const bool faulty = rng.next() % 2 == 0;
    const uint64_t fault_seed = 1 + rng.next() % 64;
    sim::FaultPlan plan;
    if (faulty) {
      plan = sim::FaultPlan::random(fault_seed, mesh.ranks(),
                                    /*stragglers=*/1, /*corruptions=*/2,
                                    /*failures=*/1);
      cfg.faults = &plan;
      cfg.fault_policy = sim::FaultPolicy::Recover;
    }
    cfg.validate = true;

    std::string repro =
        "graph500_runner --scale " + std::to_string(cfg.graph.scale) +
        " --seed " + std::to_string(cfg.graph.seed) + " --rows " +
        std::to_string(mesh.rows) + " --cols " + std::to_string(mesh.cols) +
        " --roots " + std::to_string(cfg.num_roots) + " --threads-per-rank " +
        std::to_string(threads) + " --engine " +
        (cfg.engine == bfs::EngineKind::OneD ? "1d" : "1.5d") +
        " --exchange " + sim::exchange_backend_name(backend);
    if (faulty)
      repro += " --faults " + std::to_string(fault_seed) +
               " --fault-policy recover";
    if (!encoding) repro += " --no-encoding";
    SCOPED_TRACE("repro: " + repro);

    sim::Topology topo(mesh);
    bfs::RunnerResult result;
    try {
      result = bfs::run_graph500(topo, cfg);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "sweep draw " << it << " threw: " << e.what()
                    << "\n  repro: " << repro;
      continue;
    }
    EXPECT_TRUE(result.spmd.ok())
        << "sweep draw " << it << " SPMD errors\n  repro: " << repro;
    EXPECT_TRUE(result.all_valid)
        << "sweep draw " << it << " failed validation\n  repro: " << repro;
  }
}

// ------------------------------- steady-state staging allocations
//
// The priming contract (docs/PERF.md): after the warmup root no engine
// grows a staging buffer under any plan, and a staged plan moves no
// parent.  Same configuration as `graph500_runner --rows 4 --cols 4
// --roots 4 --engine E --exchange X` at SCALE 12 and 14.

TEST(Runner, SteadyStagingAllocsZeroOnEveryPlan) {
  const sim::Topology topo(sim::MeshShape{4, 4});
  for (int scale : {12, 14}) {
    for (bfs::EngineKind engine :
         {bfs::EngineKind::OneD, bfs::EngineKind::OneFiveD,
          bfs::EngineKind::Async}) {
      std::vector<uint64_t> direct_parents;
      for (sim::ExchangeBackend backend :
           {sim::ExchangeBackend::Direct, sim::ExchangeBackend::TwoDCA}) {
        SCOPED_TRACE("scale " + std::to_string(scale) + " engine " +
                     bfs::engine_kind_name(engine) + " exchange " +
                     sim::exchange_backend_name(backend));
        bfs::RunnerConfig cfg;
        cfg.graph.scale = scale;
        cfg.thresholds = {2048, 128};
        cfg.engine = engine;
        cfg.num_roots = 4;
        cfg.bfs.exchange.backend = backend;
        cfg.bfs1d.exchange.backend = backend;
        cfg.bfsasync.exchange.backend = backend;
        const bfs::RunnerResult result = bfs::run_graph500(topo, cfg);
        EXPECT_TRUE(result.all_valid);
        EXPECT_EQ(result.staging_allocs_steady, 0u);
        std::vector<uint64_t> parents;
        for (const bfs::RootRun& run : result.runs)
          parents.push_back(run.parent_checksum);
        if (backend == sim::ExchangeBackend::Direct)
          direct_parents = parents;
        else
          EXPECT_EQ(parents, direct_parents);
      }
    }
  }
}

}  // namespace
}  // namespace sunbfs
