// Differential-oracle tests (ctest -L differential): every distributed
// traversal engine is checked against a serial host reference on seeded
// configurations spanning mesh shapes, scales, thread counts and the wire
// encoding.  Three layers:
//
//   1. BFS engines vs graph::reference_bfs — reachability and per-vertex
//      depths must agree exactly (the BFS tree itself may differ; depths
//      are unique), and the tree must pass the kernel-2 validator.
//   2. MS-BFS vs a serial re-derivation of its canonical max-global-id
//      parent rule — exact parent-array equality, not just equivalence.
//   3. A seeded randomized sweep over full-pipeline configurations
//      (including fault plans); any failure prints a single
//      graph500_runner command line that reproduces it.  Depth is
//      controlled by SUNBFS_SWEEP_ITERS (default shallow for tier-1 CI),
//      the seed by SUNBFS_SWEEP_SEED.
//
// The encoding on/off bit-identity case here is the PR's acceptance
// criterion: parent claims are store_max reductions, so the winning parent
// per (vertex, level) is order-independent and the encoded exchange must
// not change a single output word at any thread count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "bfs/bfs15d.hpp"
#include "bfs/bfs1d.hpp"
#include "bfs/runner.hpp"
#include "chip/arch.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part15d.hpp"
#include "partition/part1d.hpp"
#include "service/msbfs.hpp"
#include "service/query.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "support/random.hpp"

namespace sunbfs {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::Vertex;
using graph::kNoVertex;

std::vector<Edge> slice_of(const Graph500Config& cfg, int rank, int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_rmat_range(cfg, m * uint64_t(rank) / uint64_t(nranks),
                                    m * uint64_t(rank + 1) / uint64_t(nranks));
}

Vertex pick_root(const Graph500Config& cfg) {
  return graph::generate_rmat_range(cfg, 0, 1)[0].u;
}

std::vector<Vertex> run_15d(const Graph500Config& cfg, sim::MeshShape mesh,
                            Vertex root, int threads, bool encoding) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> global_parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part =
        partition::build_15d(ctx, space, slice, deg, {128, 32});
    bfs::Bfs15dOptions opts;
    opts.threads_per_rank = threads;
    opts.exchange.encoding = encoding;
    auto res = bfs::bfs15d_run(ctx, part, root, opts);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) global_parent = std::move(gathered);
  });
  return global_parent;
}

std::vector<Vertex> run_1d(const Graph500Config& cfg, sim::MeshShape mesh,
                           Vertex root, int threads, bool encoding) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> global_parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto part = partition::build_1d(ctx, space, slice);
    bfs::Bfs1dOptions opts;
    opts.threads_per_rank = threads;
    opts.exchange.encoding = encoding;
    auto res = bfs::bfs1d_run(ctx, part, root, opts);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) global_parent = std::move(gathered);
  });
  return global_parent;
}

// The differential oracle proper: a valid BFS tree whose per-vertex depths
// equal the serial reference's (depths are unique per (graph, root), so
// this pins the full depth function, not just reachability).
void expect_matches_reference(const Graph500Config& cfg, Vertex root,
                              std::span<const Vertex> parent) {
  ASSERT_EQ(parent.size(), cfg.num_vertices());
  auto edges = graph::generate_rmat(cfg);
  auto res = graph::validate_bfs(cfg.num_vertices(), edges, root, parent);
  ASSERT_TRUE(res.ok) << res.error;
  auto ref = graph::reference_bfs(cfg.num_vertices(), edges, root);
  auto ref_levels = graph::levels_from_parents(cfg.num_vertices(), ref, root);
  auto got_levels =
      graph::levels_from_parents(cfg.num_vertices(), parent, root);
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
    ASSERT_EQ(got_levels[v], ref_levels[v]) << "depth mismatch at " << v;
}

// --------------------------------------------- engine-vs-oracle sweep

struct DiffCase {
  const char* engine;  // "1d" or "1.5d"
  uint64_t seed;
  int scale;
  int rows, cols;
  int threads;
  bool encoding;
};

class EngineOracle : public ::testing::TestWithParam<DiffCase> {};

TEST_P(EngineOracle, DepthsMatchSerialReference) {
  const DiffCase c = GetParam();
  Graph500Config cfg;
  cfg.scale = c.scale;
  cfg.seed = c.seed;
  Vertex root = pick_root(cfg);
  sim::MeshShape mesh{c.rows, c.cols};
  auto parent = std::string(c.engine) == "1d"
                    ? run_1d(cfg, mesh, root, c.threads, c.encoding)
                    : run_15d(cfg, mesh, root, c.threads, c.encoding);
  expect_matches_reference(cfg, root, parent);
}

INSTANTIATE_TEST_SUITE_P(
    SeededConfigs, EngineOracle,
    ::testing::Values(
        // 1D engine: shapes x threads x encoding.
        DiffCase{"1d", 1, 9, 1, 2, 1, true},
        DiffCase{"1d", 2, 10, 2, 2, 1, true},
        DiffCase{"1d", 3, 10, 2, 2, 4, true},
        DiffCase{"1d", 4, 10, 2, 2, 2, false},
        DiffCase{"1d", 5, 11, 2, 4, 2, true},
        DiffCase{"1d", 6, 10, 4, 1, 1, false},
        // 1.5D engine, same axes plus non-square meshes.
        DiffCase{"1.5d", 7, 9, 1, 1, 1, true},
        DiffCase{"1.5d", 8, 10, 2, 2, 1, true},
        DiffCase{"1.5d", 9, 10, 2, 2, 4, true},
        DiffCase{"1.5d", 10, 10, 2, 3, 2, false},
        DiffCase{"1.5d", 11, 11, 4, 4, 2, true},
        DiffCase{"1.5d", 12, 10, 2, 2, 4, false},
        DiffCase{"1.5d", 13, 11, 3, 2, 2, true},
        DiffCase{"1.5d", 14, 10, 1, 4, 1, true}));

// ------------------------------------------ MS-BFS exact-parent oracle

struct MsbfsCase {
  uint64_t seed;
  int scale;
  int rows, cols;
  int width;
  int threads;
  bool encoding;
  bool dup_roots;
};

class MsbfsOracle : public ::testing::TestWithParam<MsbfsCase> {};

// Serial re-derivation of the engine's determinism contract: the parent of
// v is the *maximum global id* neighbour at depth(v) - 1.
std::vector<Vertex> canonical_parents(uint64_t nv,
                                      const std::vector<std::vector<Vertex>>& adj,
                                      std::span<const int64_t> levels,
                                      Vertex root) {
  std::vector<Vertex> parent(nv, kNoVertex);
  parent[size_t(root)] = root;
  for (uint64_t v = 0; v < nv; ++v) {
    if (levels[v] <= 0) continue;  // unreachable or the root itself
    Vertex best = kNoVertex;
    for (Vertex u : adj[v])
      if (levels[size_t(u)] == levels[v] - 1 && u > best) best = u;
    parent[v] = best;
  }
  return parent;
}

TEST_P(MsbfsOracle, BatchParentsEqualCanonicalReference) {
  const MsbfsCase c = GetParam();
  Graph500Config cfg;
  cfg.scale = c.scale;
  cfg.seed = c.seed;
  sim::MeshShape mesh{c.rows, c.cols};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};

  std::vector<Vertex> roots;
  std::vector<std::vector<Vertex>> got_parent;  // per query, global order
  std::vector<int> got_levels;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_1d(ctx, space, slice);
    auto keys = bfs::pick_search_keys(ctx, space, degrees, c.width, c.seed);
    if (c.dup_roots && keys.size() >= 2) keys[1] = keys[0];
    service::MsbfsOptions opts;
    opts.threads_per_rank = c.threads;
    opts.exchange.encoding = c.encoding;
    auto batch = service::msbfs_run(ctx, part, keys, opts);
    const uint64_t local = space.count(ctx.rank);
    std::vector<std::vector<Vertex>> gathered(keys.size());
    for (size_t q = 0; q < keys.size(); ++q)
      gathered[q] = ctx.world.allgatherv(std::span<const Vertex>(
          batch.parent.data() + q * local, local));
    if (ctx.rank == 0) {
      roots = keys;
      got_parent = std::move(gathered);
      got_levels = batch.levels;
    }
  });

  ASSERT_EQ(roots.size(), size_t(c.width));
  auto edges = graph::generate_rmat(cfg);
  std::vector<std::vector<Vertex>> adj(cfg.num_vertices());
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    adj[size_t(e.u)].push_back(e.v);
    adj[size_t(e.v)].push_back(e.u);
  }
  for (size_t q = 0; q < roots.size(); ++q) {
    auto ref = graph::reference_bfs(cfg.num_vertices(), edges, roots[q]);
    auto levels =
        graph::levels_from_parents(cfg.num_vertices(), ref, roots[q]);
    auto want = canonical_parents(cfg.num_vertices(), adj, levels, roots[q]);
    int64_t ecc = 0;
    for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
      ASSERT_EQ(got_parent[q][v], want[v])
          << "query " << q << " root " << roots[q] << " vertex " << v;
      ecc = std::max(ecc, levels[v]);
    }
    EXPECT_EQ(int64_t(got_levels[q]), ecc) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededConfigs, MsbfsOracle,
    ::testing::Values(
        MsbfsCase{21, 10, 2, 2, int(service::kMaxBatchWidth), 2, true, false},
        MsbfsCase{22, 10, 2, 2, 5, 1, true, true},
        MsbfsCase{23, 9, 1, 2, 16, 4, false, false},
        MsbfsCase{24, 10, 2, 1, 33, 2, true, false}));

// ----------------------------- MS-BFS recovery vs the canonical oracle

// Rollback-and-replay must be invisible in the output: MS-BFS recovering
// from each FaultKind returns parents bit-identical to the serial canonical
// oracle — i.e. identical to a fault-free run — across thread counts and
// with the wire encoding on and off (corruption then hits *encoded*
// payloads and detection goes through the block checksums).
struct MsbfsFaultCase {
  sim::FaultKind kind;
  int threads;
  bool encoding;
};

class MsbfsFaultOracle : public ::testing::TestWithParam<MsbfsFaultCase> {};

sim::FaultPlan plan_for(sim::FaultKind kind) {
  sim::FaultPlan plan;
  switch (kind) {
    case sim::FaultKind::Straggler:
      plan.add_straggler(1, sim::CollectiveType::Allreduce, 2, 1e-3);
      break;
    case sim::FaultKind::BitFlip:
      plan.add_bitflip(1, sim::CollectiveType::Alltoallv, 1);
      break;
    case sim::FaultKind::Truncate:
      plan.add_truncate(0, sim::CollectiveType::Alltoallv, 2);
      break;
    case sim::FaultKind::RankFailure:
      plan.add_rank_failure(1, 2);
      break;
  }
  return plan;
}

TEST_P(MsbfsFaultOracle, RecoveredParentsEqualCanonicalReference) {
  const MsbfsFaultCase c = GetParam();
  SCOPED_TRACE(std::string("kind ") + sim::fault_kind_name(c.kind) +
               ", threads " + std::to_string(c.threads) + ", encoding " +
               (c.encoding ? "on" : "off"));
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 31;
  const sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  const int width = 9;

  const sim::FaultPlan plan = plan_for(c.kind);
  sim::SpmdOptions opts;
  opts.policy = sim::FaultPolicy::Recover;
  opts.faults = &plan;

  std::vector<Vertex> roots;
  std::vector<std::vector<Vertex>> got_parent;
  auto report = sim::run_spmd(sim::Topology(mesh), [&](sim::RankContext& ctx) {
    // Setup is outside the recoverable surface: the plan's call indices
    // must count the engine's collectives alone (the session layer uses
    // the same arming discipline).
    ctx.faults.armed = false;
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_1d(ctx, space, slice);
    auto keys = bfs::pick_search_keys(ctx, space, degrees, width, cfg.seed);
    service::MsbfsOptions mopts;
    mopts.threads_per_rank = c.threads;
    mopts.exchange.encoding = c.encoding;
    ctx.faults.armed = true;
    auto batch = service::msbfs_run(ctx, part, keys, mopts);
    ctx.faults.armed = false;
    const uint64_t local = space.count(ctx.rank);
    std::vector<std::vector<Vertex>> gathered(keys.size());
    for (size_t q = 0; q < keys.size(); ++q)
      gathered[q] = ctx.world.allgatherv(std::span<const Vertex>(
          batch.parent.data() + q * local, local));
    if (ctx.rank == 0) {
      roots = keys;
      got_parent = std::move(gathered);
    }
  }, opts);
  ASSERT_TRUE(report.ok()) << report.errors.front();

  // The plan must actually have fired, and the corrupting/fatal kinds must
  // have gone through detection + rollback-and-replay.
  const sim::FaultStats totals = report.fault_totals();
  EXPECT_GE(totals.injected(), 1u);
  if (c.kind != sim::FaultKind::Straggler) EXPECT_GE(totals.recovered, 1u);

  auto edges = graph::generate_rmat(cfg);
  std::vector<std::vector<Vertex>> adj(cfg.num_vertices());
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    adj[size_t(e.u)].push_back(e.v);
    adj[size_t(e.v)].push_back(e.u);
  }
  ASSERT_EQ(roots.size(), size_t(width));
  for (size_t q = 0; q < roots.size(); ++q) {
    auto ref = graph::reference_bfs(cfg.num_vertices(), edges, roots[q]);
    auto levels = graph::levels_from_parents(cfg.num_vertices(), ref, roots[q]);
    auto want = canonical_parents(cfg.num_vertices(), adj, levels, roots[q]);
    for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
      ASSERT_EQ(got_parent[q][v], want[v])
          << "query " << q << " root " << roots[q] << " vertex " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    EveryFaultKind, MsbfsFaultOracle,
    ::testing::Values(
        MsbfsFaultCase{sim::FaultKind::Straggler, 1, true},
        MsbfsFaultCase{sim::FaultKind::Straggler, 4, true},
        MsbfsFaultCase{sim::FaultKind::Straggler, 1, false},
        MsbfsFaultCase{sim::FaultKind::Straggler, 4, false},
        MsbfsFaultCase{sim::FaultKind::BitFlip, 1, true},
        MsbfsFaultCase{sim::FaultKind::BitFlip, 4, true},
        MsbfsFaultCase{sim::FaultKind::BitFlip, 1, false},
        MsbfsFaultCase{sim::FaultKind::BitFlip, 4, false},
        MsbfsFaultCase{sim::FaultKind::Truncate, 1, true},
        MsbfsFaultCase{sim::FaultKind::Truncate, 4, true},
        MsbfsFaultCase{sim::FaultKind::Truncate, 1, false},
        MsbfsFaultCase{sim::FaultKind::Truncate, 4, false},
        MsbfsFaultCase{sim::FaultKind::RankFailure, 1, true},
        MsbfsFaultCase{sim::FaultKind::RankFailure, 4, true},
        MsbfsFaultCase{sim::FaultKind::RankFailure, 1, false},
        MsbfsFaultCase{sim::FaultKind::RankFailure, 4, false}));

// ------------------------------- acceptance: on/off bit-identity

// Parent claims are store_max reductions per level, so enabling the wire
// encoding (which reorders messages inside a block) must not change a
// single output word — at 1 worker thread or 4.
TEST(EncodingBitIdentity, ParentsAndDepthsIdenticalOnAndOff) {
  Graph500Config cfg;
  cfg.scale = 11;
  cfg.seed = 42;
  const sim::MeshShape mesh{2, 2};
  const Vertex root = pick_root(cfg);
  for (int threads : {1, 4}) {
    auto on = run_15d(cfg, mesh, root, threads, true);
    auto off = run_15d(cfg, mesh, root, threads, false);
    ASSERT_EQ(on, off) << "1.5d parents differ at " << threads << " threads";
    auto lv_on = graph::levels_from_parents(cfg.num_vertices(), on, root);
    auto lv_off = graph::levels_from_parents(cfg.num_vertices(), off, root);
    EXPECT_EQ(lv_on, lv_off);

    auto on1 = run_1d(cfg, mesh, root, threads, true);
    auto off1 = run_1d(cfg, mesh, root, threads, false);
    ASSERT_EQ(on1, off1) << "1d parents differ at " << threads << " threads";
  }
}

// --------------------------------------- seeded randomized sweep

uint64_t env_u64(const char* name, uint64_t fallback) {
  const char* s = std::getenv(name);
  return (s != nullptr && *s != '\0') ? std::strtoull(s, nullptr, 10)
                                      : fallback;
}

// Sample full-pipeline configurations (engine, scale, mesh, roots, threads,
// encoding, fault plan) and require every one to validate.  Shallow by
// default; nightly depth via SUNBFS_SWEEP_ITERS.  A failing draw prints one
// copy-paste graph500_runner invocation that replays it exactly.
TEST(RandomizedSweep, SampledPipelinesValidateOrPrintRepro) {
  const uint64_t seed = env_u64("SUNBFS_SWEEP_SEED", 2026);
  const uint64_t iters = env_u64("SUNBFS_SWEEP_ITERS", 2);
  Xoshiro256StarStar rng(seed);
  static const sim::MeshShape kMeshes[] = {{1, 2}, {2, 2}, {2, 4}, {4, 4}};
  static const int kThreads[] = {1, 2, 4};

  for (uint64_t it = 0; it < iters; ++it) {
    bfs::RunnerConfig cfg;
    cfg.graph.scale = int(9 + rng.next() % 3);
    cfg.graph.seed = 1 + rng.next() % 1000;
    static const bfs::EngineKind kKinds[] = {
        bfs::EngineKind::OneFiveD, bfs::EngineKind::OneD,
        bfs::EngineKind::Async};
    cfg.engine = kKinds[rng.next() % 3];
    cfg.num_roots = int(1 + rng.next() % 3);
    const int threads = kThreads[rng.next() % 3];
    cfg.bfs.threads_per_rank = threads;
    cfg.bfs1d.threads_per_rank = threads;
    cfg.bfsasync.threads_per_rank = threads;
    const bool encoding = rng.next() % 2 == 0;
    cfg.bfs.exchange.encoding = encoding;
    cfg.bfs1d.exchange.encoding = encoding;
    cfg.bfsasync.exchange.encoding = encoding;
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
        bfs::engine_kind_name(cfg.engine);
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

}  // namespace
}  // namespace sunbfs
