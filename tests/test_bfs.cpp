// Correctness tests for the BFS engines: every engine configuration must
// produce a parent array that passes Graph 500 validation and reaches
// exactly the same vertex set as the serial reference BFS.
#include <gtest/gtest.h>

#include <numeric>
#include <optional>

#include "bfs/bfs15d.hpp"
#include "bfs/bfs1d.hpp"
#include "bfs/runner.hpp"
#include "bfs/gathered_frontier.hpp"
#include "bfs/vertex_cut.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part1d.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"

namespace sunbfs::bfs {
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

/// Run the 1.5D engine over `mesh` and return the assembled global parent
/// array plus (optionally) rank-0's stats.
std::vector<Vertex> run_15d(const Graph500Config& cfg, sim::MeshShape mesh,
                            partition::DegreeThresholds th, Vertex root,
                            Bfs15dOptions opts = {},
                            BfsStats* stats_out = nullptr,
                            chip::Geometry chip_geo = chip::Geometry::tiny()) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> global_parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, deg, th);
    std::optional<chip::Chip> chip;
    Bfs15dOptions o = opts;
    if (o.pull_kernel != Bfs15dOptions::EhPullKernel::Host) {
      chip.emplace(chip_geo);
      o.chip = &*chip;
    }
    auto res = bfs15d_run(ctx, part, root, o);
    auto gathered =
        ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) {
      global_parent = std::move(gathered);
      if (stats_out) *stats_out = res.stats;
    }
  });
  return global_parent;
}

void expect_equivalent_to_reference(const Graph500Config& cfg, Vertex root,
                                    std::span<const Vertex> parent) {
  auto edges = graph::generate_rmat(cfg);
  auto res = graph::validate_bfs(cfg.num_vertices(), edges, root, parent);
  EXPECT_TRUE(res.ok) << res.error;
  auto ref = graph::reference_bfs(cfg.num_vertices(), edges, root);
  uint64_t ref_reached = 0;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
    if (ref[v] != kNoVertex) ++ref_reached;
    ASSERT_EQ(parent[v] != kNoVertex, ref[v] != kNoVertex)
        << "reachability mismatch at vertex " << v;
  }
  EXPECT_EQ(res.reached, ref_reached);
}

Vertex pick_root(const Graph500Config& cfg) {
  auto edges = graph::generate_rmat_range(cfg, 0, 1);
  return edges[0].u;
}

// ---------------------------------------------------------------- 1.5D

struct Case15d {
  int rows, cols;
  int scale;
  uint64_t e_th, h_th;
  bool sub_iter;
};

class Bfs15dCases : public ::testing::TestWithParam<Case15d> {};

TEST_P(Bfs15dCases, ValidatesAndMatchesReference) {
  auto c = GetParam();
  Graph500Config cfg;
  cfg.scale = c.scale;
  cfg.seed = 3;
  Bfs15dOptions opts;
  opts.sub_iteration_direction = c.sub_iter;
  Vertex root = pick_root(cfg);
  auto parent = run_15d(cfg, sim::MeshShape{c.rows, c.cols},
                        partition::DegreeThresholds{c.e_th, c.h_th}, root,
                        opts);
  expect_equivalent_to_reference(cfg, root, parent);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, Bfs15dCases,
    ::testing::Values(
        Case15d{1, 1, 9, 64, 16, true},      // single rank
        Case15d{2, 2, 10, 64, 16, true},     // square mesh
        Case15d{1, 4, 10, 64, 16, true},     // single row
        Case15d{4, 1, 10, 64, 16, true},     // single column
        Case15d{2, 3, 10, 64, 16, true},     // rectangular
        Case15d{2, 2, 10, 64, 16, false},    // whole-iteration direction
        Case15d{2, 2, 10, 64, 64, true},     // |H| = 0 (1D-delegate-like)
        Case15d{2, 2, 9, 512, 0, true},      // |L| = 0 (2D-like)
        Case15d{2, 2, 10, 1u << 30, 1u << 30, true},  // no EH at all (pure 1D)
        Case15d{3, 2, 11, 128, 32, true}));  // larger scale

TEST(Bfs15d, MultipleRootsAllValid) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 11;
  auto edges = graph::generate_rmat(cfg);
  for (uint64_t i = 17; i < 17 + 4; ++i) {
    Vertex root = edges[i * 101].v;
    auto parent = run_15d(cfg, sim::MeshShape{2, 2},
                          partition::DegreeThresholds{128, 32}, root);
    auto res = graph::validate_bfs(cfg.num_vertices(), edges, root, parent);
    EXPECT_TRUE(res.ok) << "root " << root << ": " << res.error;
  }
}

TEST(Bfs15d, IsolatedRootTerminatesImmediately) {
  // A root with no edges must yield a tree containing only the root.
  Graph500Config cfg;
  cfg.scale = 10;
  auto edges = graph::generate_rmat(cfg);
  auto deg = graph::undirected_degrees(cfg.num_vertices(), edges);
  Vertex isolated = kNoVertex;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v)
    if (deg[v] == 0) {
      isolated = Vertex(v);
      break;
    }
  ASSERT_NE(isolated, kNoVertex) << "scale 10 R-MAT should have isolated vertices";
  auto parent = run_15d(cfg, sim::MeshShape{2, 2},
                        partition::DegreeThresholds{128, 32}, isolated);
  uint64_t reached = 0;
  for (Vertex p : parent)
    if (p != kNoVertex) ++reached;
  EXPECT_EQ(reached, 1u);
  EXPECT_EQ(parent[size_t(isolated)], isolated);
}

TEST(Bfs15d, DelayedAndEagerReductionAgree) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 5;
  Vertex root = pick_root(cfg);
  Bfs15dOptions delayed;
  delayed.delayed_parent_reduction = true;
  Bfs15dOptions eager;
  eager.delayed_parent_reduction = false;
  auto p1 = run_15d(cfg, sim::MeshShape{2, 2},
                    partition::DegreeThresholds{128, 32}, root, delayed);
  auto p2 = run_15d(cfg, sim::MeshShape{2, 2},
                    partition::DegreeThresholds{128, 32}, root, eager);
  // Both must validate; reachability must agree (parents may differ).
  expect_equivalent_to_reference(cfg, root, p1);
  expect_equivalent_to_reference(cfg, root, p2);
}

TEST(Bfs15d, ChipPullKernelsMatchHost) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 9;
  Vertex root = pick_root(cfg);
  partition::DegreeThresholds th{128, 32};
  auto host = run_15d(cfg, sim::MeshShape{2, 2}, th, root);
  for (auto kernel : {Bfs15dOptions::EhPullKernel::ChipGld,
                      Bfs15dOptions::EhPullKernel::ChipRma}) {
    Bfs15dOptions opts;
    opts.pull_kernel = kernel;
    auto parent = run_15d(cfg, sim::MeshShape{2, 2}, th, root, opts);
    expect_equivalent_to_reference(cfg, root, parent);
    for (size_t v = 0; v < host.size(); ++v)
      ASSERT_EQ(parent[v] != kNoVertex, host[v] != kNoVertex);
  }
}

TEST(Bfs15d, SegmentedPullIsFasterThanGldOnModeledClock) {
  // Figure 15's claim at kernel level: the RMA-segmented pull beats the GLD
  // baseline on the modeled clock.
  Graph500Config cfg;
  cfg.scale = 11;
  cfg.seed = 2;
  Vertex root = pick_root(cfg);
  partition::DegreeThresholds th{64, 16};
  BfsStats gld, rma;
  Bfs15dOptions o1;
  o1.pull_kernel = Bfs15dOptions::EhPullKernel::ChipGld;
  run_15d(cfg, sim::MeshShape{1, 1}, th, root, o1, &gld);
  Bfs15dOptions o2;
  o2.pull_kernel = Bfs15dOptions::EhPullKernel::ChipRma;
  run_15d(cfg, sim::MeshShape{1, 1}, th, root, o2, &rma);
  double gld_pull = gld.pull_cpu_s[int(partition::Subgraph::EH2EH)];
  double rma_pull = rma.pull_cpu_s[int(partition::Subgraph::EH2EH)];
  ASSERT_GT(gld_pull, 0.0);
  ASSERT_GT(rma_pull, 0.0);
  EXPECT_GT(gld_pull / rma_pull, 2.0);
}

TEST(Bfs15d, StatsAreInternallyConsistent) {
  Graph500Config cfg;
  cfg.scale = 10;
  Vertex root = pick_root(cfg);
  BfsStats stats;
  run_15d(cfg, sim::MeshShape{2, 2}, partition::DegreeThresholds{128, 32},
          root, {}, &stats);
  EXPECT_GT(stats.num_iterations, 1);
  EXPECT_EQ(stats.iterations.size(), size_t(stats.num_iterations));
  EXPECT_GT(stats.total_cpu_s(), 0.0);
  EXPECT_GT(stats.total_comm_modeled_s(), 0.0);
  // Iteration 1 contains exactly the root.
  const auto& it1 = stats.iterations[0];
  EXPECT_EQ(it1.active_e + it1.active_h + it1.active_l, 1u);
}

TEST(Bfs15d, ActivationPeaksEarlierForHubs) {
  // Figure 5's shape: the iteration where E peaks is never later than the
  // iteration where L peaks.
  Graph500Config cfg;
  cfg.scale = 12;
  cfg.seed = 21;
  Vertex root = pick_root(cfg);
  BfsStats stats;
  run_15d(cfg, sim::MeshShape{2, 2}, partition::DegreeThresholds{256, 64},
          root, {}, &stats);
  int peak_e = 0, peak_l = 0;
  uint64_t best_e = 0, best_l = 0;
  for (const auto& it : stats.iterations) {
    if (it.active_e > best_e) {
      best_e = it.active_e;
      peak_e = it.iteration;
    }
    if (it.active_l > best_l) {
      best_l = it.active_l;
      peak_l = it.iteration;
    }
  }
  EXPECT_LE(peak_e, peak_l);
}

TEST(Bfs15d, RootsFromEveryDegreeClass) {
  // The root may be an E hub, an H vertex or an L vertex; all must work.
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 71;
  auto edges = graph::generate_rmat(cfg);
  auto deg = graph::undirected_degrees(cfg.num_vertices(), edges);
  partition::DegreeThresholds th{256, 64};
  Vertex e_root = kNoVertex, h_root = kNoVertex, l_root = kNoVertex;
  for (uint64_t v = 0; v < cfg.num_vertices(); ++v) {
    if (deg[v] >= th.e && e_root == kNoVertex) e_root = Vertex(v);
    else if (deg[v] >= th.h && deg[v] < th.e && h_root == kNoVertex)
      h_root = Vertex(v);
    else if (deg[v] > 0 && deg[v] < th.h && l_root == kNoVertex)
      l_root = Vertex(v);
  }
  for (Vertex root : {e_root, h_root, l_root}) {
    ASSERT_NE(root, kNoVertex);
    auto parent = run_15d(cfg, sim::MeshShape{2, 2}, th, root);
    auto res = graph::validate_bfs(cfg.num_vertices(), edges, root, parent);
    EXPECT_TRUE(res.ok) << "root " << root << ": " << res.error;
    EXPECT_EQ(parent[size_t(root)], root);
  }
}

TEST(Bfs15d, CustomSupernodeMappingStillValidates) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 73;
  Vertex root = pick_root(cfg);
  sim::TopologyParams params;
  params.ranks_per_supernode = 2;  // not equal to the mesh column count
  params.oversubscription = 16;
  sim::Topology topo(sim::MeshShape{2, 3}, params);
  partition::VertexSpace space{cfg.num_vertices(), topo.mesh().ranks()};
  std::vector<Vertex> parent;
  sim::run_spmd(topo, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, deg, {128, 32});
    auto res = bfs15d_run(ctx, part, root);
    auto gathered =
        ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) parent = std::move(gathered);
  });
  expect_equivalent_to_reference(cfg, root, parent);
}

// ---------------------------------------------------------------- 1D

class Bfs1dCases : public ::testing::TestWithParam<sim::MeshShape> {};

TEST_P(Bfs1dCases, ValidatesAndMatchesReference) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 13;
  Vertex root = pick_root(cfg);
  sim::MeshShape mesh = GetParam();
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto part = partition::build_1d(ctx, space, slice);
    auto res = bfs1d_run(ctx, part, root);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) parent = std::move(gathered);
  });
  expect_equivalent_to_reference(cfg, root, parent);
}

INSTANTIATE_TEST_SUITE_P(Meshes, Bfs1dCases,
                         ::testing::Values(sim::MeshShape{1, 1},
                                           sim::MeshShape{2, 2},
                                           sim::MeshShape{1, 3}));

// --------------------------------------- thread-count determinism (tpr sweep)

std::vector<Vertex> run_1d(const Graph500Config& cfg, sim::MeshShape mesh,
                           Vertex root, const Bfs1dOptions& opts) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  std::vector<Vertex> parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto part = partition::build_1d(ctx, space, slice);
    auto res = bfs1d_run(ctx, part, root, opts);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) parent = std::move(gathered);
  });
  return parent;
}

/// The determinism contract (docs/PERF.md): the sweep's first run must be a
/// Graph500-valid tree matching the reference component, and every other
/// run must reproduce it bit for bit — identical parent arrays, hence
/// identical depth arrays — independent of threads_per_rank.
void expect_identical_sweep(const Graph500Config& cfg, Vertex root,
                            const std::vector<std::vector<Vertex>>& parents) {
  ASSERT_FALSE(parents.empty());
  ASSERT_FALSE(parents[0].empty());
  expect_equivalent_to_reference(cfg, root, parents[0]);
  auto depth0 =
      graph::levels_from_parents(cfg.num_vertices(), parents[0], root);
  for (size_t i = 1; i < parents.size(); ++i) {
    ASSERT_EQ(parents[i], parents[0])
        << "parent array differs at sweep index " << i;
    auto depth =
        graph::levels_from_parents(cfg.num_vertices(), parents[i], root);
    ASSERT_EQ(depth, depth0) << "depth array differs at sweep index " << i;
  }
}

TEST(ThreadDeterminism, Bfs15dBitIdenticalAcrossThreadCounts) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 17;
  Vertex root = pick_root(cfg);
  std::vector<std::vector<Vertex>> parents;
  for (int tpr : {1, 2, 4}) {
    Bfs15dOptions o;
    o.threads_per_rank = tpr;
    parents.push_back(run_15d(cfg, sim::MeshShape{2, 2},
                              partition::DegreeThresholds{128, 32}, root, o));
  }
  expect_identical_sweep(cfg, root, parents);
}

TEST(ThreadDeterminism, Bfs1dBitIdenticalAcrossThreadCounts) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 13;
  Vertex root = pick_root(cfg);
  std::vector<std::vector<Vertex>> parents;
  for (int tpr : {1, 2, 4}) {
    Bfs1dOptions o;
    o.threads_per_rank = tpr;
    parents.push_back(run_1d(cfg, sim::MeshShape{1, 3}, root, o));
  }
  expect_identical_sweep(cfg, root, parents);
}

TEST(ThreadDeterminism, RecoveredFaultRunIdenticalAcrossThreadCounts) {
  // Checkpointed recovery replays levels; the replayed run must still be
  // bit-identical at every thread count (and to the fault-free tree).
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 5;
  sim::MeshShape mesh{2, 2};
  Vertex root = pick_root(cfg);
  sim::FaultPlan plan;
  plan.add_rank_failure(1, 2);
  std::vector<std::vector<Vertex>> parents;
  for (int tpr : {0 /* clean baseline below uses tpr=1 */, 1, 2, 4}) {
    partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
    sim::SpmdOptions sopts;
    if (tpr != 0) {
      sopts.policy = sim::FaultPolicy::Recover;
      sopts.faults = &plan;
    }
    std::vector<Vertex> parent;
    auto report = sim::run_spmd(
        sim::Topology(mesh),
        [&](sim::RankContext& ctx) {
          ctx.faults.armed = false;  // setup runs fault-free, as in the runner
          auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
          auto deg = partition::compute_local_degrees(ctx, space, slice);
          auto part = partition::build_15d(ctx, space, slice, deg, {128, 32});
          ctx.faults.armed = true;
          Bfs15dOptions o;
          o.threads_per_rank = tpr == 0 ? 1 : tpr;
          auto res = bfs15d_run(ctx, part, root, o);
          ctx.faults.armed = false;
          auto gathered =
              ctx.world.allgatherv(std::span<const Vertex>(res.parent));
          if (ctx.rank == 0) parent = std::move(gathered);
        },
        sopts);
    ASSERT_TRUE(report.ok());
    if (tpr != 0) {
      EXPECT_GT(report.fault_totals().recovered, 0u);
    }
    parents.push_back(std::move(parent));
  }
  expect_identical_sweep(cfg, root, parents);
}

// --------------------------------------------------------- gathered frontier

TEST(GatheredFrontier, AssemblesPerRankBitmaps) {
  sim::run_spmd(sim::MeshShape{1, 3}, [&](sim::RankContext& ctx) {
    // Rank r's bitmap has 10*(r+1) bits with bit (7*r % size) set.
    BitVector mine(uint64_t(10 * (ctx.rank + 1)));
    mine.set(uint64_t(7 * ctx.rank) % mine.size());
    auto g = GatheredFrontier::gather(ctx.world, mine);
    for (int r = 0; r < 3; ++r) {
      uint64_t size = uint64_t(10 * (r + 1));
      uint64_t set_bit = uint64_t(7 * r) % size;
      for (uint64_t i = 0; i < size; ++i)
        ASSERT_EQ(g.get(r, i), i == set_bit) << "rank " << r << " bit " << i;
    }
  });
}

// ---------------------------------------------------------------- vertex cut

TEST(VertexCut, CoversFrontierExactlyOnce) {
  ThreadPool pool(4);
  std::vector<uint64_t> frontier(1000);
  std::iota(frontier.begin(), frontier.end(), 0);
  // Extremely skewed "degrees": vertex 0 has nearly all edges.
  auto deg = [](uint64_t v) { return v == 0 ? uint64_t(1) << 20 : 1; };
  std::vector<std::atomic<int>> hits(frontier.size());
  edge_aware_foreach(frontier, deg, pool,
                     [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(VertexCut, EmptyAndTinyFrontiers) {
  ThreadPool pool(2);
  std::vector<uint64_t> empty;
  int calls = 0;
  edge_aware_foreach(empty, [](uint64_t) { return 1; }, pool,
                     [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::vector<uint64_t> one = {42};
  edge_aware_foreach(one, [](uint64_t) { return 0; }, pool,
                     [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 1);
}

// ---------------------------------------------------------------- runner

TEST(Runner, EndToEndGraph500Conformance) {
  RunnerConfig cfg;
  cfg.graph.scale = 10;
  cfg.graph.seed = 31;
  cfg.thresholds = {128, 32};
  cfg.num_roots = 4;
  sim::Topology topo(sim::MeshShape{2, 2});
  auto result = run_graph500(topo, cfg);
  EXPECT_TRUE(result.all_valid);
  EXPECT_EQ(result.runs.size(), 4u);
  EXPECT_GT(result.harmonic_gteps, 0.0);
  EXPECT_GT(result.num_eh, 0u);
  for (const auto& r : result.runs) {
    EXPECT_TRUE(r.valid) << r.error;
    EXPECT_GT(r.traversed_edges, 0u);
    EXPECT_GT(r.modeled_s, 0.0);
  }
}

TEST(Runner, OneDEngineAlsoValidates) {
  RunnerConfig cfg;
  cfg.graph.scale = 9;
  cfg.engine = EngineKind::OneD;
  cfg.num_roots = 3;
  sim::Topology topo(sim::MeshShape{1, 2});
  auto result = run_graph500(topo, cfg);
  EXPECT_TRUE(result.all_valid);
}

// pick_search_keys is the shared root-selection protocol (BFS runner, SSSP
// runner, query service): pinned literals guard the exact RNG stream, and
// the keys must not depend on the mesh the selection runs on.
TEST(Runner, PickSearchKeysPinnedAndMeshIndependent) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 3;
  auto keys_on = [&](sim::MeshShape mesh) {
    partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
    std::vector<Vertex> keys;
    sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
      auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
      auto deg = partition::compute_local_degrees(ctx, space, slice);
      auto k = pick_search_keys(ctx, space, deg, 6, /*seed=*/42);
      if (ctx.rank == 0) keys = k;
    });
    return keys;
  };

  auto keys = keys_on(sim::MeshShape{2, 2});
  ASSERT_EQ(keys.size(), 6u);
  EXPECT_EQ(keys_on(sim::MeshShape{1, 3}), keys);

  // Pinned for (scale 9, graph seed 3, selection seed 42) — a change here
  // means the selection protocol changed and every recorded experiment's
  // roots moved with it.
  std::vector<Vertex> expected = {42, 194, 348, 507, 368, 435};
  EXPECT_EQ(keys, expected);

  // Every key must carry at least one edge.
  auto edges = graph::generate_rmat(cfg);
  std::vector<uint64_t> degree(cfg.num_vertices(), 0);
  for (const auto& e : edges) {
    ++degree[size_t(e.u)];
    ++degree[size_t(e.v)];
  }
  for (Vertex k : keys) EXPECT_GE(degree[size_t(k)], 1u) << "key " << k;
}

TEST(Runner, RootsAreDeterministicAcrossEngines) {
  RunnerConfig a;
  a.graph.scale = 9;
  a.num_roots = 3;
  a.root_seed = 77;
  RunnerConfig b = a;
  b.engine = EngineKind::OneD;
  sim::Topology topo(sim::MeshShape{1, 2});
  auto ra = run_graph500(topo, a);
  auto rb = run_graph500(topo, b);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(ra.runs[i].root, rb.runs[i].root);
    EXPECT_EQ(ra.runs[i].traversed_edges, rb.runs[i].traversed_edges);
  }
}

}  // namespace
}  // namespace sunbfs::bfs
