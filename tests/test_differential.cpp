// Differential-oracle tests (ctest -L differential): every distributed
// traversal engine is checked against a serial host reference on seeded
// configurations spanning mesh shapes, scales, thread counts and the wire
// encoding.  Three layers:
//
//   1. BFS engines vs graph::reference_bfs — reachability and per-vertex
//      depths must agree exactly (the BFS tree itself may differ; depths
//      are unique), and the tree must pass the kernel-2 validator.
//   2. MS-BFS vs a serial re-derivation of its canonical max-global-id
//      parent rule — exact parent-array equality, not just equivalence —
//      and the three 1D engines (bfs1d, MS-BFS width 1, bfsasync) against
//      each other and that rule, before and after in-place mutation.
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

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "bfs/bfs15d.hpp"
#include "bfs/bfs1d.hpp"
#include "bfs/bfsasync.hpp"
#include "bfs/runner.hpp"
#include "chip/arch.hpp"
#include "graph/lattice.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "mutate/apply.hpp"
#include "mutate/log.hpp"
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
    ThreadPool pool(2);
    auto part =
        partition::build_15d(ctx, space, slice, deg, {128, 32}, pool);
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

/// Undirected adjacency lists of `edges`, self loops dropped.
std::vector<std::vector<Vertex>> adjacency_of(uint64_t nv,
                                              std::span<const Edge> edges) {
  std::vector<std::vector<Vertex>> adj(nv);
  for (const auto& e : edges) {
    if (e.u == e.v) continue;
    adj[size_t(e.u)].push_back(e.v);
    adj[size_t(e.v)].push_back(e.u);
  }
  return adj;
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
  auto adj = adjacency_of(cfg.num_vertices(), edges);
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

// ------------------------------- one parent rule across the 1D engines

// bfs1d, MS-BFS at width 1 and bfsasync traverse the same resident 1D
// partition, whose rows build_1d sorts by descending global id and the
// mutation patches keep sorted.  Each takes the max-id neighbour one level
// up as parent, so the three parent arrays are identical to each other and
// to the serial canonical rule, on a freshly built partition and on one
// patched in place.

struct OneDCase {
  const char* input;  // "rmat" or "torus"
  int scale;          // R-MAT SCALE (the torus is fixed)
  int rows, cols;
  int threads;
};

/// Every input at every mesh (1x1, 2x2, 2x3) and thread count (1, 4).
std::vector<OneDCase> one_d_cases() {
  const OneDCase inputs[] = {
      {"rmat", 10, 0, 0, 0}, {"rmat", 11, 0, 0, 0}, {"rmat", 12, 0, 0, 0},
      {"torus", 0, 0, 0, 0}};
  const int meshes[][2] = {{1, 1}, {2, 2}, {2, 3}};
  std::vector<OneDCase> cases;
  for (OneDCase c : inputs)
    for (const auto& m : meshes)
      for (int threads : {1, 4}) {
        c.rows = m[0];
        c.cols = m[1];
        c.threads = threads;
        cases.push_back(c);
      }
  return cases;
}

std::string one_d_case_name(const ::testing::TestParamInfo<OneDCase>& info) {
  const OneDCase& c = info.param;
  return std::string(c.input) + (c.scale > 0 ? std::to_string(c.scale) : "") +
         "_" + std::to_string(c.rows) + "x" + std::to_string(c.cols) + "_t" +
         std::to_string(c.threads);
}

/// The case's input graph: vertex count, per-rank slices, search roots.
struct OneDInput {
  uint64_t nv = 0;
  std::function<std::vector<Edge>(uint64_t, uint64_t)> range;  // edges [lo, hi)
  uint64_t num_edges = 0;
  std::vector<Vertex> roots;

  std::vector<Edge> slice(int rank, int nranks) const {
    return range(num_edges * uint64_t(rank) / uint64_t(nranks),
                 num_edges * uint64_t(rank + 1) / uint64_t(nranks));
  }
  std::vector<Edge> all() const { return range(0, num_edges); }
};

OneDInput one_d_input(const OneDCase& c) {
  OneDInput in;
  if (std::string(c.input) == "rmat") {
    Graph500Config cfg;
    cfg.scale = c.scale;
    cfg.seed = 40 + uint64_t(c.scale);
    in.nv = cfg.num_vertices();
    in.num_edges = cfg.num_edges();
    in.range = [cfg](uint64_t lo, uint64_t hi) {
      return graph::generate_rmat_range(cfg, lo, hi);
    };
  } else {
    // Small enough that the middle levels cross pull_ratio and pull.
    const auto cfg = graph::LatticeConfig::torus(16, 16);
    in.nv = cfg.num_vertices();
    in.num_edges = cfg.num_edges();
    in.range = [cfg](uint64_t lo, uint64_t hi) {
      return graph::generate_lattice_range(cfg, lo, hi);
    };
  }
  // Endpoints of the first edges: roots inside the giant component.
  for (const Edge& e : in.range(0, 3)) in.roots.push_back(e.u);
  return in;
}

/// Gathered (global-order) parents of each 1D engine from one root.
struct OneDParents {
  std::vector<Vertex> bfs1d, msbfs, async;
};

OneDParents run_one_d_engines(sim::RankContext& ctx,
                              const partition::Part1d& part, Vertex root,
                              int threads) {
  auto gather = [&](const Vertex* p) {
    return ctx.world.allgatherv(
        std::span<const Vertex>(p, part.space.count(ctx.rank)));
  };
  bfs::Bfs1dOptions o1;
  o1.threads_per_rank = threads;
  service::MsbfsOptions om;
  om.threads_per_rank = threads;
  bfs::BfsAsyncOptions oa;
  oa.threads_per_rank = threads;
  const Vertex roots[1] = {root};
  OneDParents got;
  got.bfs1d = gather(bfs::bfs1d_run(ctx, part, root, o1).parent.data());
  got.msbfs = gather(service::msbfs_run(ctx, part, roots, om).parent.data());
  got.async = gather(bfs::bfsasync_run(ctx, part, root, oa).parent.data());
  return got;
}

/// Every row of the partition is non-increasing.
bool rows_descending(const partition::Part1d& part) {
  for (uint64_t r = 0; r < part.adj.num_rows(); ++r) {
    auto nb = part.adj.neighbors(r);
    if (!std::is_sorted(nb.begin(), nb.end(), std::greater<Vertex>()))
      return false;
  }
  return true;
}

/// Runs the three engines from every root of `in` on each rank's 1D
/// partition, after `patch` (may be a no-op) has mutated it; checks the
/// rows stay descending and returns the rank-0 parents per root.
std::vector<OneDParents> one_d_parents(
    const OneDCase& c, const OneDInput& in,
    const std::function<void(sim::RankContext&, partition::Part1d&)>& patch) {
  sim::MeshShape mesh{c.rows, c.cols};
  partition::VertexSpace space{in.nv, mesh.ranks()};
  std::vector<OneDParents> out;
  std::vector<int> sorted(size_t(mesh.ranks()), 0);
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto part = partition::build_1d(ctx, space, in.slice(ctx.rank,
                                                         ctx.nranks()));
    patch(ctx, part);
    sorted[size_t(ctx.rank)] = rows_descending(part);
    std::vector<OneDParents> got;
    for (Vertex root : in.roots)
      got.push_back(run_one_d_engines(ctx, part, root, c.threads));
    if (ctx.rank == 0) out = std::move(got);
  });
  for (int r = 0; r < mesh.ranks(); ++r)
    EXPECT_TRUE(sorted[size_t(r)]) << "rank " << r << " holds an unsorted row";
  return out;
}

void expect_one_parent_rule(const OneDInput& in, std::span<const Edge> edges,
                            const std::vector<OneDParents>& got) {
  ASSERT_EQ(got.size(), in.roots.size());
  auto adj = adjacency_of(in.nv, edges);
  for (size_t i = 0; i < in.roots.size(); ++i) {
    const Vertex root = in.roots[i];
    auto levels = graph::levels_from_parents(
        in.nv, graph::reference_bfs(in.nv, edges, root), root);
    auto want = canonical_parents(in.nv, adj, levels, root);
    for (uint64_t v = 0; v < in.nv; ++v) {
      ASSERT_EQ(got[i].bfs1d[v], want[v]) << "bfs1d, root " << root
                                          << " vertex " << v;
      ASSERT_EQ(got[i].msbfs[v], want[v]) << "msbfs, root " << root
                                          << " vertex " << v;
      ASSERT_EQ(got[i].async[v], want[v]) << "bfsasync, root " << root
                                          << " vertex " << v;
    }
  }
}

class OneDParentRule : public ::testing::TestWithParam<OneDCase> {};

TEST_P(OneDParentRule, EnginesReturnIdenticalParents) {
  const OneDInput in = one_d_input(GetParam());
  auto got = one_d_parents(GetParam(), in,
                           [](sim::RankContext&, partition::Part1d&) {});
  expect_one_parent_rule(in, in.all(), got);
}

// Inserts into the zero-slack rows of a fresh build compact the CSR; a
// forced compact and a second batch follow.  Rows must stay descending and
// the engines must still agree on the mutated graph.
TEST_P(OneDParentRule, EnginesAgreeAfterMutation) {
  const OneDInput in = one_d_input(GetParam());
  const std::vector<Edge> base = in.all();
  mutate::MutationLogConfig lc;
  lc.seed = 17;
  lc.inserts_per_batch = 48;
  lc.deletes_per_batch = 48;
  mutate::MutationLog reference(lc, in.nv, base);
  reference.generate_next();
  reference.generate_next();

  std::vector<mutate::ApplyStats> stats(
      size_t(GetParam().rows * GetParam().cols));
  auto got = one_d_parents(
      GetParam(), in, [&](sim::RankContext& ctx, partition::Part1d& part) {
        mutate::MutationLog log(lc, in.nv, base);
        auto& s = stats[size_t(ctx.rank)];
        s.merge(mutate::apply_batch_1d(ctx.rank, part, log.generate_next()));
        part.adj.compact();
        s.merge(mutate::apply_batch_1d(ctx.rank, part, log.generate_next()));
      });
  mutate::ApplyStats total;
  for (const auto& s : stats) total.merge(s);
  EXPECT_GT(total.inserted_arcs, 0u);
  EXPECT_GT(total.deleted_arcs, 0u);
  EXPECT_GT(total.compactions, 0u);
  expect_one_parent_rule(in, reference.snapshot(), got);
}

INSTANTIATE_TEST_SUITE_P(SeededConfigs, OneDParentRule,
                         ::testing::ValuesIn(one_d_cases()), one_d_case_name);

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
  auto adj = adjacency_of(cfg.num_vertices(), edges);
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

// ------------------------------- 1.5D self-delivery

// The 1.5D engine applies every message addressed to its own rank in place
// instead of staging it (bfs15d.cpp).  Parents must not move: the values
// below were pinned from the engine that still staged self traffic.
uint64_t parent_checksum(std::span<const Vertex> parent) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a over every parent word
  for (Vertex p : parent) {
    h ^= uint64_t(p);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(SelfDelivery15d, ParentsEqualPinnedValuesAtEveryShapeAndWidth) {
  struct Pin {
    int scale, rows, cols;
    uint64_t checksum;
  };
  const Pin pins[] = {
      {12, 1, 1, 1563537233804835887ull},
      {12, 1, 2, 1996494107671278732ull},
      {12, 2, 2, 5042509656187836668ull},
      {12, 2, 3, 3512858748038564794ull},
      {14, 1, 1, 4493961556661606115ull},
      {14, 1, 2, 15394845622418228527ull},
      {14, 2, 2, 10989127064905534956ull},
      {14, 2, 3, 6520894626536606367ull},
  };
  for (const Pin& pin : pins) {
    Graph500Config cfg;
    cfg.scale = pin.scale;
    cfg.seed = 5;
    const Vertex root = pick_root(cfg);
    for (int threads : {1, 2, 4})
      EXPECT_EQ(parent_checksum(run_15d(cfg, {pin.rows, pin.cols}, root,
                                        threads, true)),
                pin.checksum)
          << "SCALE " << pin.scale << " " << pin.rows << "x" << pin.cols
          << " threads " << threads;
  }
}

TEST(SelfDelivery15d, OneRankSearchStagesNoAlltoallvMessage) {
  // At 1x1 every exchange is to self, so nothing is staged or encoded;
  // the exchanges still run (empty), so call counts, and with them fault
  // call indices, equal the staging engine's.
  Graph500Config cfg;
  cfg.scale = 12;
  cfg.seed = 5;
  const Vertex root = pick_root(cfg);
  partition::VertexSpace space{cfg.num_vertices(), 1};
  sim::run_spmd(sim::MeshShape{1, 1}, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, 0, 1);
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    ThreadPool pool(2);
    auto part = partition::build_15d(ctx, space, slice, deg, {128, 32}, pool);
    bfs::Bfs15dOptions opts;
    opts.threads_per_rank = 2;
    ctx.stats.reset();
    bfs::bfs15d_run(ctx, part, root, opts);
    uint64_t staged = 0;
    for (int c = 0; c < sim::kWireCodecCount; ++c)
      staged += ctx.stats
                    .encoding_entry(sim::CollectiveType::Alltoallv,
                                    sim::WireCodec(c))
                    .messages;
    EXPECT_EQ(staged, 0u);
    EXPECT_EQ(ctx.stats.entry(sim::CollectiveType::Alltoallv).calls, 10u);
    EXPECT_EQ(ctx.stats.entry(sim::CollectiveType::Allgather).calls, 8u);
  });
}

// ------------------------------- 1D level loop: pinned control decisions

// bfs1d and MS-BFS share one level loop (bfs/level_loop.hpp).  Its control
// decisions show in the collective counts: an exact count is one allreduce,
// a push level one alltoallv carrying the rider, a pull level one
// allgather, and a rollback replays levels.  The values below were pinned
// from the engines that each kept their own loop; they must not move at any
// thread count, and a rank failure under Recover at the level after a push
// level (the level that starts from the carried bound) must replay to the
// same pins each time, with the fault-free parents.
struct ControlCounts {
  int iterations = 0;  // rank 0's; every other field is a total over ranks
  uint64_t allreduce_calls = 0, allreduce_bytes = 0;
  uint64_t alltoallv_calls = 0, alltoallv_bytes = 0;
  uint64_t allgather_calls = 0, allgather_bytes = 0;
  uint64_t rider_bytes = 0;
  uint64_t checksum = 0;  // parent_checksum of the ranks' slices in order
  bool operator==(const ControlCounts&) const = default;
};

void PrintTo(const ControlCounts& c, std::ostream* os) {
  *os << "{" << c.iterations << ", " << c.allreduce_calls << ", "
      << c.allreduce_bytes << ", " << c.alltoallv_calls << ", "
      << c.alltoallv_bytes << ", " << c.allgather_calls << ", "
      << c.allgather_bytes << ", " << c.rider_bytes << ", " << c.checksum
      << "ull}";
}

enum class ControlGraph { Rmat, Torus };

struct ControlPin {
  ControlGraph graph;
  int rows, cols;
  int width;  // 0 runs bfs1d, else MS-BFS with this many roots
  ControlCounts clean, failed;
};

ControlCounts run_control(const ControlPin& pin, int threads, bool fail) {
  Graph500Config rmat;
  rmat.scale = 12;
  rmat.seed = 5;
  const auto torus = graph::LatticeConfig::torus(16, 256);
  const bool is_rmat = pin.graph == ControlGraph::Rmat;
  const uint64_t nv = is_rmat ? rmat.num_vertices() : torus.num_vertices();
  const Vertex root0 = is_rmat ? pick_root(rmat) : 0;
  std::vector<Vertex> roots;
  for (int q = 0; q < std::max(pin.width, 1); ++q)
    roots.push_back(Vertex((uint64_t(root0) + uint64_t(q) * 1237) % nv));

  const sim::MeshShape mesh{pin.rows, pin.cols};
  const int nranks = mesh.ranks();
  partition::VertexSpace space{nv, nranks};
  sim::FaultPlan plan;
  plan.add_rank_failure(nranks - 1, 2);
  sim::SpmdOptions opts;
  if (fail) {
    opts.policy = sim::FaultPolicy::Recover;
    opts.faults = &plan;
  }
  std::vector<ControlCounts> per_rank(static_cast<size_t>(nranks));
  std::vector<std::vector<Vertex>> parents(per_rank.size());
  auto report = sim::run_spmd(sim::Topology(mesh), [&](sim::RankContext& ctx) {
    ctx.faults.armed = false;
    const uint64_t m = is_rmat ? rmat.num_edges() : torus.num_edges();
    const uint64_t lo = m * uint64_t(ctx.rank) / uint64_t(nranks);
    const uint64_t hi = m * uint64_t(ctx.rank + 1) / uint64_t(nranks);
    auto part = partition::build_1d(
        ctx, space,
        is_rmat ? graph::generate_rmat_range(rmat, lo, hi)
                : graph::generate_lattice_range(torus, lo, hi));
    ctx.stats.reset();
    ctx.faults.armed = true;
    ControlCounts& c = per_rank[size_t(ctx.rank)];
    auto& parent = parents[size_t(ctx.rank)];
    if (pin.width == 0) {
      bfs::Bfs1dOptions o;
      o.threads_per_rank = threads;
      auto res = bfs::bfs1d_run(ctx, part, roots[0], o);
      c.iterations = res.num_iterations;
      parent = std::move(res.parent);
    } else {
      service::MsbfsOptions o;
      o.threads_per_rank = threads;
      auto res = service::msbfs_run(ctx, part, roots, o);
      c.iterations = res.num_iterations;
      parent = std::move(res.parent);
    }
    ctx.faults.armed = false;
    auto take = [&](sim::CollectiveType t, uint64_t& calls, uint64_t& bytes) {
      calls = ctx.stats.entry(t).calls;
      bytes = ctx.stats.entry(t).bytes_sent;
      c.rider_bytes += ctx.stats.entry(t).rider_bytes;
    };
    take(sim::CollectiveType::Allreduce, c.allreduce_calls, c.allreduce_bytes);
    take(sim::CollectiveType::Alltoallv, c.alltoallv_calls, c.alltoallv_bytes);
    take(sim::CollectiveType::Allgather, c.allgather_calls, c.allgather_bytes);
  }, opts);
  EXPECT_TRUE(report.ok()) << report.errors.front();
  EXPECT_EQ(report.fault_totals().injected_failures, fail ? 1u : 0u);

  ControlCounts total;
  total.iterations = per_rank[0].iterations;
  std::vector<Vertex> all;
  for (int r = 0; r < nranks; ++r) {
    const ControlCounts& c = per_rank[size_t(r)];
    total.allreduce_calls += c.allreduce_calls;
    total.allreduce_bytes += c.allreduce_bytes;
    total.alltoallv_calls += c.alltoallv_calls;
    total.alltoallv_bytes += c.alltoallv_bytes;
    total.allgather_calls += c.allgather_calls;
    total.allgather_bytes += c.allgather_bytes;
    total.rider_bytes += c.rider_bytes;
    all.insert(all.end(), parents[size_t(r)].begin(), parents[size_t(r)].end());
  }
  total.checksum = parent_checksum(all);
  return total;
}

// Each pin: {iterations, allreduce calls, bytes, alltoallv calls, bytes,
// allgather calls, bytes, rider bytes, parent checksum}, fault-free and then
// with the rank failure.
const ControlPin kControlPins[] = {
    // clang-format off
    {ControlGraph::Rmat, 1, 1, 0,
     {5, 5, 40, 2, 0, 3, 1147, 32, 335848084985522104ull},
     {5, 12, 72, 3, 0, 3, 1147, 48, 335848084985522104ull}},
    {ControlGraph::Rmat, 1, 1, 1,
     {5, 3, 72, 4, 0, 1, 3601, 96, 335848084985522104ull},
     {5, 10, 120, 5, 0, 1, 3601, 120, 335848084985522104ull}},
    {ControlGraph::Rmat, 1, 1, 5,
     {6, 4, 96, 4, 0, 2, 15914, 96, 2795496365110946453ull},
     {6, 12, 148, 5, 0, 2, 15914, 120, 2795496365110946453ull}},
    {ControlGraph::Rmat, 1, 1, 64,
     {6, 4, 96, 4, 0, 2, 65542, 96, 15281411202353945313ull},
     {6, 12, 148, 5, 0, 2, 65542, 120, 15281411202353945313ull}},
    {ControlGraph::Rmat, 2, 2, 0,
     {5, 20, 160, 12, 766, 12, 1169, 192, 335848084985522104ull},
     {5, 52, 304, 16, 1522, 12, 1169, 256, 335848084985522104ull}},
    {ControlGraph::Rmat, 2, 2, 1,
     {5, 16, 384, 20, 204272, 4, 3614, 480, 335848084985522104ull},
     {5, 48, 592, 24, 205912, 4, 3614, 576, 335848084985522104ull}},
    {ControlGraph::Rmat, 2, 2, 5,
     {6, 16, 384, 20, 207740, 8, 15943, 480, 14797133194197748533ull},
     {6, 52, 608, 24, 209512, 8, 15943, 576, 14797133194197748533ull}},
    {ControlGraph::Rmat, 2, 2, 64,
     {6, 16, 384, 20, 680004, 8, 65560, 480, 15246136097888837421ull},
     {6, 52, 608, 24, 685458, 8, 65560, 576, 15246136097888837421ull}},
    {ControlGraph::Rmat, 2, 3, 0,
     {5, 30, 240, 18, 860, 18, 1201, 288, 335848084985522104ull},
     {5, 78, 456, 24, 1710, 18, 1201, 384, 335848084985522104ull}},
    {ControlGraph::Rmat, 2, 3, 1,
     {5, 24, 576, 30, 222836, 6, 3623, 720, 335848084985522104ull},
     {5, 72, 888, 36, 224674, 6, 3623, 864, 335848084985522104ull}},
    {ControlGraph::Rmat, 2, 3, 5,
     {6, 24, 576, 30, 226447, 12, 15960, 720, 13884057462414846845ull},
     {6, 78, 912, 36, 228381, 12, 15960, 864, 13884057462414846845ull}},
    {ControlGraph::Rmat, 2, 3, 64,
     {6, 24, 576, 30, 749290, 12, 65572, 720, 14682439176562439983ull},
     {6, 78, 912, 36, 755556, 12, 65572, 864, 14682439176562439983ull}},
    {ControlGraph::Torus, 1, 1, 0,
     {137, 1, 8, 137, 0, 0, 0, 2192, 15259995753933801468ull},
     {137, 140, 568, 138, 0, 0, 0, 2208, 15259995753933801468ull}},
    {ControlGraph::Torus, 1, 1, 1,
     {137, 1, 24, 137, 0, 0, 0, 3288, 15259995753933801468ull},
     {137, 140, 600, 138, 0, 0, 0, 3312, 15259995753933801468ull}},
    {ControlGraph::Torus, 1, 1, 5,
     {137, 1, 24, 137, 0, 0, 0, 3288, 12418320921042238518ull},
     {137, 140, 600, 138, 0, 0, 0, 3312, 12418320921042238518ull}},
    {ControlGraph::Torus, 1, 1, 64,
     {137, 1, 24, 137, 0, 0, 0, 3288, 22365282984283605ull},
     {137, 140, 600, 138, 0, 0, 0, 3312, 22365282984283605ull}},
    {ControlGraph::Torus, 2, 2, 0,
     {137, 4, 32, 548, 18448, 0, 0, 8768, 15259995753933801468ull},
     {137, 560, 2272, 552, 18458, 0, 0, 8832, 15259995753933801468ull}},
    {ControlGraph::Torus, 2, 2, 1,
     {137, 4, 96, 552, 34832, 0, 0, 13248, 15259995753933801468ull},
     {137, 564, 2416, 556, 34850, 0, 0, 13344, 15259995753933801468ull}},
    {ControlGraph::Torus, 2, 2, 5,
     {137, 4, 96, 552, 45226, 0, 0, 13248, 1321545414572202446ull},
     {137, 564, 2416, 556, 45280, 0, 0, 13344, 1321545414572202446ull}},
    {ControlGraph::Torus, 2, 2, 64,
     {137, 4, 96, 552, 824819, 0, 0, 13248, 13497211159289499837ull},
     {137, 564, 2416, 556, 825363, 0, 0, 13344, 13497211159289499837ull}},
    {ControlGraph::Torus, 2, 3, 0,
     {137, 6, 48, 822, 27736, 0, 0, 13152, 15259995753933801468ull},
     {137, 840, 3408, 828, 27746, 0, 0, 13248, 15259995753933801468ull}},
    {ControlGraph::Torus, 2, 3, 1,
     {137, 6, 144, 828, 52504, 0, 0, 19872, 15259995753933801468ull},
     {137, 846, 3624, 834, 52522, 0, 0, 20016, 15259995753933801468ull}},
    {ControlGraph::Torus, 2, 3, 5,
     {137, 6, 144, 828, 67543, 0, 0, 19872, 12920498884118365378ull},
     {137, 846, 3624, 834, 67615, 0, 0, 20016, 12920498884118365378ull}},
    {ControlGraph::Torus, 2, 3, 64,
     {137, 6, 144, 828, 1253320, 0, 0, 19872, 5749255094805892085ull},
     {137, 846, 3624, 834, 1254128, 0, 0, 20016, 5749255094805892085ull}},
    // clang-format on
};

std::string control_name(const ControlPin& pin, int threads) {
  return std::string(pin.graph == ControlGraph::Rmat ? "rmat" : "torus") +
         " " + std::to_string(pin.rows) + "x" + std::to_string(pin.cols) +
         (pin.width == 0 ? " bfs1d" : " msbfs w" + std::to_string(pin.width)) +
         " threads " + std::to_string(threads);
}

TEST(OneDLevelLoop, ControlCountsEqualPinnedValues) {
  for (const ControlPin& pin : kControlPins)
    for (int threads : {1, 3})
      EXPECT_EQ(run_control(pin, threads, false), pin.clean)
          << control_name(pin, threads);
}

TEST(OneDLevelLoop, RankFailureAfterPushLevelReplaysToPinnedCounts) {
  for (const ControlPin& pin : kControlPins)
    for (int threads : {1, 3}) {
      const ControlCounts got = run_control(pin, threads, true);
      EXPECT_EQ(got, pin.failed) << control_name(pin, threads);
      EXPECT_EQ(got.checksum, pin.clean.checksum)
          << control_name(pin, threads) << ": parents differ from the "
          << "fault-free run";
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
