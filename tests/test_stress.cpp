// Stress, determinism and odd-shape tests: large meshes, unusual chip
// geometries, repeated runs, and smoke tests of the reporting helpers.
#include <gtest/gtest.h>

#include <numeric>

#include "bfs/bfs15d.hpp"
#include "bfs/runner.hpp"
#include "chip/chip.hpp"
#include "graph/rmat.hpp"
#include "partition/part15d.hpp"
#include "sim/runtime.hpp"
#include "sort/ocs_rma.hpp"
#include "support/log.hpp"
#include "support/random.hpp"

namespace sunbfs {
namespace {

using graph::Graph500Config;
using graph::Vertex;

TEST(RuntimeStress, SixtyFourRanksStayCoherent) {
  sim::MeshShape mesh{8, 8};
  auto report = sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    // Mixed collective workload with value checks.
    for (int i = 0; i < 5; ++i) {
      int sum = ctx.world.allreduce_sum(1);
      ASSERT_EQ(sum, 64);
      auto row = ctx.row.allgather(ctx.rank);
      ASSERT_EQ(row.size(), 8u);
      for (size_t c = 0; c < row.size(); ++c)
        ASSERT_EQ(row[c], ctx.mesh.rank_of(ctx.row_index(), int(c)));
      std::vector<std::vector<uint16_t>> to(64);
      to[size_t((ctx.rank + i) % 64)].push_back(uint16_t(ctx.rank));
      auto got = ctx.world.alltoallv(to);
      ASSERT_EQ(got.size(), 1u);
      ASSERT_EQ(int(got[0]), (ctx.rank - i + 128) % 64);
    }
  });
  EXPECT_EQ(report.per_rank.size(), 64u);
  EXPECT_GT(report.aggregate().total_bytes_sent(), 0u);
}

TEST(RuntimeStress, BfsOnWideMesh) {
  Graph500Config cfg;
  cfg.scale = 12;
  cfg.seed = 77;
  sim::MeshShape mesh{5, 5};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  Vertex root = graph::generate_rmat_range(cfg, 0, 1)[0].u;
  std::vector<Vertex> parent;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    uint64_t m = cfg.num_edges();
    auto slice = graph::generate_rmat_range(
        cfg, m * uint64_t(ctx.rank) / uint64_t(ctx.nranks()),
        m * uint64_t(ctx.rank + 1) / uint64_t(ctx.nranks()));
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    ThreadPool pool(2);
    auto part = partition::build_15d(ctx, space, slice, deg, {512, 64}, pool);
    auto res = bfs::bfs15d_run(ctx, part, root);
    auto gathered = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    if (ctx.rank == 0) parent = std::move(gathered);
  });
  auto edges = graph::generate_rmat(cfg);
  auto v = graph::validate_bfs(cfg.num_vertices(), edges, root, parent);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(Determinism, PartitionBuildsIdenticallyTwice) {
  // Every rank sorts on a pool of its own, several ranks at once.  Two
  // builds at one width match, and so do builds at 1 and 4 threads per
  // rank: every 1.5D component CSR on every rank.
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 5;
  sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  using Components =
      std::vector<std::pair<std::vector<uint64_t>, std::vector<Vertex>>>;
  auto build_once = [&](size_t threads_per_rank) {
    std::vector<Components> per_rank(size_t(mesh.ranks()));
    sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
      ThreadPool pool(threads_per_rank);
      uint64_t m = cfg.num_edges();
      auto slice = graph::generate_rmat_range(
          cfg, m * uint64_t(ctx.rank) / uint64_t(ctx.nranks()),
          m * uint64_t(ctx.rank + 1) / uint64_t(ctx.nranks()));
      auto deg = partition::compute_local_degrees(ctx, space, slice);
      auto part =
          partition::build_15d(ctx, space, slice, deg, {128, 32}, pool);
      Components& out = per_rank[size_t(ctx.rank)];
      for (const graph::Csr* c :
           {&part.eh2eh, &part.eh2eh_rev, &part.e2l, &part.l2e, &part.h2l,
            &part.h2l_by_l, &part.l2h, &part.l2l})
        out.emplace_back(c->offsets(), c->values());
    });
    return per_rank;
  };
  const auto two = build_once(2);
  EXPECT_EQ(two, build_once(2));
  const auto one = build_once(1);
  EXPECT_EQ(one, build_once(4));
  EXPECT_EQ(one, two);
}

TEST(Determinism, BfsParentsIdenticalAcrossRuns) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 6;
  sim::MeshShape mesh{2, 3};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  Vertex root = graph::generate_rmat_range(cfg, 2, 3)[0].u;
  auto run_once = [&] {
    std::vector<Vertex> parent;
    sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
      uint64_t m = cfg.num_edges();
      auto slice = graph::generate_rmat_range(
          cfg, m * uint64_t(ctx.rank) / uint64_t(ctx.nranks()),
          m * uint64_t(ctx.rank + 1) / uint64_t(ctx.nranks()));
      auto deg = partition::compute_local_degrees(ctx, space, slice);
      ThreadPool pool(2);
      auto part = partition::build_15d(ctx, space, slice, deg, {128, 32}, pool);
      auto res = bfs::bfs15d_run(ctx, part, root);
      auto gathered =
          ctx.world.allgatherv(std::span<const Vertex>(res.parent));
      if (ctx.rank == 0) parent = std::move(gathered);
    });
    return parent;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ChipStress, WideCgGeometryRunsOcs) {
  chip::Chip chip(chip::Geometry{3, 32, 32 * 1024});
  Xoshiro256StarStar rng(9);
  std::vector<uint64_t> in(30000);
  for (auto& x : in) x = rng.next();
  std::vector<uint64_t> out(in.size());
  sort::OcsParams params;
  params.buffer_bytes = 256;
  auto res = sort::ocs_rma_bucket_sort<uint64_t>(
      chip, in, std::span(out), 64, [](uint64_t v) { return uint32_t(v & 63); },
      -1, params);
  EXPECT_EQ(res.offsets.back(), in.size());
  std::multiset<uint64_t> a(in.begin(), in.end()), b(out.begin(), out.end());
  EXPECT_EQ(a, b);
}

TEST(ChipStress, MinimalTwoCpeGeometry) {
  // One producer, one consumer: the degenerate OCS pipe still works.
  chip::Chip chip(chip::Geometry{1, 2, 8 * 1024});
  std::vector<uint64_t> in(1000);
  std::iota(in.begin(), in.end(), 0);
  std::vector<uint64_t> out(in.size());
  sort::OcsParams params;
  params.buffer_bytes = 128;
  auto res = sort::ocs_rma_bucket_sort<uint64_t>(
      chip, in, std::span(out), 4, [](uint64_t v) { return uint32_t(v % 4); },
      1, params);
  for (uint32_t b = 0; b < 4; ++b)
    for (uint64_t i = res.offsets[b]; i < res.offsets[b + 1]; ++i)
      ASSERT_EQ(out[i] % 4, b);
}

TEST(ChipStress, RepeatedKernelsReuseLdmCleanly) {
  chip::Chip chip(chip::Geometry::tiny());
  for (int round = 0; round < 10; ++round) {
    auto report = chip.run(
        [&](chip::CpeContext& cpe) {
          cpe.ldm().reset_alloc();
          size_t off = cpe.ldm().alloc(1024);
          cpe.ldm().as<uint64_t>(off)[0] = uint64_t(round);
          cpe.sync_cg();
        },
        1);
    EXPECT_GT(report.max_cycles, 0.0);
  }
}

TEST(Reporting, ToStringSmoke) {
  sim::Topology topo(sim::MeshShape{2, 2});
  EXPECT_NE(topo.to_string().find("supernodes"), std::string::npos);
  sim::CommStats stats;
  stats.record(sim::CollectiveType::Alltoallv, 100, 50, 0.1, 0.2, 0.02, 0.05);
  EXPECT_NE(stats.to_string().find("alltoallv"), std::string::npos);
  Log2Histogram h;
  h.add(5);
  EXPECT_FALSE(h.to_string().empty());
}

TEST(Reporting, LogLevelsFilter) {
  LogLevel old = log_level();
  set_log_level(LogLevel::Error);
  log_info("should be dropped");
  log_error("shown");
  set_log_level(old);
  SUCCEED();
}

TEST(Determinism, RootSelectionIgnoresMeshShape) {
  // The same (seed, scale) must pick the same keys on any mesh.
  bfs::RunnerConfig a;
  a.graph.scale = 9;
  a.num_roots = 3;
  a.root_seed = 5;
  a.validate = false;
  auto r1 = bfs::run_graph500(sim::Topology(sim::MeshShape{1, 2}), a);
  auto r2 = bfs::run_graph500(sim::Topology(sim::MeshShape{3, 2}), a);
  for (size_t i = 0; i < 3; ++i)
    EXPECT_EQ(r1.runs[i].root, r2.runs[i].root);
}

}  // namespace
}  // namespace sunbfs
