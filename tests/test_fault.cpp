// Fault-injection framework tests: deterministic plans, payload checksums,
// per-collective corruption detection, policy semantics (abort / report /
// recover), multi-rank error collection, and end-to-end checkpointed BFS
// recovery that must reproduce the fault-free parent array bit for bit.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <span>
#include <utility>

#include "analytics/sssp.hpp"
#include "bfs/bfs15d.hpp"
#include "bfs/bfs1d.hpp"
#include "bfs/bfsasync.hpp"
#include "bfs/runner.hpp"
#include "graph/lattice.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part15d.hpp"
#include "partition/part1d.hpp"
#include "service/msbfs.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "support/check.hpp"
#include "support/random.hpp"

namespace sunbfs::sim {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::Vertex;
using graph::kNoVertex;

// ---- checksum / plan / backoff primitives ----------------------------------

TEST(Checksum, DistinguishesPayloads) {
  uint64_t a[4] = {1, 2, 3, 4};
  uint64_t sum = checksum64(a, sizeof(a));
  EXPECT_EQ(checksum64(a, sizeof(a)), sum);  // deterministic
  a[2] ^= 0x10;                              // one flipped bit
  EXPECT_NE(checksum64(a, sizeof(a)), sum);
  a[2] ^= 0x10;
  EXPECT_NE(checksum64(a, sizeof(a) - 1), sum);  // truncation detected
  EXPECT_EQ(checksum64(a, sizeof(a)), sum);      // restored
  EXPECT_EQ(checksum64(nullptr, 0), checksum64(nullptr, 0));
}

TEST(FaultPlanTest, QueriesMatchExactKeys) {
  FaultPlan plan;
  plan.add_straggler(1, CollectiveType::Allreduce, 3, 1e-3)
      .add_bitflip(2, CollectiveType::Alltoallv, 5)
      .add_rank_failure(0, 2);
  EXPECT_NE(plan.straggler(1, CollectiveType::Allreduce, 3), nullptr);
  EXPECT_EQ(plan.straggler(1, CollectiveType::Allreduce, 4), nullptr);
  EXPECT_EQ(plan.straggler(0, CollectiveType::Allreduce, 3), nullptr);
  EXPECT_NE(plan.payload(2, CollectiveType::Alltoallv, 5), nullptr);
  EXPECT_EQ(plan.payload(2, CollectiveType::Allgather, 5), nullptr);
  ASSERT_EQ(plan.rank_failures().size(), 1u);
  EXPECT_EQ(plan.rank_failures()[0].level, 2);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(FaultPlan{}.empty());
}

TEST(FaultPlanTest, RandomIsDeterministic) {
  FaultPlan a = FaultPlan::random(9, 8, 2, 3, 1);
  FaultPlan b = FaultPlan::random(9, 8, 2, 3, 1);
  EXPECT_EQ(a.to_string(), b.to_string());
  FaultPlan c = FaultPlan::random(10, 8, 2, 3, 1);
  EXPECT_NE(a.to_string(), c.to_string());
  EXPECT_EQ(a.rank_failures().size(), 1u);
}

TEST(Backoff, ExponentialAndCapped) {
  // The fixed schedule: 0.5 ms doubling per retry, capped at 8 ms.
  EXPECT_DOUBLE_EQ(backoff_delay_s(1), 0.5e-3);
  EXPECT_DOUBLE_EQ(backoff_delay_s(2), 1e-3);
  EXPECT_DOUBLE_EQ(backoff_delay_s(3), 2e-3);
  EXPECT_DOUBLE_EQ(backoff_delay_s(4), 4e-3);
  EXPECT_DOUBLE_EQ(backoff_delay_s(5), 8e-3);
  EXPECT_DOUBLE_EQ(backoff_delay_s(6), 8e-3);  // capped
  EXPECT_DOUBLE_EQ(backoff_delay_s(20), 8e-3);
}

// ---- per-collective corruption detection -----------------------------------

/// Run `body` on a 1xN mesh under `plan` / `policy` and return the report.
/// Bodies are armed from the start (FaultState::armed defaults to true).
SpmdReport run_with_plan(int nranks, const FaultPlan& plan, FaultPolicy policy,
                         const std::function<void(RankContext&)>& body) {
  Topology topo(MeshShape{1, nranks});
  SpmdOptions opts;
  opts.policy = policy;
  opts.faults = &plan;
  return run_spmd(topo, body, opts);
}

TEST(FaultDetect, AllreduceBitFlipReported) {
  FaultPlan plan;
  plan.add_bitflip(1, CollectiveType::Allreduce, 0);
  auto report = run_with_plan(4, plan, FaultPolicy::Report,
                              [&](RankContext& ctx) {
                                ctx.world.allreduce_sum(uint64_t(ctx.rank));
                              });
  EXPECT_FALSE(report.ok());
  auto f = report.fault_totals();
  EXPECT_EQ(f.injected_corruptions, 1u);
  EXPECT_GE(f.detected, 1u);
  // The error names the corrupting and detecting ranks.
  ASSERT_FALSE(report.errors.empty());
  EXPECT_NE(report.errors[0].find("from rank 1"), std::string::npos)
      << report.errors[0];
}

TEST(FaultDetect, AllreduceBitFlipAbortThrows) {
  FaultPlan plan;
  plan.add_bitflip(0, CollectiveType::Allreduce, 0);
  EXPECT_THROW(run_with_plan(4, plan, FaultPolicy::Abort,
                             [&](RankContext& ctx) {
                               ctx.world.allreduce_sum(uint64_t(ctx.rank));
                             }),
               FaultDetected);
}

TEST(FaultDetect, AllgatherBitFlipReported) {
  FaultPlan plan;
  plan.add_bitflip(2, CollectiveType::Allgather, 0);
  auto report = run_with_plan(4, plan, FaultPolicy::Report,
                              [&](RankContext& ctx) {
                                ctx.world.allgather(uint64_t(ctx.rank) + 7);
                              });
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.fault_totals().injected_corruptions, 1u);
  EXPECT_GE(report.fault_totals().detected, 1u);
}

TEST(FaultDetect, AllgathervTruncateReported) {
  FaultPlan plan;
  plan.add_truncate(1, CollectiveType::Allgather, 0);
  auto report = run_with_plan(
      4, plan, FaultPolicy::Report, [&](RankContext& ctx) {
        std::vector<uint64_t> mine(size_t(ctx.rank) + 1, uint64_t(ctx.rank));
        ctx.world.allgatherv(std::span<const uint64_t>(mine));
      });
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.fault_totals().detected, 1u);
}

TEST(FaultDetect, AlltoallvBitFlipDetectedByTargetPeer) {
  FaultPlan plan;
  plan.add_bitflip(0, CollectiveType::Alltoallv, 0, /*peer=*/2);
  auto report = run_with_plan(
      4, plan, FaultPolicy::Report, [&](RankContext& ctx) {
        std::vector<std::vector<uint64_t>> to(4);
        for (int d = 0; d < 4; ++d)
          to[size_t(d)] = {uint64_t(ctx.rank * 10 + d)};
        ctx.world.alltoallv(to);
      });
  EXPECT_FALSE(report.ok());
  auto f = report.fault_totals();
  EXPECT_EQ(f.injected_corruptions, 1u);
  // Point-to-point corruption: only the addressed peer sees the mismatch.
  EXPECT_EQ(f.detected, 1u);
  ASSERT_EQ(report.errors.size(), 1u);
  EXPECT_NE(report.errors[0].find("rank 2"), std::string::npos);
}

TEST(FaultDetect, ReduceScatterBitFlipReported) {
  FaultPlan plan;
  plan.add_bitflip(1, CollectiveType::ReduceScatter, 0);
  auto report = run_with_plan(
      4, plan, FaultPolicy::Report, [&](RankContext& ctx) {
        std::vector<uint64_t> contrib(8, uint64_t(ctx.rank));
        ctx.world.reduce_scatter_block(
            std::span<const uint64_t>(contrib), 2,
            [](uint64_t a, uint64_t b) { return a + b; });
      });
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.fault_totals().detected, 1u);
}

TEST(FaultDetect, AllreduceInplaceBitFlipReported) {
  FaultPlan plan;
  plan.add_bitflip(3, CollectiveType::Allreduce, 0);
  auto report = run_with_plan(
      4, plan, FaultPolicy::Report, [&](RankContext& ctx) {
        std::vector<uint64_t> words(16, uint64_t(1) << ctx.rank);
        ctx.world.allreduce_inplace(std::span<uint64_t>(words),
                                    [](uint64_t a, uint64_t b) {
                                      return a | b;
                                    });
      });
  EXPECT_FALSE(report.ok());
  EXPECT_GE(report.fault_totals().detected, 1u);
}

TEST(FaultDetect, StragglerDelaysButDoesNotFail) {
  FaultPlan plan;
  plan.add_straggler(1, CollectiveType::Allreduce, 0, 2e-3);
  auto report = run_with_plan(4, plan, FaultPolicy::Report,
                              [&](RankContext& ctx) {
                                uint64_t s =
                                    ctx.world.allreduce_sum(uint64_t(1));
                                EXPECT_EQ(s, 4u);
                              });
  EXPECT_TRUE(report.ok());
  auto f = report.fault_totals();
  EXPECT_EQ(f.injected_stragglers, 1u);
  EXPECT_GE(f.straggler_delay_s, 2e-3);
  EXPECT_EQ(f.detected, 0u);
}

TEST(FaultDetect, ChecksumsRecordedIntoCommStats) {
  FaultPlan plan;  // installed but empty: checksums on (Auto), nothing fires
  auto report = run_with_plan(4, plan, FaultPolicy::Report,
                              [&](RankContext& ctx) {
                                ctx.world.allreduce_sum(uint64_t(ctx.rank));
                              });
  EXPECT_TRUE(report.ok());
  EXPECT_GT(report.aggregate().checksums_verified(), 0u);
  EXPECT_EQ(report.aggregate().checksum_mismatches(), 0u);
}

// ---- size assertions without checksums (the bugfix surface) ----------------

TEST(FaultDetect, TruncationWithoutChecksumsTripsSizeCheck) {
  // With checksums forced off, a truncated alltoallv payload must still be
  // rejected by the received-size/divisibility assertions, naming both ranks.
  FaultPlan plan;
  plan.add_truncate(1, CollectiveType::Alltoallv, 0, /*peer=*/0);
  Topology topo(MeshShape{1, 4});
  SpmdOptions opts;
  opts.policy = FaultPolicy::Abort;
  opts.faults = &plan;
  opts.checksums = ChecksumMode::Off;
  try {
    run_spmd(
        topo,
        [&](RankContext& ctx) {
          std::vector<std::vector<uint64_t>> to(4);
          for (int d = 0; d < 4; ++d)
            to[size_t(d)] = {uint64_t(ctx.rank), uint64_t(d)};
          ctx.world.alltoallv(to);
        },
        opts);
    FAIL() << "truncated payload was accepted";
  } catch (const CheckError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;  // sender
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;  // receiver
  }
}

TEST(FaultDetect, AllgathervTruncationWithoutChecksumsTripsSizeCheck) {
  FaultPlan plan;
  plan.add_truncate(2, CollectiveType::Allgather, 0);
  Topology topo(MeshShape{1, 4});
  SpmdOptions opts;
  opts.policy = FaultPolicy::Abort;
  opts.faults = &plan;
  opts.checksums = ChecksumMode::Off;
  EXPECT_THROW(run_spmd(
                   topo,
                   [&](RankContext& ctx) {
                     std::vector<uint64_t> mine(3, uint64_t(ctx.rank));
                     ctx.world.allgatherv(std::span<const uint64_t>(mine));
                   },
                   opts),
               CheckError);
}

// ---- multi-rank error collection (the run_spmd bugfix) ---------------------

TEST(SpmdErrors, EveryFailingRankMessageCollected) {
  Topology topo(MeshShape{1, 4});
  SpmdOptions opts;
  opts.policy = FaultPolicy::Report;
  auto report = run_spmd(
      topo,
      [&](RankContext& ctx) {
        if (ctx.rank == 1) throw std::runtime_error("boom on one");
        if (ctx.rank == 3) throw std::runtime_error("boom on three");
        // Other ranks park in a barrier and get aborted.
        ctx.world.barrier();
        ctx.world.barrier();
      },
      opts);
  ASSERT_EQ(report.errors.size(), 2u);
  EXPECT_NE(report.errors[0].find("rank 1: boom on one"), std::string::npos);
  EXPECT_NE(report.errors[1].find("rank 3: boom on three"), std::string::npos);
  EXPECT_FALSE(report.ok());
}

TEST(SpmdErrors, AbortPolicyStillRethrows) {
  Topology topo(MeshShape{1, 2});
  EXPECT_THROW(
      run_spmd(topo,
               [&](RankContext& ctx) {
                 if (ctx.rank == 0) throw std::runtime_error("first");
                 ctx.world.barrier();
               }),
      std::runtime_error);
}

// ---- recover policy: drops stay consistent ---------------------------------

TEST(FaultRecover, AllreduceDropIsReplicatedAcrossRanks) {
  FaultPlan plan;
  plan.add_bitflip(1, CollectiveType::Allreduce, 0);
  std::array<uint64_t, 4> sums{};
  auto report = run_with_plan(4, plan, FaultPolicy::Recover,
                              [&](RankContext& ctx) {
                                sums[size_t(ctx.rank)] =
                                    ctx.world.allreduce_sum(uint64_t(100));
                                EXPECT_TRUE(ctx.faults.take_pending());
                              });
  EXPECT_TRUE(report.ok());  // nothing threw; detection was deferred
  // Every rank folded the same surviving contributions (rank 1 dropped).
  for (int r = 0; r < 4; ++r) EXPECT_EQ(sums[size_t(r)], 300u);
  EXPECT_GE(report.fault_totals().detected, 1u);
}

TEST(FaultRecover, AlltoallvDropAppearsEmptyOnlyAtTarget) {
  FaultPlan plan;
  plan.add_bitflip(0, CollectiveType::Alltoallv, 0, /*peer=*/1);
  std::array<size_t, 4> received{};
  auto report = run_with_plan(
      4, plan, FaultPolicy::Recover, [&](RankContext& ctx) {
        std::vector<std::vector<uint64_t>> to(4);
        for (int d = 0; d < 4; ++d) to[size_t(d)] = {uint64_t(ctx.rank)};
        received[size_t(ctx.rank)] = ctx.world.alltoallv(to).size();
      });
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(received[1], 3u);  // rank 0's corrupted message dropped
  EXPECT_EQ(received[0], 4u);
  EXPECT_EQ(received[2], 4u);
  EXPECT_EQ(received[3], 4u);
}

// ---- end-to-end: resilient checkpointed BFS --------------------------------

std::vector<Edge> slice_of(const Graph500Config& cfg, int rank, int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_rmat_range(cfg, m * uint64_t(rank) / uint64_t(nranks),
                                    m * uint64_t(rank + 1) / uint64_t(nranks));
}

Vertex pick_root(const Graph500Config& cfg) {
  auto edges = graph::generate_rmat_range(cfg, 0, 1);
  return edges[0].u;
}

/// Run the 1.5D engine under `options` and return the assembled global
/// parent array (empty when the run failed).
std::vector<Vertex> run_15d_parents(const Graph500Config& cfg,
                                    sim::MeshShape mesh, Vertex root,
                                    const SpmdOptions& options,
                                    FaultStats* totals = nullptr,
                                    const bfs::Bfs15dOptions& bfs_opts = {}) {
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  partition::DegreeThresholds th;
  th.e = 2048;
  th.h = 64;
  std::vector<Vertex> global_parent;
  Topology topo(mesh);
  auto report = run_spmd(
      topo,
      [&](sim::RankContext& ctx) {
        ctx.faults.armed = false;  // setup runs fault-free, as in the runner
        auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
        auto deg = partition::compute_local_degrees(ctx, space, slice);
        ThreadPool pool(2);
        auto part = partition::build_15d(ctx, space, slice, deg, th, pool);
        ctx.faults.armed = true;
        auto res = bfs::bfs15d_run(ctx, part, root, bfs_opts);
        ctx.faults.armed = false;
        auto gathered =
            ctx.world.allgatherv(std::span<const Vertex>(res.parent));
        if (ctx.rank == 0) global_parent = std::move(gathered);
      },
      options);
  if (totals) *totals = report.fault_totals();
  if (!report.ok()) return {};
  return global_parent;
}

TEST(FaultRecovery, RankFailureAtLevelTwoRecoversBitForBit) {
  Graph500Config cfg;
  cfg.scale = 14;
  cfg.seed = 5;
  sim::MeshShape mesh{2, 2};
  Vertex root = pick_root(cfg);

  auto clean = run_15d_parents(cfg, mesh, root, SpmdOptions{});
  ASSERT_FALSE(clean.empty());

  FaultPlan plan;
  plan.add_rank_failure(1, 2);
  SpmdOptions opts;
  opts.policy = FaultPolicy::Recover;
  opts.faults = &plan;
  FaultStats totals;
  auto recovered = run_15d_parents(cfg, mesh, root, opts, &totals);
  ASSERT_FALSE(recovered.empty());

  EXPECT_EQ(totals.injected_failures, 1u);
  EXPECT_GT(totals.retries, 0u);
  EXPECT_GT(totals.recovered, 0u);
  EXPECT_GT(totals.backoff_s, 0.0);

  // The recovered run must be indistinguishable from the fault-free one.
  ASSERT_EQ(clean.size(), recovered.size());
  EXPECT_EQ(clean, recovered);
  auto edges = graph::generate_rmat(cfg);
  auto v = graph::validate_bfs(cfg.num_vertices(), edges, root, recovered);
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(FaultRecovery, CorruptionMidSearchRecoversBitForBit) {
  Graph500Config cfg;
  cfg.scale = 12;
  cfg.seed = 11;
  sim::MeshShape mesh{2, 2};
  Vertex root = pick_root(cfg);

  auto clean = run_15d_parents(cfg, mesh, root, SpmdOptions{});
  ASSERT_FALSE(clean.empty());

  FaultPlan plan;
  plan.add_bitflip(0, CollectiveType::Alltoallv, 1)
      .add_truncate(2, CollectiveType::Allgather, 2);
  SpmdOptions opts;
  opts.policy = FaultPolicy::Recover;
  opts.faults = &plan;
  FaultStats totals;
  auto recovered = run_15d_parents(cfg, mesh, root, opts, &totals);
  ASSERT_FALSE(recovered.empty());
  EXPECT_GE(totals.injected_corruptions, 1u);
  EXPECT_GE(totals.detected, 1u);
  EXPECT_EQ(clean, recovered);
}

TEST(FaultRecovery, Bfs1dRankFailureRecovers) {
  Graph500Config cfg;
  cfg.scale = 12;
  cfg.seed = 7;
  sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  Vertex root = pick_root(cfg);

  FaultPlan plan;
  plan.add_rank_failure(2, 2);
  SpmdOptions opts;
  opts.policy = FaultPolicy::Recover;
  opts.faults = &plan;
  std::vector<Vertex> global_parent;
  Topology topo(mesh);
  auto report = run_spmd(
      topo,
      [&](sim::RankContext& ctx) {
        ctx.faults.armed = false;
        auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
        auto part = partition::build_1d(ctx, space, slice);
        ctx.faults.armed = true;
        auto res = bfs::bfs1d_run(ctx, part, root, {});
        ctx.faults.armed = false;
        auto gathered =
            ctx.world.allgatherv(std::span<const Vertex>(res.parent));
        if (ctx.rank == 0) global_parent = std::move(gathered);
      },
      opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.fault_totals().injected_failures, 1u);
  EXPECT_GT(report.fault_totals().retries, 0u);
  auto edges = graph::generate_rmat(cfg);
  auto v = graph::validate_bfs(cfg.num_vertices(), edges, root, global_parent);
  EXPECT_TRUE(v.ok) << v.error;
}

// A rollback discards the bound a push level carried for the next one
// (sim::Rider), so the replayed level counts its frontier exactly.  On a
// lattice every level pushes, and a rank failure at level 4 rolls back to
// the level-2 checkpoint: each exchanged level then commits with one
// agreement allreduce, and exactly two more count frontiers — the first
// level and the replayed level 3.  Parents match the fault-free run.
TEST(FaultRecovery, ReplayedLevelCountsExactly) {
  const auto lat = graph::LatticeConfig::torus(8, 96);
  const auto edges = graph::generate_lattice(lat);
  const sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{lat.num_vertices(), mesh.ranks()};
  const Vertex root = 137;
  for (bool msbfs : {false, true}) {
    SCOPED_TRACE(msbfs ? "msbfs" : "bfs1d");
    auto run = [&](const FaultPlan* plan, uint64_t* allreduce,
                   uint64_t* alltoallv) {
      SpmdOptions opts;
      opts.policy = FaultPolicy::Recover;
      opts.faults = plan;
      std::vector<Vertex> out;
      auto report = run_spmd(
          Topology(mesh),
          [&](RankContext& ctx) {
            const uint64_t m = edges.size();
            std::vector<Edge> slice(
                edges.begin() + ptrdiff_t(m * uint64_t(ctx.rank) / 4),
                edges.begin() + ptrdiff_t(m * uint64_t(ctx.rank + 1) / 4));
            auto part = partition::build_1d(ctx, space, slice);
            ctx.stats.reset();
            std::vector<Vertex> parent;
            if (msbfs) {
              const Vertex roots[] = {root, 3};
              parent = service::msbfs_run(ctx, part, roots).parent;
            } else {
              parent = bfs::bfs1d_run(ctx, part, root).parent;
            }
            if (ctx.rank == 0) {
              *allreduce = ctx.stats.entry(CollectiveType::Allreduce).calls;
              *alltoallv = ctx.stats.entry(CollectiveType::Alltoallv).calls;
            }
            auto gathered =
                ctx.world.allgatherv(std::span<const Vertex>(parent));
            if (ctx.rank == 0) out = std::move(gathered);
          },
          opts);
      EXPECT_TRUE(report.ok());
      EXPECT_EQ(report.fault_totals().injected_failures,
                plan != nullptr ? 1u : 0u);
      return out;
    };
    uint64_t clean_ar = 0, clean_a2a = 0, ar = 0, a2a = 0;
    const auto clean = run(nullptr, &clean_ar, &clean_a2a);
    FaultPlan plan;
    plan.add_rank_failure(2, 4);
    const auto got = run(&plan, &ar, &a2a);
    EXPECT_EQ(got, clean);
    EXPECT_EQ(clean_ar, 1u);
    EXPECT_EQ(a2a, clean_a2a + 1);  // level 3 exchanged twice
    EXPECT_EQ(ar, a2a + 2);
  }
}

// A corrupted frontier block on a pull level is dropped under Recover and
// arrives empty.  The pull kernels must read none of it: not the next
// rank's words, and not past the gathered buffer when the dropped block is
// the last rank's.  The level rolls back, and the parents equal the
// fault-free run.
TEST(FaultRecovery, DroppedFrontierBlockOnPullLevelIsNotRead) {
  Graph500Config cfg;
  cfg.scale = 12;
  cfg.seed = 3;
  const sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  const Vertex root = pick_root(cfg);
  for (bool msbfs : {false, true}) {
    SCOPED_TRACE(msbfs ? "msbfs" : "bfs1d");
    auto run = [&](const FaultPlan* plan, FaultStats* totals,
                   uint64_t* gathers) {
      SpmdOptions opts;
      opts.policy = FaultPolicy::Recover;
      opts.faults = plan;
      std::vector<Vertex> out;
      auto report = run_spmd(
          Topology(mesh),
          [&](RankContext& ctx) {
            ctx.faults.armed = false;
            auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
            auto part = partition::build_1d(ctx, space, slice);
            ctx.stats.reset();
            ctx.faults.armed = true;
            std::vector<Vertex> parent;
            if (msbfs) {
              const Vertex roots[] = {root, 0, 5};
              parent = service::msbfs_run(ctx, part, roots).parent;
            } else {
              parent = bfs::bfs1d_run(ctx, part, root).parent;
            }
            ctx.faults.armed = false;
            if (ctx.rank == 0)
              *gathers = ctx.stats.entry(CollectiveType::Allgather).calls;
            auto gathered =
                ctx.world.allgatherv(std::span<const Vertex>(parent));
            if (ctx.rank == 0) out = std::move(gathered);
          },
          opts);
      EXPECT_TRUE(report.ok());
      *totals = report.fault_totals();
      return out;
    };
    FaultStats clean_totals, totals;
    uint64_t clean_gathers = 0, gathers = 0;
    const auto clean = run(nullptr, &clean_totals, &clean_gathers);
    ASSERT_GT(clean_gathers, 0u);  // the search has a pull level
    FaultPlan plan;
    plan.add_bitflip(3, CollectiveType::Allgather, 0);
    const auto got = run(&plan, &totals, &gathers);
    EXPECT_EQ(totals.injected_corruptions, 1u);
    EXPECT_GE(totals.detected, 1u);
    EXPECT_GT(totals.retries, 0u);
    EXPECT_EQ(gathers, clean_gathers + 1);  // the pull level gathered again
    EXPECT_EQ(got, clean);
  }
}

TEST(FaultRecovery, RetriesExhaustedGivesUp) {
  // A plan whose corruption re-fires on every replayed call index can't
  // happen (faults are one-shot), but a failing rank with max_retries = 0
  // exhausts the budget immediately.
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 3;
  sim::MeshShape mesh{1, 2};
  Vertex root = pick_root(cfg);
  FaultPlan plan;
  plan.add_rank_failure(0, 1);
  SpmdOptions opts;
  opts.policy = FaultPolicy::Recover;
  opts.faults = &plan;
  bfs::Bfs15dOptions bopts;
  bopts.recovery.max_retries = 0;
  FaultStats totals;
  auto parents = run_15d_parents(cfg, mesh, root, opts, &totals, bopts);
  EXPECT_TRUE(parents.empty());  // recovery gave up; errors reported
}

// ---- recovery pin: exact per-engine fault outcomes -------------------------

// Every engine recovers through the same policy (sim/recover.hpp).  One
// seeded plan — a rank failure plus an alltoallv bit flip — runs through each
// of them, and the exact FaultStats and give-up text are pinned, so any drift
// in retry budget, backoff, latch or resent-byte accounting shows here.
enum class PinEngine { Bfs1d, Bfs15d, Async, Msbfs, Sssp };

struct PinCase {
  const char* name;
  PinEngine engine;
  uint64_t injected_failures, detected, retries, recovered, resent_bytes;
  double backoff_s;
};

struct PinRun {
  std::vector<uint64_t> out;  // gathered parents / distances (rank 0)
  FaultStats faults;
  std::vector<std::string> errors;
};

PinRun run_pinned(PinEngine engine, const FaultPlan* plan, int max_retries) {
  Graph500Config cfg;
  cfg.scale = 11;
  cfg.seed = 5;
  const MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  const Vertex root = pick_root(cfg);
  RecoveryOptions rec;
  rec.max_retries = max_retries;
  SpmdOptions opts;
  opts.policy = FaultPolicy::Recover;
  opts.faults = plan;
  PinRun run;
  auto report = run_spmd(
      Topology(mesh),
      [&](RankContext& ctx) {
        ctx.faults.armed = false;
        auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
        std::vector<uint64_t> mine;
        auto take = [&](const auto& values) {
          mine.assign(values.begin(), values.end());
        };
        if (engine == PinEngine::Bfs15d || engine == PinEngine::Sssp) {
          auto deg = partition::compute_local_degrees(ctx, space, slice);
          partition::DegreeThresholds th;
          th.e = 512;
          th.h = 32;
          ThreadPool pool(2);
          auto part = partition::build_15d(ctx, space, slice, deg, th, pool);
          ctx.faults.armed = true;
          if (engine == PinEngine::Bfs15d) {
            bfs::Bfs15dOptions o;
            o.threads_per_rank = 1;
            o.recovery = rec;
            take(bfs::bfs15d_run(ctx, part, root, o).parent);
          } else {
            analytics::SsspOptions o;
            o.recovery = rec;
            take(analytics::sssp15d(ctx, part, root, o));
          }
        } else {
          auto part = partition::build_1d(ctx, space, slice);
          ctx.faults.armed = true;
          if (engine == PinEngine::Bfs1d) {
            bfs::Bfs1dOptions o;
            o.threads_per_rank = 1;
            o.recovery = rec;
            take(bfs::bfs1d_run(ctx, part, root, o).parent);
          } else if (engine == PinEngine::Async) {
            bfs::BfsAsyncOptions o;
            o.threads_per_rank = 1;
            o.recovery = rec;
            take(bfs::bfsasync_run(ctx, part, root, o).parent);
          } else {
            service::MsbfsOptions o;
            o.threads_per_rank = 1;
            o.recovery = rec;
            const Vertex roots[] = {root, 3, 17, 250, 1024};
            take(service::msbfs_run(ctx, part, roots, o).parent);
          }
        }
        ctx.faults.armed = false;
        auto gathered = ctx.world.allgatherv(std::span<const uint64_t>(mine));
        if (ctx.rank == 0) run.out = std::move(gathered);
      },
      opts);
  run.faults = report.fault_totals();
  run.errors = report.errors;
  return run;
}

class RecoveryPin : public ::testing::TestWithParam<PinCase> {};

TEST_P(RecoveryPin, ExactFaultOutcomeAndGiveUpText) {
  const PinCase c = GetParam();
  FaultPlan plan;
  plan.add_rank_failure(1, 2).add_bitflip(2, CollectiveType::Alltoallv, 1);

  const PinRun clean = run_pinned(c.engine, nullptr, 8);
  ASSERT_TRUE(clean.errors.empty());
  ASSERT_FALSE(clean.out.empty());

  const PinRun got = run_pinned(c.engine, &plan, 8);
  ASSERT_TRUE(got.errors.empty()) << got.errors[0];
  EXPECT_EQ(got.out, clean.out);  // bit-identical to the fault-free run
  const FaultStats& f = got.faults;
  EXPECT_EQ(f.injected_failures, c.injected_failures);
  EXPECT_EQ(f.detected, c.detected);
  EXPECT_EQ(f.retries, c.retries);
  EXPECT_EQ(f.recovered, c.recovered);
  EXPECT_EQ(f.resent_bytes, c.resent_bytes);
  EXPECT_EQ(f.backoff_s, c.backoff_s);

  // With no retry budget the first rollback gives up.  Every rank takes the
  // same decision, though a rank the first thrower aborts records nothing.
  const PinRun gave_up = run_pinned(c.engine, &plan, 0);
  ASSERT_FALSE(gave_up.errors.empty());
  for (const std::string& e : gave_up.errors)
    EXPECT_EQ(e.substr(e.find(": ") + 2),
              "fault: recovery retries exhausted after 0 attempts");
}

INSTANTIATE_TEST_SUITE_P(
    Engines, RecoveryPin,
    // Totals over the four ranks: each rank counts its own retries, backoff
    // and resent bytes.  Resent bytes count every collective since the
    // checkpoint, so async's replayed rounds cost 16 bytes less each than
    // when a round paid a 16-byte load allreduce and a 32-byte termination
    // probe instead of one 32-byte control fold: 12 rank-rounds take 2454
    // down to 2262.
    ::testing::Values(
        PinCase{"bfs1d", PinEngine::Bfs1d, 1, 1, 8, 4, 1521, 0.006},
        PinCase{"bfs15d", PinEngine::Bfs15d, 1, 1, 8, 8, 6538, 0.004},
        PinCase{"async", PinEngine::Async, 1, 1, 8, 4, 2262, 0.006},
        PinCase{"msbfs", PinEngine::Msbfs, 1, 1, 8, 4, 4326, 0.006},
        PinCase{"sssp", PinEngine::Sssp, 1, 1, 8, 4, 476448, 0.006}),
    [](const ::testing::TestParamInfo<PinCase>& info) {
      return std::string(info.param.name);
    });

TEST(FaultRecovery, SsspRetryBudgetIsItsRecoveryOptions) {
  // sssp15d's one recovery knob is SsspOptions::recovery: with no retry
  // budget, a planned rank failure makes every rank give up.
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 3;
  const MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  const Vertex root = pick_root(cfg);
  FaultPlan plan;
  plan.add_rank_failure(1, 2);
  SpmdOptions opts;
  opts.policy = FaultPolicy::Recover;
  opts.faults = &plan;
  std::vector<int> gave_up(size_t(mesh.ranks()), 0);
  auto report = run_spmd(
      Topology(mesh),
      [&](RankContext& ctx) {
        ctx.faults.armed = false;
        auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
        auto deg = partition::compute_local_degrees(ctx, space, slice);
        ThreadPool pool(2);
        auto part =
            partition::build_15d(ctx, space, slice, deg, {512, 32}, pool);
        ctx.faults.armed = true;
        analytics::SsspOptions o;
        o.recovery.max_retries = 0;
        try {
          analytics::sssp15d(ctx, part, root, o);
        } catch (const FaultDetected&) {
          gave_up[size_t(ctx.rank)] = 1;
        }
      },
      opts);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(gave_up, std::vector<int>(size_t(mesh.ranks()), 1));
  EXPECT_EQ(report.fault_totals().injected_failures, 1u);
}

// ---- fault-free runs must not change ---------------------------------------

TEST(FaultFree, RecoverPolicyWithoutPlanIsFree) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 2;
  sim::MeshShape mesh{2, 2};
  Vertex root = pick_root(cfg);

  auto baseline = run_15d_parents(cfg, mesh, root, SpmdOptions{});
  SpmdOptions opts;
  opts.policy = FaultPolicy::Recover;  // no plan installed
  auto with_policy = run_15d_parents(cfg, mesh, root, opts);
  EXPECT_EQ(baseline, with_policy);
}

TEST(FaultFree, ModeledCommUnchangedByFaultMachinery) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 2;
  sim::MeshShape mesh{2, 2};
  Topology topo(mesh);
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  Vertex root = pick_root(cfg);
  auto run_once = [&](const SpmdOptions& o) {
    auto report = run_spmd(
        topo,
        [&](sim::RankContext& ctx) {
          auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
          auto deg = partition::compute_local_degrees(ctx, space, slice);
          partition::DegreeThresholds th;
          ThreadPool pool(2);
          auto part = partition::build_15d(ctx, space, slice, deg, th, pool);
          bfs::bfs15d_run(ctx, part, root, {});
        },
        o);
    return report.modeled_comm_s();
  };
  double plain = run_once(SpmdOptions{});
  SpmdOptions recover;
  recover.policy = FaultPolicy::Recover;  // no plan: checksums stay off
  EXPECT_DOUBLE_EQ(plain, run_once(recover));
}

// ---- acceptance scenario ----------------------------------------------------

TEST(FaultAcceptance, SeededPlanAtScale16RecoversAndValidates) {
  bfs::RunnerConfig cfg;
  cfg.graph.scale = 16;
  cfg.graph.seed = 1;
  cfg.num_roots = 1;
  cfg.validate = true;
  sim::MeshShape mesh{2, 2};
  Topology topo(mesh);
  // Straggler + two corruptions + one rank failure, per the fault drill.
  FaultPlan plan = FaultPlan::random(12, mesh.ranks(), 1, 2, 1);
  cfg.faults = &plan;
  cfg.fault_policy = FaultPolicy::Recover;

  auto result = bfs::run_graph500(topo, cfg);
  EXPECT_TRUE(result.spmd.ok());
  EXPECT_TRUE(result.all_valid);
  auto f = result.spmd.fault_totals();
  EXPECT_GE(f.injected(), 2u);
  EXPECT_GT(f.retries, 0u);
  EXPECT_GT(f.recovered, 0u);
  EXPECT_GT(f.backoff_s, 0.0);

  // The same plan under the abort policy fails deterministically.
  cfg.fault_policy = FaultPolicy::Abort;
  EXPECT_THROW(bfs::run_graph500(topo, cfg), std::runtime_error);
  cfg.fault_policy = FaultPolicy::Abort;
  EXPECT_THROW(bfs::run_graph500(topo, cfg), std::runtime_error);
}

// ---- kernel-2 validator property: corrupted parents are rejected -----------

TEST(ValidationProperty, SingleFlippedParentEntryIsRejected) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 13;
  auto edges = graph::generate_rmat(cfg);
  Vertex root = pick_root(cfg);
  auto parent = graph::reference_bfs(cfg.num_vertices(), edges, root);
  ASSERT_TRUE(
      graph::validate_bfs(cfg.num_vertices(), edges, root, parent).ok);
  auto levels = graph::levels_from_parents(cfg.num_vertices(), parent, root);

  std::set<std::pair<Vertex, Vertex>> edge_set;
  for (const auto& e : edges) {
    edge_set.emplace(e.u, e.v);
    edge_set.emplace(e.v, e.u);
  }

  Xoshiro256StarStar rng(99);
  int tested = 0;
  for (int attempt = 0; attempt < 2000 && tested < 25; ++attempt) {
    Vertex v = Vertex(rng.next_below(cfg.num_vertices()));
    if (v == root || parent[size_t(v)] == kNoVertex) continue;
    Vertex bogus = Vertex(rng.next_below(cfg.num_vertices()));
    if (bogus == parent[size_t(v)] || bogus == v) continue;
    // Skip flips that happen to form a different but genuinely valid BFS
    // tree: the bogus parent is adjacent to v and one level above it.
    if (edge_set.count({bogus, v}) && levels[size_t(bogus)] >= 0 &&
        levels[size_t(bogus)] == levels[size_t(v)] - 1)
      continue;
    Vertex saved = parent[size_t(v)];
    parent[size_t(v)] = bogus;
    auto res = graph::validate_bfs(cfg.num_vertices(), edges, root, parent);
    EXPECT_FALSE(res.ok) << "flip parent[" << v << "] = " << bogus
                         << " was accepted";
    parent[size_t(v)] = saved;
    ++tested;
  }
  EXPECT_GE(tested, 10);
}

}  // namespace
}  // namespace sunbfs::sim
