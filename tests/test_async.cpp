// Asynchronous-engine suite (ctest -L async, also picked up by the
// differential and faults jobs):
//
//   1. Relaxed-correctness differential oracle — bfsasync over seeded
//      (graph, mesh, threads, encoding, exchange backend) configurations,
//      R-MAT and high-diameter lattices: the tree passes the kernel-2
//      validator, every parent sits exactly one level above its child, and
//      the engine's own depth array bit-matches graph::reference_bfs.
//   2. Fault recovery — each FaultKind through checkpoint/rollback, with
//      recovery provably fired and outputs bit-identical to fault-free.
//   3. Bit-determinism — parents and depths identical across thread counts,
//      encoding on/off and exchange backends.
//   4. Pinned control — rounds, collective calls, alltoallv bytes and an
//      output checksum per (input, mesh, threads, backend), and rollback
//      through a rank failure and an alltoallv bit flip.
//   5. Engine-selection CLI — parse_engine_kind and the typed
//      unknown-choice rejection every driver prints.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "bfs/bfs1d.hpp"
#include "bfs/bfsasync.hpp"
#include "bfs/workspace.hpp"
#include "bfs/engine.hpp"
#include "graph/lattice.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part1d.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"

namespace sunbfs {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::LatticeConfig;
using graph::Vertex;
using graph::kNoVertex;

// ----------------------------------------- async differential oracle

struct AsyncOut {
  bool ok = false;
  std::string error;
  std::vector<Vertex> parent;   // gathered global order
  std::vector<int64_t> depth;   // gathered global order
  int rounds = 0;
  sim::FaultStats faults;
};

// Run the async engine on per-rank slices produced by `slice_fn(rank,
// nranks)` and gather the global parent and depth arrays.
template <class SliceFn>
AsyncOut run_async(uint64_t nv, sim::MeshShape mesh, Vertex root, int threads,
                   bool encoding, sim::ExchangeBackend backend,
                   SliceFn&& slice_fn, const sim::FaultPlan* faults = nullptr) {
  partition::VertexSpace space{nv, mesh.ranks()};
  AsyncOut out;
  sim::SpmdOptions sopts;
  if (faults != nullptr) {
    sopts.policy = sim::FaultPolicy::Recover;
    sopts.faults = faults;
  }
  auto report =
      sim::run_spmd(sim::Topology(mesh), [&](sim::RankContext& ctx) {
        ctx.faults.armed = false;  // setup outside the recoverable surface
        auto slice = slice_fn(ctx.rank, ctx.nranks());
        auto part = partition::build_1d(ctx, space, slice);
        bfs::BfsAsyncOptions opts;
        opts.threads_per_rank = threads;
        opts.exchange.encoding = encoding;
        opts.exchange.backend = backend;
        ctx.faults.armed = true;
        auto res = bfs::bfsasync_run(ctx, part, root, opts);
        ctx.faults.armed = false;
        auto gp = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
        auto gd = ctx.world.allgatherv(std::span<const int64_t>(res.depth));
        if (ctx.rank == 0) {
          out.parent = std::move(gp);
          out.depth = std::move(gd);
          out.rounds = res.rounds;
        }
      }, sopts);
  out.ok = report.ok();
  if (!out.ok) out.error = report.errors.front();
  out.faults = report.fault_totals();
  return out;
}

std::vector<Edge> rmat_slice(const Graph500Config& cfg, int rank, int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_rmat_range(cfg, m * uint64_t(rank) / uint64_t(nranks),
                                    m * uint64_t(rank + 1) / uint64_t(nranks));
}

std::vector<Edge> lattice_slice(const LatticeConfig& cfg, int rank,
                                int nranks) {
  uint64_t m = cfg.num_edges();
  return graph::generate_lattice_range(cfg,
                                       m * uint64_t(rank) / uint64_t(nranks),
                                       m * uint64_t(rank + 1) / uint64_t(nranks));
}

// The relaxed-correctness oracle: quiescent output must be a valid BFS tree
// (kernel-2 validator: parent edges exist in the graph, the component is
// exactly covered), every non-root parent must sit exactly one level above
// its child *by the engine's own depths*, and those depths must bit-match
// the serial reference.
void expect_relaxed_oracle(uint64_t nv, std::span<const Edge> edges,
                           Vertex root, const AsyncOut& out) {
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.parent.size(), nv);
  ASSERT_EQ(out.depth.size(), nv);
  auto res = graph::validate_bfs(nv, edges, root, out.parent);
  ASSERT_TRUE(res.ok) << res.error;
  for (uint64_t v = 0; v < nv; ++v) {
    if (out.parent[v] == kNoVertex) {
      ASSERT_EQ(out.depth[v], -1) << "unreached vertex " << v << " has depth";
    } else if (Vertex(v) == root) {
      ASSERT_EQ(out.depth[v], 0);
      ASSERT_EQ(out.parent[v], root);
    } else {
      ASSERT_EQ(out.depth[size_t(out.parent[v])] + 1, out.depth[v])
          << "parent of " << v << " not one level up";
    }
  }
  auto ref = graph::reference_bfs(nv, edges, root);
  auto ref_depth = graph::levels_from_parents(nv, ref, root);
  for (uint64_t v = 0; v < nv; ++v)
    ASSERT_EQ(out.depth[v], ref_depth[v]) << "depth mismatch at " << v;
}

struct AsyncCase {
  const char* name;
  uint64_t seed;  // R-MAT seed; 0 selects a lattice (see lattice_of)
  int scale;
  LatticeConfig lattice;
  int rows, cols;
  int threads;
  bool encoding;
  sim::ExchangeBackend backend;
};

class AsyncOracle : public ::testing::TestWithParam<AsyncCase> {};

TEST_P(AsyncOracle, RelaxedQuiescentOutputMatchesReference) {
  const AsyncCase c = GetParam();
  SCOPED_TRACE(c.name);
  const sim::MeshShape mesh{c.rows, c.cols};
  if (c.seed != 0) {
    Graph500Config cfg;
    cfg.scale = c.scale;
    cfg.seed = c.seed;
    const Vertex root = graph::generate_rmat_range(cfg, 0, 1)[0].u;
    auto out = run_async(cfg.num_vertices(), mesh, root, c.threads,
                         c.encoding, c.backend, [&](int rank, int nranks) {
                           return rmat_slice(cfg, rank, nranks);
                         });
    auto edges = graph::generate_rmat(cfg);
    expect_relaxed_oracle(cfg.num_vertices(), edges, root, out);
  } else {
    const LatticeConfig cfg = c.lattice;
    const Vertex root = Vertex(cfg.num_vertices() / 3);
    auto out = run_async(cfg.num_vertices(), mesh, root, c.threads,
                         c.encoding, c.backend, [&](int rank, int nranks) {
                           return lattice_slice(cfg, rank, nranks);
                         });
    auto edges = graph::generate_lattice(cfg);
    expect_relaxed_oracle(cfg.num_vertices(), edges, root, out);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeededConfigs, AsyncOracle,
    ::testing::Values(
        // R-MAT (low diameter): meshes x threads x encoding x backends.
        AsyncCase{"rmat_s9_1x2", 41, 9, {}, 1, 2, 1, true,
                  sim::ExchangeBackend::Direct},
        AsyncCase{"rmat_s10_2x2", 42, 10, {}, 2, 2, 4, true,
                  sim::ExchangeBackend::Direct},
        AsyncCase{"rmat_s10_2x2_raw", 43, 10, {}, 2, 2, 2, false,
                  sim::ExchangeBackend::Direct},
        AsyncCase{"rmat_s10_2x4_2dca", 44, 10, {}, 2, 4, 2, true,
                  sim::ExchangeBackend::TwoDCA},
        AsyncCase{"rmat_s11_2x4_2dca", 45, 11, {}, 2, 4, 4, true,
                  sim::ExchangeBackend::TwoDCA},
        AsyncCase{"rmat_s10_4x1", 46, 10, {}, 4, 1, 1, false,
                  sim::ExchangeBackend::Direct},
        // High-diameter lattices: the async engine's motivating regime.
        AsyncCase{"path_1024", 0, 0, LatticeConfig::path(1024), 2, 2, 2, true,
                  sim::ExchangeBackend::Direct},
        AsyncCase{"path_4096_2dca", 0, 0, LatticeConfig::path(4096), 2, 4, 4,
                  true, sim::ExchangeBackend::TwoDCA},
        AsyncCase{"grid_48x32", 0, 0, LatticeConfig::grid(48, 32), 2, 2, 2,
                  true, sim::ExchangeBackend::Direct},
        AsyncCase{"torus_32x32_2dca", 0, 0, LatticeConfig::torus(32, 32), 2,
                  2, 4, false, sim::ExchangeBackend::TwoDCA}));

// ------------------------------------------------ fault recovery

struct AsyncFaultCase {
  sim::FaultKind kind;
  int threads;
  bool encoding;
};

class AsyncFaultOracle : public ::testing::TestWithParam<AsyncFaultCase> {};

sim::FaultPlan async_plan_for(sim::FaultKind kind) {
  sim::FaultPlan plan;
  switch (kind) {
    case sim::FaultKind::Straggler:
      plan.add_straggler(1, sim::CollectiveType::Allreduce, 2, 1e-3);
      break;
    case sim::FaultKind::BitFlip:
      // Dense rounds pull and skip the alltoallv entirely, so the traffic
      // that is guaranteed to carry payload is the pull round's frontier
      // gather — every rank publishes its (non-empty) frontier bitmap
      // words.  A corrupted contribution is dropped to an empty span by the
      // receivers, which poisons the pulled claims and must go through
      // rollback-and-replay.
      plan.add_bitflip(1, sim::CollectiveType::Allgather, 0);
      break;
    case sim::FaultKind::Truncate:
      plan.add_truncate(0, sim::CollectiveType::Allgather, 0);
      break;
    case sim::FaultKind::RankFailure:
      plan.add_rank_failure(1, 2);  // fires at exchange round 2
      break;
  }
  return plan;
}

TEST_P(AsyncFaultOracle, RecoveredOutputBitMatchesFaultFree) {
  const AsyncFaultCase c = GetParam();
  SCOPED_TRACE(std::string("kind ") + sim::fault_kind_name(c.kind) +
               ", threads " + std::to_string(c.threads) + ", encoding " +
               (c.encoding ? "on" : "off"));
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 47;
  const sim::MeshShape mesh{2, 2};
  const Vertex root = graph::generate_rmat_range(cfg, 0, 1)[0].u;
  auto slices = [&](int rank, int nranks) {
    return rmat_slice(cfg, rank, nranks);
  };
  const sim::FaultPlan plan = async_plan_for(c.kind);
  auto faulty = run_async(cfg.num_vertices(), mesh, root, c.threads,
                          c.encoding, sim::ExchangeBackend::Direct, slices,
                          &plan);
  ASSERT_TRUE(faulty.ok) << faulty.error;
  // The plan must actually have fired, and the corrupting/fatal kinds must
  // have gone through detection + rollback-and-replay.
  EXPECT_GE(faulty.faults.injected(), 1u);
  if (c.kind != sim::FaultKind::Straggler) EXPECT_GE(faulty.faults.recovered, 1u);

  auto edges = graph::generate_rmat(cfg);
  expect_relaxed_oracle(cfg.num_vertices(), edges, root, faulty);
  auto clean = run_async(cfg.num_vertices(), mesh, root, c.threads,
                         c.encoding, sim::ExchangeBackend::Direct, slices);
  ASSERT_TRUE(clean.ok) << clean.error;
  EXPECT_EQ(faulty.parent, clean.parent);
  EXPECT_EQ(faulty.depth, clean.depth);
}

INSTANTIATE_TEST_SUITE_P(
    EveryFaultKind, AsyncFaultOracle,
    ::testing::Values(AsyncFaultCase{sim::FaultKind::Straggler, 2, true},
                      AsyncFaultCase{sim::FaultKind::BitFlip, 1, true},
                      AsyncFaultCase{sim::FaultKind::BitFlip, 4, false},
                      AsyncFaultCase{sim::FaultKind::Truncate, 2, true},
                      AsyncFaultCase{sim::FaultKind::Truncate, 2, false},
                      AsyncFaultCase{sim::FaultKind::RankFailure, 1, true},
                      AsyncFaultCase{sim::FaultKind::RankFailure, 4, true}));

// ------------------------------------------------ bit-determinism

// Relaxation is a monotone fetch-min fold, so the quiescent claims — parents
// included, not just depths — must be bit-identical across thread counts,
// encoding on/off and exchange backends.
TEST(AsyncDeterminism, OutputsBitIdenticalAcrossThreadsEncodingAndBackends) {
  Graph500Config cfg;
  cfg.scale = 10;
  cfg.seed = 48;
  const sim::MeshShape mesh{2, 4};
  const Vertex root = graph::generate_rmat_range(cfg, 0, 1)[0].u;
  auto slices = [&](int rank, int nranks) {
    return rmat_slice(cfg, rank, nranks);
  };
  auto base = run_async(cfg.num_vertices(), mesh, root, 1, true,
                        sim::ExchangeBackend::Direct, slices);
  ASSERT_TRUE(base.ok) << base.error;
  for (int threads : {2, 4})
    for (bool encoding : {true, false})
      for (auto backend :
           {sim::ExchangeBackend::Direct, sim::ExchangeBackend::TwoDCA}) {
        SCOPED_TRACE(std::string("threads ") + std::to_string(threads) +
                     ", encoding " + (encoding ? "on" : "off") + ", " +
                     sim::exchange_backend_name(backend));
        auto got = run_async(cfg.num_vertices(), mesh, root, threads,
                             encoding, backend, slices);
        ASSERT_TRUE(got.ok) << got.error;
        EXPECT_EQ(got.parent, base.parent);
        EXPECT_EQ(got.depth, base.depth);
      }
}

// ------------------------------------------------ frontier-gather encoding

// Frontier words this rank published encoded on allgathers, any codec.
uint64_t encoded_gather_blocks(const sim::CommStats& stats) {
  uint64_t blocks = 0;
  for (int c = 0; c < sim::kWireCodecCount; ++c)
    blocks += stats.encoding_entry(sim::CollectiveType::Allgather,
                                   sim::WireCodec(c)).blocks;
  return blocks;
}

// An engine's frontier gather follows that engine's own
// ExchangeOptions::encoding, not what an earlier engine on the same
// workspace used: after bfs1d gathers raw, bfsasync with defaults encodes;
// bfsasync with encoding off ships raw.
TEST(AsyncFrontierGather, FollowsTheEnginesOwnEncoding) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 47;
  const sim::MeshShape mesh{2, 2};
  const partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};
  const Vertex root = graph::generate_rmat_range(cfg, 0, 1)[0].u;
  for (bool after_raw_bfs1d : {true, false}) {
    SCOPED_TRACE(after_raw_bfs1d ? "bfs1d raw, then bfsasync defaults"
                                 : "bfsasync encoding off");
    std::vector<uint64_t> gathers(4), encoded(4);
    sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
      auto part = partition::build_1d(
          ctx, space, rmat_slice(cfg, ctx.rank, ctx.nranks()));
      bfs::BfsWorkspace ws(1);
      bfs::BfsAsyncOptions opts;
      opts.workspace = &ws;
      if (after_raw_bfs1d) {
        bfs::Bfs1dOptions raw;
        raw.workspace = &ws;
        raw.exchange.encoding = false;
        bfs::bfs1d_run(ctx, part, root, raw);
      } else {
        opts.exchange.encoding = false;
      }
      ctx.stats.reset();
      bfs::bfsasync_run(ctx, part, root, opts);
      gathers[size_t(ctx.rank)] =
          ctx.stats.entry(sim::CollectiveType::Allgather).calls;
      encoded[size_t(ctx.rank)] = encoded_gather_blocks(ctx.stats);
    });
    for (int r = 0; r < mesh.ranks(); ++r) {
      ASSERT_GT(gathers[size_t(r)], 0u) << "rank " << r;  // a pull round ran
      if (after_raw_bfs1d)
        EXPECT_EQ(encoded[size_t(r)], gathers[size_t(r)]) << "rank " << r;
      else
        EXPECT_EQ(encoded[size_t(r)], 0u) << "rank " << r;
    }
  }
}

// ------------------------------------------------ pinned control

// Each round ends in one control fold (bfsasync.cpp): the next round's
// frontier depth and push/pull load, and quiescence when nothing is queued
// anywhere.  The decisions show in the collective counts: one seed fold, then
// per round one alltoallv (two stage calls under a staged 2dca plan) or one
// frontier allgather, and one fold.  Bytes and checksums were pinned from the
// engine that still probed a four-counter termination detector; the rounds
// are that engine's minus its final empty round.  Nothing may move at any
// thread count.
struct ControlCounts {
  int rounds = 0;  // rank 0's; every other field is a total over ranks
  uint64_t allreduce_calls = 0, alltoallv_calls = 0, allgather_calls = 0;
  uint64_t alltoallv_bytes = 0;
  uint64_t checksum = 0;  // FNV-1a over the parents, then the depths
  bool operator==(const ControlCounts&) const = default;
};

void PrintTo(const ControlCounts& c, std::ostream* os) {
  *os << "{" << c.rounds << ", " << c.allreduce_calls << ", "
      << c.alltoallv_calls << ", " << c.allgather_calls << ", "
      << c.alltoallv_bytes << ", " << c.checksum << "ull}";
}

enum class ControlInput { Rmat, Path, Grid, Torus };

struct ControlPin {
  ControlInput input;
  int rows, cols;
  sim::ExchangeBackend backend;
  ControlCounts counts;
};

struct ControlRun {
  ControlCounts counts;
  sim::FaultStats faults;
};

ControlRun run_control(const ControlPin& pin, int threads,
                       const sim::FaultPlan* faults = nullptr) {
  Graph500Config rmat;
  rmat.scale = 11;
  rmat.seed = 5;
  LatticeConfig lattice = LatticeConfig::path(2048);
  if (pin.input == ControlInput::Grid) lattice = LatticeConfig::grid(4, 1024);
  if (pin.input == ControlInput::Torus) lattice = LatticeConfig::torus(32, 32);
  const bool is_rmat = pin.input == ControlInput::Rmat;
  const uint64_t nv = is_rmat ? rmat.num_vertices() : lattice.num_vertices();
  const Vertex root = is_rmat ? graph::generate_rmat_range(rmat, 0, 1)[0].u
                              : Vertex(nv / 3);

  const sim::MeshShape mesh{pin.rows, pin.cols};
  const int nranks = mesh.ranks();
  partition::VertexSpace space{nv, nranks};
  sim::SpmdOptions opts;
  if (faults != nullptr) {
    opts.policy = sim::FaultPolicy::Recover;
    opts.faults = faults;
  }
  std::vector<ControlCounts> per_rank(static_cast<size_t>(nranks));
  std::vector<bfs::BfsAsyncResult> results(per_rank.size());
  auto report = sim::run_spmd(sim::Topology(mesh), [&](sim::RankContext& ctx) {
    ctx.faults.armed = false;
    auto part = partition::build_1d(
        ctx, space,
        is_rmat ? rmat_slice(rmat, ctx.rank, nranks)
                : lattice_slice(lattice, ctx.rank, nranks));
    ctx.stats.reset();
    bfs::BfsAsyncOptions o;
    o.threads_per_rank = threads;
    o.exchange.backend = pin.backend;
    ctx.faults.armed = true;
    bfs::BfsAsyncResult& res = results[size_t(ctx.rank)];
    res = bfs::bfsasync_run(ctx, part, root, o);
    ctx.faults.armed = false;
    ControlCounts& c = per_rank[size_t(ctx.rank)];
    c.rounds = res.rounds;
    c.allreduce_calls = ctx.stats.entry(sim::CollectiveType::Allreduce).calls;
    c.alltoallv_calls = ctx.stats.entry(sim::CollectiveType::Alltoallv).calls;
    c.allgather_calls = ctx.stats.entry(sim::CollectiveType::Allgather).calls;
    c.alltoallv_bytes =
        ctx.stats.entry(sim::CollectiveType::Alltoallv).bytes_sent;
  }, opts);
  EXPECT_TRUE(report.ok()) << report.errors.front();

  ControlRun run;
  run.faults = report.fault_totals();
  ControlCounts& total = run.counts;
  total.rounds = per_rank[0].rounds;
  for (const ControlCounts& c : per_rank) {
    total.allreduce_calls += c.allreduce_calls;
    total.alltoallv_calls += c.alltoallv_calls;
    total.allgather_calls += c.allgather_calls;
    total.alltoallv_bytes += c.alltoallv_bytes;
  }
  uint64_t h = 1469598103934665603ull;
  auto mix = [&](uint64_t word) {
    h ^= word;
    h *= 1099511628211ull;
  };
  for (const bfs::BfsAsyncResult& r : results)
    for (Vertex p : r.parent) mix(uint64_t(p));
  for (const bfs::BfsAsyncResult& r : results)
    for (int64_t d : r.depth) mix(uint64_t(d));
  total.checksum = h;
  return run;
}

constexpr auto kRmat = ControlInput::Rmat;
constexpr auto kPath = ControlInput::Path;
constexpr auto kGrid = ControlInput::Grid;
constexpr auto kTorus = ControlInput::Torus;
constexpr auto kDirect = sim::ExchangeBackend::Direct;
constexpr auto kTwoDCA = sim::ExchangeBackend::TwoDCA;

// Each pin: {rounds, allreduce calls, alltoallv calls, allgather calls,
// alltoallv bytes, checksum}.
const ControlPin kControlPins[] = {
    // clang-format off
    {kRmat, 1, 2, kDirect, {4, 10, 2, 6, 426, 12350904569179489240ull}},
    {kRmat, 1, 2, kTwoDCA, {4, 10, 2, 6, 426, 12350904569179489240ull}},
    {kRmat, 2, 2, kDirect, {4, 20, 4, 12, 610, 12350904569179489240ull}},
    {kRmat, 2, 2, kTwoDCA, {4, 20, 8, 12, 1248, 12350904569179489240ull}},
    {kRmat, 2, 3, kDirect, {4, 30, 6, 18, 674, 12350904569179489240ull}},
    {kRmat, 2, 3, kTwoDCA, {4, 30, 12, 18, 1450, 12350904569179489240ull}},
    {kPath, 1, 2, kDirect, {11, 24, 22, 0, 28, 16471093736244862230ull}},
    {kPath, 1, 2, kTwoDCA, {11, 24, 22, 0, 28, 16471093736244862230ull}},
    {kPath, 2, 2, kDirect, {11, 48, 44, 0, 84, 16471093736244862230ull}},
    {kPath, 2, 2, kTwoDCA, {11, 48, 88, 0, 206, 16471093736244862230ull}},
    {kPath, 2, 3, kDirect, {12, 78, 72, 0, 140, 16471093736244862230ull}},
    {kPath, 2, 3, kTwoDCA, {12, 78, 144, 0, 312, 16471093736244862230ull}},
    {kGrid, 1, 2, kDirect, {10, 22, 20, 0, 9187, 12387843539782179786ull}},
    {kGrid, 1, 2, kTwoDCA, {10, 22, 20, 0, 9187, 12387843539782179786ull}},
    {kGrid, 2, 2, kDirect, {10, 44, 40, 0, 26548, 12387843539782179786ull}},
    {kGrid, 2, 2, kTwoDCA, {10, 44, 80, 0, 54069, 12387843539782179786ull}},
    {kGrid, 2, 3, kDirect, {10, 66, 60, 0, 26723, 12387843539782179786ull}},
    {kGrid, 2, 3, kTwoDCA, {10, 66, 120, 0, 54794, 12387843539782179786ull}},
    {kTorus, 1, 2, kDirect, {24, 50, 36, 12, 741, 17456091208313392924ull}},
    {kTorus, 1, 2, kTwoDCA, {24, 50, 36, 12, 741, 17456091208313392924ull}},
    {kTorus, 2, 2, kDirect, {29, 120, 72, 44, 1113, 17456091208313392924ull}},
    {kTorus, 2, 2, kTwoDCA, {29, 120, 144, 44, 2776, 17456091208313392924ull}},
    {kTorus, 2, 3, kDirect, {29, 180, 108, 66, 2150, 17456091208313392924ull}},
    {kTorus, 2, 3, kTwoDCA, {29, 180, 216, 66, 5200, 17456091208313392924ull}},
    // clang-format on
};

std::string control_name(const ControlPin& pin, int threads) {
  static const char* kInputs[] = {"rmat", "path", "grid", "torus"};
  return std::string(kInputs[int(pin.input)]) + " " +
         std::to_string(pin.rows) + "x" + std::to_string(pin.cols) + " " +
         sim::exchange_backend_name(pin.backend) + " threads " +
         std::to_string(threads);
}

TEST(AsyncControl, CountsAndOutputEqualPinnedValues) {
  for (const ControlPin& pin : kControlPins)
    for (int threads : {1, 3}) {
      EXPECT_EQ(run_control(pin, threads).counts, pin.counts)
          << control_name(pin, threads);
    }
}

// A rank failure at round 2 and a flipped bit in rank 2's second alltoallv
// payload both roll every rank back to the last checkpoint under Recover.
// The replay must reach the fault-free output, and its counts are pinned
// too: the output alone cannot show a replay that starts from the wrong
// carried control fold, because relaxation converges from any frontier
// depth, but the rounds and bytes it takes to get there do.
struct RollbackPin {
  int rows, cols;
  sim::ExchangeBackend backend;
  ControlCounts failure, flip;
};

const RollbackPin kRollbackPins[] = {
    // clang-format off
    {2, 2, kDirect,
     {29, 244, 76, 44, 1113, 17456091208313392924ull},
     {29, 252, 80, 44, 1244, 17456091208313392924ull}},
    {2, 2, kTwoDCA,
     {29, 244, 152, 44, 2776, 17456091208313392924ull},
     {29, 252, 160, 44, 3081, 17456091208313392924ull}},
    {2, 3, kDirect,
     {29, 366, 114, 66, 2176, 17456091208313392924ull},
     {29, 378, 120, 66, 2252, 17456091208313392924ull}},
    {2, 3, kTwoDCA,
     {29, 366, 228, 66, 5250, 17456091208313392924ull},
     {29, 378, 240, 66, 5398, 17456091208313392924ull}},
    // clang-format on
};

TEST(AsyncControl, RollbackReplaysToPinnedCountsAndFaultFreeOutput) {
  sim::FaultPlan failure;
  failure.add_rank_failure(1, 2);
  sim::FaultPlan flip;
  flip.add_bitflip(2, sim::CollectiveType::Alltoallv, 1);
  for (const RollbackPin& rp : kRollbackPins) {
    const ControlPin pin{kTorus, rp.rows, rp.cols, rp.backend, {}};
    const ControlPin* clean = std::find_if(
        std::begin(kControlPins), std::end(kControlPins),
        [&](const ControlPin& p) {
          return p.input == kTorus && p.rows == rp.rows &&
                 p.cols == rp.cols && p.backend == rp.backend;
        });
    for (int threads : {1, 3}) {
      const ControlRun failed = run_control(pin, threads, &failure);
      const ControlRun flipped = run_control(pin, threads, &flip);
      const std::string name = control_name(pin, threads);
      EXPECT_GE(failed.faults.recovered, 1u) << name;
      EXPECT_GE(flipped.faults.recovered, 1u) << name;
      EXPECT_EQ(failed.counts, rp.failure) << name << ", rank failure";
      EXPECT_EQ(flipped.counts, rp.flip) << name << ", bit flip";
      EXPECT_EQ(failed.counts.checksum, clean->counts.checksum) << name;
      EXPECT_EQ(flipped.counts.checksum, clean->counts.checksum) << name;
    }
  }
}

// ------------------------------------------- engine-selection CLI

TEST(EngineCli, ParseAcceptsEverySpellingAndRejectsJunk) {
  bfs::EngineKind kind = bfs::EngineKind::OneFiveD;
  EXPECT_TRUE(bfs::parse_engine_kind("1d", &kind));
  EXPECT_EQ(kind, bfs::EngineKind::OneD);
  EXPECT_TRUE(bfs::parse_engine_kind("1.5d", &kind));
  EXPECT_EQ(kind, bfs::EngineKind::OneFiveD);
  EXPECT_TRUE(bfs::parse_engine_kind("async", &kind));
  EXPECT_EQ(kind, bfs::EngineKind::Async);
  for (const char* junk : {"", "2d", "ASYNC", "1.5D", "bfs", "asynchronous"}) {
    kind = bfs::EngineKind::OneD;
    EXPECT_FALSE(bfs::parse_engine_kind(junk, &kind)) << junk;
    EXPECT_EQ(kind, bfs::EngineKind::OneD) << "out modified on reject";
  }
  // Round trip: every kind's name parses back to itself.
  for (auto k : {bfs::EngineKind::OneD, bfs::EngineKind::OneFiveD,
                 bfs::EngineKind::Async}) {
    bfs::EngineKind back = bfs::EngineKind::OneD;
    EXPECT_TRUE(bfs::parse_engine_kind(bfs::engine_kind_name(k), &back));
    EXPECT_EQ(back, k);
  }
}

TEST(EngineCli, UnknownChoiceErrorNamesFlagValueAndChoices) {
  EXPECT_EQ(bfs::unknown_choice_error("--engine", "bogus",
                                      bfs::engine_kind_choices()),
            "--engine: unknown value 'bogus' (valid: 1d, 1.5d, async)");
  EXPECT_EQ(bfs::unknown_choice_error("--exchange", "ring", "direct, 2dca"),
            "--exchange: unknown value 'ring' (valid: direct, 2dca)");
  // "butterfly" names no plan and is rejected like any other value.
  sim::ExchangeBackend backend = sim::ExchangeBackend::Direct;
  EXPECT_FALSE(sim::parse_exchange_backend("butterfly", &backend));
  EXPECT_EQ(backend, sim::ExchangeBackend::Direct) << "out modified on reject";
  EXPECT_EQ(bfs::unknown_choice_error("--exchange", "butterfly",
                                      "direct, 2dca"),
            "--exchange: unknown value 'butterfly' (valid: direct, 2dca)");
  EXPECT_EQ(std::string(bfs::engine_kind_choices()), "1d, 1.5d, async");
}

}  // namespace
}  // namespace sunbfs
