// Asynchronous-engine suite (ctest -L async, also picked up by the
// differential and faults jobs):
//
//   1. TerminationDetector unit tests — delayed credit delivery, the
//      zero-frontier root, a message-in-flight-at-probe reactivation race,
//      the non-strict mode staged merging plans need, and rollback restore.
//   2. Relaxed-correctness differential oracle — bfsasync over seeded
//      (graph, mesh, threads, encoding, exchange backend) configurations,
//      R-MAT and high-diameter lattices: the tree passes the kernel-2
//      validator, every parent sits exactly one level above its child, and
//      the engine's own depth array bit-matches graph::reference_bfs.
//   3. Fault recovery — each FaultKind through checkpoint/rollback, with
//      recovery provably fired and outputs bit-identical to fault-free.
//   4. Bit-determinism — parents and depths identical across thread counts,
//      encoding on/off and exchange backends.
//   5. Engine-selection CLI — parse_engine_kind and the typed
//      unknown-choice rejection every driver prints.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <vector>

#include "bfs/bfsasync.hpp"
#include "bfs/engine.hpp"
#include "graph/lattice.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part1d.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "sim/termination.hpp"

namespace sunbfs {
namespace {

using graph::Edge;
using graph::Graph500Config;
using graph::LatticeConfig;
using graph::Vertex;
using graph::kNoVertex;

// ------------------------------------ termination detector unit tests

// A root whose component is empty of work: the detector still needs two
// agreeing waves (the first has nothing to compare against).
TEST(TerminationDetector, ZeroWorkTerminatesOnSecondWave) {
  std::vector<int> probes;
  sim::run_spmd(sim::MeshShape{1, 2}, [&](sim::RankContext& ctx) {
    sim::TerminationDetector term;
    int p1 = term.probe(ctx.world, true) ? 1 : 0;
    int p2 = term.probe(ctx.world, true) ? 1 : 0;
    if (ctx.rank == 0) probes = {p1, p2};
    EXPECT_EQ(term.waves(), 2u);
  });
  EXPECT_EQ(probes, (std::vector<int>{0, 1}));
}

// A message counted as sent before a probe but delivered only after it:
// strict credits (sum S != sum R) block the first wave, the counter movement
// blocks the second, and only the third — stable and balanced — terminates.
TEST(TerminationDetector, DelayedCreditDeliveryBlocksTermination) {
  std::vector<int> probes;
  sim::run_spmd(sim::MeshShape{1, 2}, [&](sim::RankContext& ctx) {
    sim::TerminationDetector term;
    if (ctx.rank == 0) term.note_sent(1);
    int p1 = term.probe(ctx.world, true) ? 1 : 0;   // S=1, R=0: unbalanced
    if (ctx.rank == 1) term.note_received(1);       // delivery lands late
    int p2 = term.probe(ctx.world, true) ? 1 : 0;   // balanced but R moved
    int p3 = term.probe(ctx.world, true) ? 1 : 0;   // stable: terminate
    if (ctx.rank == 0) probes = {p1, p2, p3};
  });
  EXPECT_EQ(probes, (std::vector<int>{0, 0, 1}));
}

// The classic single-wave hazard: every rank reports idle while a message is
// still in flight, and its delivery reactivates the receiver (which then
// sends more).  The two-wave handshake must ride out the whole episode.
TEST(TerminationDetector, InFlightMessageReactivationIsNotTermination) {
  std::vector<int> probes;
  sim::run_spmd(sim::MeshShape{1, 2}, [&](sim::RankContext& ctx) {
    sim::TerminationDetector term;
    if (ctx.rank == 0) term.note_sent(1);
    // Both ranks claim idle, yet rank 0's message is in flight.
    int p1 = term.probe(ctx.world, true) ? 1 : 0;
    // It lands: rank 1 wakes up, does work, and replies.
    if (ctx.rank == 1) {
      term.note_received(1);
      term.note_sent(1);
    }
    int p2 = term.probe(ctx.world, ctx.rank != 1) ? 1 : 0;  // rank 1 busy
    if (ctx.rank == 0) term.note_received(1);
    int p3 = term.probe(ctx.world, true) ? 1 : 0;  // balanced but just moved
    int p4 = term.probe(ctx.world, true) ? 1 : 0;  // stable: terminate
    if (ctx.rank == 0) probes = {p1, p2, p3, p4};
  });
  EXPECT_EQ(probes, (std::vector<int>{0, 0, 0, 1}));
}

// Under a staged merging plan k same-target messages arrive as one, so
// received legitimately undershoots sent: the strict detector would never
// settle, the non-strict one terminates on stability + idleness alone.
TEST(TerminationDetector, NonStrictModeToleratesFoldedCredits) {
  std::vector<int> probes;
  sim::run_spmd(sim::MeshShape{1, 2}, [&](sim::RankContext& ctx) {
    sim::TerminationDetector strict(true);
    sim::TerminationDetector relaxed(false);
    if (ctx.rank == 0) {
      strict.note_sent(3);
      relaxed.note_sent(3);
    }
    if (ctx.rank == 1) {  // three claims folded into one delivery
      strict.note_received(1);
      relaxed.note_received(1);
    }
    int s1 = strict.probe(ctx.world, true) ? 1 : 0;
    int s2 = strict.probe(ctx.world, true) ? 1 : 0;
    int r1 = relaxed.probe(ctx.world, true) ? 1 : 0;
    int r2 = relaxed.probe(ctx.world, true) ? 1 : 0;
    if (ctx.rank == 0) probes = {s1, s2, r1, r2};
  });
  EXPECT_EQ(probes, (std::vector<int>{0, 0, 0, 1}));
}

// Rollback restores the credit counters and forgets the previous wave, so a
// replay restarts the two-wave handshake instead of inheriting a stale
// half-agreement.
TEST(TerminationDetector, RestoreRestartsTheHandshake) {
  std::vector<int> probes;
  sim::run_spmd(sim::MeshShape{1, 2}, [&](sim::RankContext& ctx) {
    sim::TerminationDetector term;
    const sim::TerminationDetector::Snapshot snap = term.save();
    int p1 = term.probe(ctx.world, true) ? 1 : 0;  // first wave
    term.restore(snap);                            // rollback fires here
    int p2 = term.probe(ctx.world, true) ? 1 : 0;  // handshake restarted
    int p3 = term.probe(ctx.world, true) ? 1 : 0;
    if (ctx.rank == 0) probes = {p1, p2, p3};
  });
  EXPECT_EQ(probes, (std::vector<int>{0, 0, 1}));
}

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
