// Streaming-mutation tests (ctest -L mutation): the differential
// mutation-oracle layer for the dynamic-graph subsystem (src/mutate,
// docs/SERVICE.md "Mutations & epochs").  Four layers:
//
//   1. MutationLog properties — deterministic replay, duplicate-edge dedup,
//      insert/delete disjointness, tombstone semantics (a delete removes
//      every duplicate copy; misses are counted), re-insert after delete,
//      and multiset agreement between the log's model and an independent
//      host replica.
//   2. CSR patch/compaction equivalence — a partition patched in place
//      batch by batch (and periodically compacted) equals, row by row as an
//      adjacency multiset, the CSR rebuilt from scratch on the log's
//      snapshot.
//   3. The differential repair oracle proper — across seeded (scale, mesh,
//      threads, encoding, exchange-backend) configurations, incremental
//      repair_bfs / repair_sssp after each batch must leave parents, depths
//      and distances BIT-IDENTICAL to a full recompute on the mutated
//      snapshot (serial canonical reference AND a fresh engine run), with
//      the repair exchanges allocation-free after the first batch.
//   4. Service-level epoch semantics — with mutations enabled, cache-on and
//      cache-off runs see identical per-query epochs and bit-identical
//      answers; mutation storms interleaved with fault plans keep the
//      exactly-one-terminal-state partition and replay bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "analytics/sssp.hpp"
#include "bfs/bfs15d.hpp"
#include "graph/csr.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "mutate/apply.hpp"
#include "mutate/log.hpp"
#include "mutate/repair.hpp"
#include "partition/classify.hpp"
#include "partition/part15d.hpp"
#include "partition/part1d.hpp"
#include "service/broker.hpp"
#include "service/msbfs.hpp"
#include "service/session.hpp"
#include "service/workload.hpp"
#include "sim/fault.hpp"
#include "sim/runtime.hpp"
#include "support/thread_pool.hpp"

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

uint64_t key_of(Vertex u, Vertex v) {
  uint64_t a = uint64_t(std::min(u, v)), b = uint64_t(std::max(u, v));
  return (a << 32) | b;
}

// ------------------------------------------------ MutationLog properties

TEST(MutationLog, BatchesReplayDeterministically) {
  Graph500Config cfg;
  cfg.scale = 6;
  cfg.seed = 5;
  auto base = graph::generate_rmat(cfg);
  mutate::MutationLogConfig lc;
  lc.seed = 12;
  mutate::MutationLog a(lc, cfg.num_vertices(), base);
  mutate::MutationLog b(lc, cfg.num_vertices(), base);
  for (int i = 0; i < 16; ++i) {
    const auto& ba = a.generate_next();
    const auto& bb = b.generate_next();
    ASSERT_EQ(ba.epoch, bb.epoch);
    ASSERT_EQ(ba.delete_misses, bb.delete_misses);
    ASSERT_EQ(ba.inserts.size(), bb.inserts.size());
    ASSERT_EQ(ba.deletes.size(), bb.deletes.size());
    for (size_t j = 0; j < ba.inserts.size(); ++j) {
      EXPECT_EQ(ba.inserts[j].u, bb.inserts[j].u);
      EXPECT_EQ(ba.inserts[j].v, bb.inserts[j].v);
    }
    for (size_t j = 0; j < ba.deletes.size(); ++j) {
      EXPECT_EQ(ba.deletes[j].u, bb.deletes[j].u);
      EXPECT_EQ(ba.deletes[j].v, bb.deletes[j].v);
    }
  }
  EXPECT_EQ(a.snapshot().size(), b.snapshot().size());
}

// An independent host replica of the edge-multiset model checks every batch:
// inserts hit only absent edges (dedup within the batch and against the
// model), deletes kill every duplicate copy or count a tombstone miss, a key
// deleted earlier can come back as a fresh insert, and the log's snapshot /
// live_arcs stay in multiset agreement throughout.
TEST(MutationLog, TombstonesDedupAndReinsertAgainstHostModel) {
  Graph500Config cfg;
  cfg.scale = 5;  // 32 vertices: a small key space forces re-insert collisions
  cfg.seed = 9;
  auto base = graph::generate_rmat(cfg);
  mutate::MutationLogConfig lc;
  lc.seed = 21;
  lc.inserts_per_batch = 6;
  lc.deletes_per_batch = 6;
  lc.phantom_fraction = 0.5;
  mutate::MutationLog log(lc, cfg.num_vertices(), base);

  std::map<uint64_t, uint64_t> model;  // key -> multiplicity
  for (const Edge& e : base) ++model[key_of(e.u, e.v)];
  std::set<uint64_t> deleted_ever;
  uint64_t reinserts = 0;

  for (int i = 0; i < 64; ++i) {
    const auto& b = log.generate_next();
    ASSERT_EQ(b.epoch, uint64_t(i + 1));
    std::set<uint64_t> in_batch;
    for (const Edge& e : b.inserts) {
      ASSERT_NE(e.u, e.v) << "self-loop insert";
      const uint64_t k = key_of(e.u, e.v);
      ASSERT_TRUE(in_batch.insert(k).second) << "duplicate insert in batch";
      ASSERT_EQ(model[k], 0u) << "insert hit a live edge";
      if (deleted_ever.count(k) > 0) ++reinserts;
      model[k] = 1;
    }
    uint64_t misses = 0;
    for (const Edge& e : b.deletes) {
      const uint64_t k = key_of(e.u, e.v);
      ASSERT_TRUE(in_batch.insert(k).second)
          << "delete overlaps an insert or another delete in the batch";
      auto it = model.find(k);
      if (it == model.end() || it->second == 0) {
        ++misses;  // tombstone no-op
      } else {
        model.erase(it);  // tombstone semantics: every copy dies
        deleted_ever.insert(k);
      }
    }
    EXPECT_EQ(b.delete_misses, misses) << "batch " << i;

    // Spot-check multiplicity on the batch's own endpoints.
    for (const Edge& e : b.inserts)
      EXPECT_EQ(log.multiplicity(e.u, e.v), 1u);
    for (const Edge& e : b.deletes) {
      auto it = model.find(key_of(e.u, e.v));
      EXPECT_EQ(log.multiplicity(e.u, e.v),
                it == model.end() ? 0u : it->second);
    }
  }

  // Full-multiset agreement: snapshot expands multiplicity.
  std::map<uint64_t, uint64_t> snap;
  uint64_t total = 0;
  for (const Edge& e : log.snapshot()) ++snap[key_of(e.u, e.v)], ++total;
  std::map<uint64_t, uint64_t> want(model.begin(), model.end());
  std::erase_if(want, [](const auto& kv) { return kv.second == 0; });
  EXPECT_EQ(snap, want);
  EXPECT_EQ(log.live_edges(), want.size());
  // Every edge instance stores two arcs (self loops twice too).
  EXPECT_EQ(log.live_arcs(), 2 * total);
  // The small key space must actually have produced delete-then-re-insert
  // cycles, or the idempotence property above was vacuous.
  EXPECT_GT(reinserts, 0u);
}

// ------------------------------- CSR patch / compaction equivalence

std::vector<std::vector<Vertex>> sorted_rows(const graph::Csr& csr) {
  std::vector<std::vector<Vertex>> out(csr.num_rows());
  for (uint64_t r = 0; r < csr.num_rows(); ++r) {
    auto nb = csr.neighbors(r);
    out[r].assign(nb.begin(), nb.end());
    std::sort(out[r].begin(), out[r].end());
  }
  return out;
}

// Patch a single-rank 1D partition batch by batch; after every batch (and
// after explicit compactions) the live adjacency must equal — per row, as a
// multiset — the CSR rebuilt from scratch on the log's snapshot, and the
// synced degree slice must match.
TEST(ApplyCsr, PatchedAdjacencyEqualsRebuiltSnapshot) {
  Graph500Config cfg;
  cfg.scale = 7;
  cfg.seed = 4;
  const uint64_t nv = cfg.num_vertices();
  auto base = graph::generate_rmat(cfg);

  partition::Part1d part{partition::VertexSpace{nv, 1},
                         graph::Csr::from_undirected(nv, base)};
  std::vector<uint64_t> degrees = graph::undirected_degrees(nv, base);

  mutate::MutationLogConfig lc;
  lc.seed = 31;
  lc.inserts_per_batch = 8;
  lc.deletes_per_batch = 8;
  mutate::MutationLog log(lc, nv, base);
  mutate::ApplyStats total;

  for (int i = 0; i < 12; ++i) {
    const auto& b = log.generate_next();
    total.merge(mutate::apply_batch_1d(0, part, b, &degrees));

    auto rebuilt = graph::Csr::from_undirected(nv, log.snapshot());
    ASSERT_EQ(part.adj.num_arcs(), rebuilt.num_arcs()) << "batch " << i;
    ASSERT_EQ(part.adj.num_arcs(), log.live_arcs()) << "batch " << i;
    ASSERT_EQ(sorted_rows(part.adj), sorted_rows(rebuilt)) << "batch " << i;
    for (uint64_t r = 0; r < nv; ++r)
      ASSERT_EQ(degrees[r], part.adj.degree(r)) << "degree desync at " << r;

    if (i % 4 == 3) {
      // Compaction must be invisible to the live adjacency.
      const uint64_t arcs = part.adj.num_arcs();
      part.adj.compact();
      EXPECT_EQ(part.adj.num_arcs(), arcs);
      EXPECT_GE(part.adj.slack_arcs(), 0u);
      ASSERT_EQ(sorted_rows(part.adj), sorted_rows(rebuilt))
          << "compaction changed the adjacency at batch " << i;
    }
  }
  EXPECT_GT(total.inserted_arcs, 0u);
  EXPECT_GT(total.deleted_arcs, 0u);
}

// The 1.5D patch path, checked behaviorally: a 1.5D partition patched in
// place (frozen classification, all six subgraph CSRs) must serve the exact
// mutated graph — BFS depths and SSSP distances from the real engines equal
// the serial references on the log's snapshot.
TEST(Apply15d, PatchedPartitionServesExactBfsAndSssp) {
  Graph500Config cfg;
  cfg.scale = 9;
  cfg.seed = 77;
  const uint64_t nv = cfg.num_vertices();
  const sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{nv, mesh.ranks()};
  const Vertex root = pick_root(cfg);
  const int nbatches = 3;

  mutate::MutationLogConfig lc;
  lc.seed = 41;
  lc.inserts_per_batch = 8;
  lc.deletes_per_batch = 8;

  std::vector<Vertex> parent;
  std::vector<analytics::Dist> dist;
  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto deg = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_15d(ctx, space, slice, deg, {128, 32});

    auto base = graph::generate_rmat(cfg);
    mutate::MutationLog log(lc, nv, base);
    for (int i = 0; i < nbatches; ++i)
      mutate::apply_batch_15d(ctx.mesh, ctx.rank, part, log.generate_next());

    bfs::Bfs15dOptions bopts;
    bopts.threads_per_rank = 2;
    auto res = bfs::bfs15d_run(ctx, part, root, bopts);
    auto gp = ctx.world.allgatherv(std::span<const Vertex>(res.parent));
    auto d = analytics::sssp15d(ctx, part, root);
    auto gd = ctx.world.allgatherv(std::span<const analytics::Dist>(d));
    if (ctx.rank == 0) {
      parent = std::move(gp);
      dist = std::move(gd);
    }
  });

  auto base = graph::generate_rmat(cfg);
  mutate::MutationLog log(lc, nv, base);
  for (int i = 0; i < nbatches; ++i) log.generate_next();
  auto snapshot = log.snapshot();

  auto vres = graph::validate_bfs(nv, snapshot, root, parent);
  ASSERT_TRUE(vres.ok) << vres.error;
  auto ref = graph::reference_bfs(nv, snapshot, root);
  auto ref_levels = graph::levels_from_parents(nv, ref, root);
  auto got_levels = graph::levels_from_parents(nv, parent, root);
  for (uint64_t v = 0; v < nv; ++v)
    ASSERT_EQ(got_levels[v], ref_levels[v]) << "depth mismatch at " << v;

  auto ref_dist = analytics::reference_sssp(nv, snapshot, root);
  ASSERT_EQ(dist.size(), ref_dist.size());
  for (uint64_t v = 0; v < nv; ++v)
    ASSERT_EQ(dist[v], ref_dist[v]) << "distance mismatch at " << v;
}

// -------------------------------- the differential repair oracle proper

// Serial re-derivation of the canonical max-global-id parent rule (the
// engines' determinism contract — see service/msbfs.hpp).
std::vector<Vertex> canonical_parents(
    uint64_t nv, const std::vector<std::vector<Vertex>>& adj,
    std::span<const int64_t> levels, Vertex root) {
  std::vector<Vertex> parent(nv, kNoVertex);
  parent[size_t(root)] = root;
  for (uint64_t v = 0; v < nv; ++v) {
    if (levels[v] <= 0) continue;
    Vertex best = kNoVertex;
    for (Vertex u : adj[v])
      if (levels[size_t(u)] == levels[v] - 1 && u > best) best = u;
    parent[v] = best;
  }
  return parent;
}

struct RepairCase {
  uint64_t seed;
  int scale;
  int rows, cols;
  int threads;
  bool encoding;
  sim::ExchangeBackend backend;
  int batches;
};

class RepairOracle : public ::testing::TestWithParam<RepairCase> {};

// One seeded configuration of the acceptance criterion: apply each mutation
// batch to the resident 1D partition, incrementally repair the BFS tree and
// the SSSP distances, and require bit-identity with (a) the serial canonical
// recompute on the mutated snapshot and (b) a fresh engine run over the
// patched partition — at every intermediate epoch, not just the last.
TEST_P(RepairOracle, RepairBitMatchesFullRecompute) {
  const RepairCase c = GetParam();
  SCOPED_TRACE("seed " + std::to_string(c.seed) + " scale " +
               std::to_string(c.scale) + " mesh " + std::to_string(c.rows) +
               "x" + std::to_string(c.cols) + " threads " +
               std::to_string(c.threads) + " encoding " +
               (c.encoding ? "on" : "off") + " backend " +
               sim::exchange_backend_name(c.backend));
  Graph500Config cfg;
  cfg.scale = c.scale;
  cfg.seed = c.seed;
  const uint64_t nv = cfg.num_vertices();
  const sim::MeshShape mesh{c.rows, c.cols};
  partition::VertexSpace space{nv, mesh.ranks()};
  const Vertex root = pick_root(cfg);

  mutate::MutationLogConfig lc;
  lc.seed = c.seed ^ 0xbeef;
  lc.inserts_per_batch = 8;
  lc.deletes_per_batch = 8;

  const analytics::SsspOptions wopts;  // default weight stream
  auto base_edges = graph::generate_rmat(cfg);
  auto dist0 = analytics::reference_sssp(nv, base_edges, root, wopts);

  // Per-epoch gathered state, captured on rank 0.
  std::vector<std::vector<Vertex>> parents(size_t(c.batches));
  std::vector<std::vector<int32_t>> depths(size_t(c.batches));
  std::vector<std::vector<analytics::Dist>> dists(size_t(c.batches));
  std::vector<Vertex> fresh_parent;  // engine recompute at the last epoch
  uint64_t degree_mismatches = 0, steady_allocs = 0;
  mutate::RepairStats stats_total;

  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    auto slice = slice_of(cfg, ctx.rank, ctx.nranks());
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    auto part = partition::build_1d(ctx, space, slice);
    const uint64_t local = space.count(ctx.rank);

    service::MsbfsOptions mopts;
    mopts.threads_per_rank = c.threads;
    mopts.exchange.encoding = c.encoding;
    mopts.exchange.backend = c.backend;
    mopts.record_depths = true;
    const Vertex roots[1] = {root};
    auto res = service::msbfs_run(ctx, part, roots, mopts);
    std::vector<Vertex> parent = std::move(res.parent);
    std::vector<int32_t> depth = std::move(res.depth);
    std::vector<analytics::Dist> dist(
        dist0.begin() + long(space.begin(ctx.rank)),
        dist0.begin() + long(space.end(ctx.rank)));

    auto base = graph::generate_rmat(cfg);
    mutate::MutationLog log(lc, nv, base);
    ThreadPool pool(size_t(c.threads));
    mutate::RepairChannels rchan;
    const uint64_t headroom =
        2 * uint64_t(c.batches) * uint64_t(lc.inserts_per_batch);
    mutate::RepairOptions ropts;
    ropts.pool = &pool;
    ropts.channels = &rchan;
    ropts.exchange.encoding = c.encoding;
    ropts.exchange.backend = c.backend;
    rchan.prime(ctx, size_t(c.threads), part.adj.num_arcs() + headroom,
                ropts.exchange);

    uint64_t allocs_after_first = 0;
    mutate::RepairStats stats;
    for (int b = 0; b < c.batches; ++b) {
      const auto& mb = log.generate_next();
      mutate::apply_batch_1d(ctx.rank, part, mb, &degrees);
      stats.merge(mutate::repair_bfs(ctx, part, mb, root,
                                     std::span<Vertex>(parent),
                                     std::span<int32_t>(depth), ropts));
      stats.merge(mutate::repair_sssp(ctx, part, mb, root,
                                      std::span<analytics::Dist>(dist), wopts,
                                      ropts));
      if (b == 0) allocs_after_first = rchan.allocs();
      auto gp = ctx.world.allgatherv(std::span<const Vertex>(parent));
      auto gdep = ctx.world.allgatherv(std::span<const int32_t>(depth));
      auto gd = ctx.world.allgatherv(std::span<const analytics::Dist>(dist));
      if (ctx.rank == 0) {
        parents[size_t(b)] = std::move(gp);
        depths[size_t(b)] = std::move(gdep);
        dists[size_t(b)] = std::move(gd);
      }
    }

    // Degree slice stayed in sync with the patched adjacency.
    uint64_t mismatches = 0;
    for (uint64_t r = 0; r < local; ++r)
      if (degrees[r] != part.adj.degree(r)) ++mismatches;
    mismatches = ctx.world.allreduce_sum(mismatches);
    const uint64_t growth =
        ctx.world.allreduce_sum(rchan.allocs() - allocs_after_first);
    stats.invalidated = ctx.world.allreduce_sum(stats.invalidated);
    stats.relaxations = ctx.world.allreduce_sum(stats.relaxations);

    // Fresh engine recompute over the patched partition at the last epoch.
    auto fres = service::msbfs_run(ctx, part, roots, mopts);
    auto gfp = ctx.world.allgatherv(std::span<const Vertex>(fres.parent));
    if (ctx.rank == 0) {
      degree_mismatches = mismatches;
      steady_allocs = growth;
      fresh_parent = std::move(gfp);
      stats_total = stats;
    }
  });

  EXPECT_EQ(degree_mismatches, 0u);
  // Alloc-free steady state: the primed repair channels stop growing after
  // the first batch, on every rank.
  EXPECT_EQ(steady_allocs, 0u);

  // Host references at every epoch, from a host log replica.
  mutate::MutationLog log(lc, nv, base_edges);
  for (int b = 0; b < c.batches; ++b) {
    const auto& mb = log.generate_next();
    ASSERT_GT(mb.inserts.size() + mb.deletes.size(), 0u);
    auto snapshot = log.snapshot();
    std::vector<std::vector<Vertex>> adj(nv);
    for (const Edge& e : snapshot) {
      if (e.u == e.v) continue;
      adj[size_t(e.u)].push_back(e.v);
      adj[size_t(e.v)].push_back(e.u);
    }
    auto ref = graph::reference_bfs(nv, snapshot, root);
    auto levels = graph::levels_from_parents(nv, ref, root);
    auto want = canonical_parents(nv, adj, levels, root);
    const auto& gp = parents[size_t(b)];
    const auto& gdep = depths[size_t(b)];
    ASSERT_EQ(gp.size(), nv);
    for (uint64_t v = 0; v < nv; ++v) {
      ASSERT_EQ(gp[v], want[v])
          << "epoch " << (b + 1) << " parent mismatch at vertex " << v;
      ASSERT_EQ(int64_t(gdep[v]), levels[v])
          << "epoch " << (b + 1) << " depth mismatch at vertex " << v;
    }
    auto ref_dist = analytics::reference_sssp(nv, snapshot, root, wopts);
    const auto& gd = dists[size_t(b)];
    for (uint64_t v = 0; v < nv; ++v)
      ASSERT_EQ(gd[v], ref_dist[v])
          << "epoch " << (b + 1) << " distance mismatch at vertex " << v;
  }

  // The in-system cross-check: the repaired tree IS the fresh engine run.
  EXPECT_EQ(parents[size_t(c.batches - 1)], fresh_parent);
  // The suite is non-vacuous: mutations actually moved repair work.
  EXPECT_GT(stats_total.relaxations + stats_total.invalidated, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeededConfigs, RepairOracle,
    ::testing::Values(
        // scale x mesh x threads x encoding x backend (>= 12 configs).
        RepairCase{61, 9, 1, 2, 1, true, sim::ExchangeBackend::Direct, 2},
        RepairCase{62, 9, 2, 2, 1, true, sim::ExchangeBackend::Direct, 3},
        RepairCase{63, 10, 2, 2, 2, true, sim::ExchangeBackend::Direct, 2},
        RepairCase{64, 10, 2, 2, 4, false, sim::ExchangeBackend::Direct, 2},
        RepairCase{65, 10, 2, 4, 2, true, sim::ExchangeBackend::TwoDCA, 2},
        RepairCase{66, 9, 2, 2, 1, true, sim::ExchangeBackend::TwoDCA, 3},
        RepairCase{67, 10, 4, 1, 2, false, sim::ExchangeBackend::TwoDCA, 2},
        RepairCase{68, 10, 2, 2, 2, true, sim::ExchangeBackend::TwoDCA, 2},
        RepairCase{69, 10, 2, 3, 1, true, sim::ExchangeBackend::TwoDCA, 2},
        RepairCase{70, 9, 1, 4, 4, false, sim::ExchangeBackend::Direct, 3},
        RepairCase{71, 11, 2, 2, 2, true, sim::ExchangeBackend::Direct, 2},
        RepairCase{72, 10, 3, 2, 2, false, sim::ExchangeBackend::TwoDCA, 2},
        RepairCase{73, 9, 2, 2, 4, true, sim::ExchangeBackend::TwoDCA, 4},
        RepairCase{74, 10, 1, 1, 1, false, sim::ExchangeBackend::Direct, 3}));

// ------------------------------------- service-level epoch semantics

service::ServiceConfig mutating_service(bool cache) {
  service::ServiceConfig cfg;
  cfg.graph.scale = 9;
  cfg.graph.seed = 3;
  cfg.threads_per_rank = 2;
  cfg.root_pool = 16;
  cfg.mutation.enabled = true;
  cfg.mutation.every = 8;
  cfg.mutation.max_batches = 6;
  cfg.mutation.inserts_per_batch = 4;
  cfg.mutation.deletes_per_batch = 4;
  if (cache) {
    cfg.cache.enabled = true;
    cfg.cache.tree_capacity = 8;
    cfg.cache.landmarks = 8;
    cfg.cache.tree_lease_s = 10.0;
    cfg.cache.sketch_lease_s = 10.0;
  }
  return cfg;
}

service::WorkloadConfig mutating_workload(uint64_t seed, uint64_t n) {
  service::WorkloadConfig wl;
  wl.seed = seed;
  wl.num_queries = n;
  wl.rate_qps = 5000;
  wl.distance_fraction = 0.3;
  wl.reachable_fraction = 0.15;
  wl.root_dist = service::RootDist::Zipfian;
  return wl;
}

// The epoch read-consistency acceptance: mutation triggers are id-driven, so
// cache-on and cache-off runs must serve every query at the SAME epoch and
// return bit-identical answers — even though their virtual clocks differ.
TEST(MutationEpochs, CacheOnAndOffServeIdenticalEpochsAndAnswers) {
  const sim::Topology topo(sim::MeshShape{2, 2});
  const service::WorkloadConfig wl = mutating_workload(81, 64);
  service::ServiceReport on =
      service::GraphSession(topo, mutating_service(true))
          .serve(wl, service::BrokerConfig{});
  service::ServiceReport off =
      service::GraphSession(topo, mutating_service(false))
          .serve(wl, service::BrokerConfig{});
  ASSERT_TRUE(on.spmd.ok());
  ASSERT_TRUE(off.spmd.ok());
  EXPECT_EQ(on.completed, wl.num_queries);
  EXPECT_EQ(off.completed, wl.num_queries);
  EXPECT_GT(on.cache.hits, 0u) << "cache never hit; differential is vacuous";
  EXPECT_EQ(on.mutate.batches, 6u);
  EXPECT_EQ(off.mutate.batches, 6u);
  EXPECT_EQ(on.mutate.epoch, 6u);
  EXPECT_GT(on.mutate.inserted_arcs, 0u);
  EXPECT_EQ(on.staging_allocs_steady, 0u);
  EXPECT_EQ(off.staging_allocs_steady, 0u);
  // The cached session repairs its resident landmark trees in place.
  EXPECT_GT(on.mutate.sketch_repairs, 0u);
  EXPECT_EQ(off.mutate.sketch_repairs, 0u);

  std::map<uint64_t, const service::QueryResult*> baseline;
  for (const auto& r : off.results) baseline[r.id] = &r;
  for (const auto& r : on.results) {
    auto it = baseline.find(r.id);
    ASSERT_NE(it, baseline.end()) << "query " << r.id;
    const service::QueryResult& b = *it->second;
    // Id-driven triggers: both runs, and the analytic formula, agree on the
    // admission epoch of every query.
    EXPECT_EQ(r.epoch, b.epoch) << "query " << r.id;
    EXPECT_EQ(r.epoch, std::min<uint64_t>(6, r.id / 8)) << "query " << r.id;
    EXPECT_EQ(r.status, b.status) << "query " << r.id;
    EXPECT_EQ(r.distance, b.distance)
        << "query " << r.id << (r.cache_hit ? " (cache hit)" : "");
    EXPECT_EQ(r.reachable, b.reachable) << "query " << r.id;
    EXPECT_EQ(r.traversed_edges, b.traversed_edges) << "query " << r.id;
    EXPECT_EQ(r.levels, b.levels) << "query " << r.id;
  }
}

// A mutating, cached, faulty session must still replay bit-identically.
TEST(MutationEpochs, MutatingChaosReplaysBitIdentically) {
  service::ServiceConfig cfg = mutating_service(true);
  cfg.faults = sim::FaultPlan::random(19, 4, 1, 2, 1);
  const sim::Topology topo(sim::MeshShape{2, 2});
  service::GraphSession session(topo, cfg);
  const service::WorkloadConfig wl = mutating_workload(82, 48);
  service::ServiceReport a = session.serve(wl, service::BrokerConfig{});
  service::ServiceReport b = session.serve(wl, service::BrokerConfig{});
  ASSERT_TRUE(a.spmd.ok());
  ASSERT_TRUE(b.spmd.ok());
  EXPECT_GT(a.mutate.batches, 0u);
  EXPECT_GT(a.spmd.fault_totals().injected(), 0u);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (size_t i = 0; i < a.results.size(); ++i) {
    const auto& x = a.results[i];
    const auto& y = b.results[i];
    ASSERT_EQ(x.id, y.id) << "result " << i;
    ASSERT_EQ(x.status, y.status);
    ASSERT_EQ(x.epoch, y.epoch);
    ASSERT_EQ(x.distance, y.distance);
    ASSERT_EQ(x.reachable, y.reachable);
    ASSERT_EQ(x.traversed_edges, y.traversed_edges);
    ASSERT_EQ(x.done_s, y.done_s);
    ASSERT_EQ(x.retries, y.retries);
  }
}

// Mutation storms interleaved with fault injections keep the service's hard
// invariants: every query ends in exactly one terminal state, queries that
// executed at the same epoch as the fault-free run return bit-identical
// answers, and a query whose epoch moved did so only because a broker retry
// legitimately re-ran it against a newer graph.
TEST(MutationEpochs, ChaosStormKeepsTerminalPartitionAndEpochConsistency) {
  const sim::Topology topo(sim::MeshShape{2, 2});
  const service::WorkloadConfig wl = mutating_workload(83, 48);
  service::ServiceConfig clean_cfg = mutating_service(false);
  service::ServiceReport clean =
      service::GraphSession(topo, clean_cfg).serve(wl, service::BrokerConfig{});
  ASSERT_TRUE(clean.spmd.ok());

  uint64_t injected = 0;
  for (uint64_t fault_seed : {11ull, 29ull}) {
    SCOPED_TRACE("fault seed " + std::to_string(fault_seed));
    service::ServiceConfig cfg = clean_cfg;
    cfg.faults = sim::FaultPlan::random(fault_seed, topo.mesh().ranks(),
                                        /*stragglers=*/2, /*corruptions=*/4,
                                        /*failures=*/2);
    service::ServiceReport report =
        service::GraphSession(topo, cfg).serve(wl, service::BrokerConfig{});
    ASSERT_TRUE(report.spmd.ok());
    injected += report.spmd.fault_totals().injected();
    EXPECT_GT(report.mutate.batches, 0u);
    EXPECT_EQ(report.staging_allocs_steady, 0u);

    // Exactly-one-terminal-state.
    std::vector<int> seen(wl.num_queries, 0);
    for (const auto& r : report.results) {
      ASSERT_LT(r.id, wl.num_queries);
      ++seen[size_t(r.id)];
    }
    for (uint64_t id = 0; id < wl.num_queries; ++id)
      ASSERT_EQ(seen[size_t(id)], 1) << "query " << id;
    EXPECT_EQ(report.completed + report.expired_total() + report.rejected +
                  report.shed + report.failed,
              wl.num_queries);

    // Epoch-aware answer comparison against the fault-free oracle.
    std::map<uint64_t, const service::QueryResult*> oracle;
    for (const auto& r : clean.results)
      if (r.status == service::QueryStatus::Done) oracle[r.id] = &r;
    for (const auto& r : report.results) {
      if (r.status != service::QueryStatus::Done) continue;
      auto it = oracle.find(r.id);
      ASSERT_NE(it, oracle.end()) << "query " << r.id;
      const service::QueryResult& b = *it->second;
      if (r.epoch != b.epoch) {
        // Only a broker retry may carry a query across an epoch boundary.
        EXPECT_GT(r.retries, 0) << "query " << r.id
                                << " changed epoch without a retry";
        continue;
      }
      EXPECT_EQ(r.distance, b.distance) << "query " << r.id;
      EXPECT_EQ(r.reachable, b.reachable) << "query " << r.id;
      EXPECT_EQ(r.traversed_edges, b.traversed_edges) << "query " << r.id;
      EXPECT_EQ(r.levels, b.levels) << "query " << r.id;
    }
  }
  EXPECT_GT(injected, 0u);
}

}  // namespace
}  // namespace sunbfs
