// Social-network analytics on the 1.5D framework (the paper's §8 claim
// that the partitioning is neutral to the algorithm, and its introduction's
// motivating workloads: risk management, ranking, trajectory analysis).
//
// On one skewed R-MAT "social graph", partitioned once, this example runs:
//   1. connected components  — community / fraud-ring discovery,
//   2. PageRank              — influencer ranking,
//   3. BFS                   — degrees of separation from the top influencer,
//   4. SSSP                  — weighted closeness over interaction costs.
//
//   ./social_network [scale]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "analytics/cc.hpp"
#include "analytics/pagerank.hpp"
#include "analytics/sssp.hpp"
#include "bfs/bfs15d.hpp"
#include "graph/rmat.hpp"
#include "graph/validate.hpp"
#include "partition/part15d.hpp"
#include "sim/runtime.hpp"

using namespace sunbfs;

int main(int argc, char** argv) {
  graph::Graph500Config cfg;
  cfg.scale = argc > 1 ? std::atoi(argv[1]) : 13;
  cfg.seed = 7;
  sim::MeshShape mesh{2, 2};
  partition::VertexSpace space{cfg.num_vertices(), mesh.ranks()};

  std::printf("social_network: %llu members, %llu relationships, %d ranks\n\n",
              (unsigned long long)cfg.num_vertices(),
              (unsigned long long)cfg.num_edges(), mesh.ranks());

  std::vector<graph::Vertex> labels;
  std::vector<double> ranks;
  std::vector<graph::Vertex> parent;
  std::vector<analytics::Dist> dist;
  graph::Vertex influencer = 0;

  sim::run_spmd(mesh, [&](sim::RankContext& ctx) {
    uint64_t m = cfg.num_edges();
    auto slice = graph::generate_rmat_range(
        cfg, m * uint64_t(ctx.rank) / uint64_t(ctx.nranks()),
        m * uint64_t(ctx.rank + 1) / uint64_t(ctx.nranks()));
    auto degrees = partition::compute_local_degrees(ctx, space, slice);
    // One partition serves all four analytics.
    auto part = partition::build_15d(ctx, space, slice, degrees, {512, 64});

    auto l = analytics::cc15d(ctx, part);
    auto r = analytics::pagerank15d(ctx, part, degrees);

    // Top influencer = highest PageRank, ties to the smaller member id
    // (owner nominates, world votes; the winner is independent of the
    // reduction order).
    double best_rank = -1;
    graph::Vertex best_v = 0;
    for (uint64_t i = 0; i < r.size(); ++i)
      if (r[i] > best_rank) {
        best_rank = r[i];
        best_v = space.to_global(ctx.rank, i);
      }
    struct Nominee {
      double rank;
      graph::Vertex v;
    };
    Nominee winner = ctx.world.allreduce(
        Nominee{best_rank, best_v}, [](Nominee a, Nominee b) {
          if (a.rank != b.rank) return a.rank > b.rank ? a : b;
          return a.v < b.v ? a : b;
        });

    auto bfs_res = bfs::bfs15d_run(ctx, part, winner.v);
    auto sssp_res = analytics::sssp15d(ctx, part, winner.v);

    auto gl = ctx.world.allgatherv(std::span<const graph::Vertex>(l));
    auto gr = ctx.world.allgatherv(std::span<const double>(r));
    auto gp =
        ctx.world.allgatherv(std::span<const graph::Vertex>(bfs_res.parent));
    auto gd = ctx.world.allgatherv(std::span<const analytics::Dist>(sssp_res));
    if (ctx.rank == 0) {
      labels = std::move(gl);
      ranks = std::move(gr);
      parent = std::move(gp);
      dist = std::move(gd);
      influencer = winner.v;
    }
  });

  // --- 1. communities ----------------------------------------------------
  std::map<graph::Vertex, uint64_t> comp_size;
  for (graph::Vertex l : labels) comp_size[l]++;
  std::vector<uint64_t> sizes;
  for (auto& [l, n] : comp_size) sizes.push_back(n);
  std::sort(sizes.rbegin(), sizes.rend());
  std::printf("communities: %zu total; largest %llu members (%.1f%%); "
              "isolated members %llu\n",
              comp_size.size(), (unsigned long long)sizes[0],
              100.0 * double(sizes[0]) / double(cfg.num_vertices()),
              (unsigned long long)std::count(sizes.begin(), sizes.end(), 1ul));

  // --- 2. influencers ----------------------------------------------------
  std::printf("top influencer: member %lld (PageRank %.6f)\n",
              (long long)influencer, ranks[size_t(influencer)]);

  // --- 3. degrees of separation ------------------------------------------
  auto levels = graph::levels_from_parents(cfg.num_vertices(), parent,
                                           influencer);
  std::map<int64_t, uint64_t> by_hops;
  for (int64_t lv : levels)
    if (lv >= 0) by_hops[lv]++;
  std::printf("degrees of separation from the influencer:\n");
  for (auto& [hops, n] : by_hops)
    std::printf("  %2lld hops: %llu members\n", (long long)hops,
                (unsigned long long)n);

  // --- 4. weighted closeness ----------------------------------------------
  uint64_t reachable = 0;
  double sum_cost = 0;
  for (analytics::Dist d : dist)
    if (d < analytics::kInfDist) {
      ++reachable;
      sum_cost += double(d);
    }
  std::printf("weighted closeness: mean interaction cost %.1f over %llu "
              "reachable members\n",
              sum_cost / double(reachable), (unsigned long long)reachable);
  return 0;
}
