#pragma once

#include <span>
#include <vector>

#include "partition/part15d.hpp"
#include "sim/runtime.hpp"

/// PageRank over the 1.5D partition (§8: "the push-pull selection behind
/// [sub-iteration direction optimization] works on many graph algorithms,
/// including ... PageRank").
///
/// Power iteration with damping and dangling-mass redistribution, run as a
/// sum-gather program on the PropagationEngine (analytics/propagate.hpp):
/// one engine round is one iteration.  Ranks are fixed point — a uint64_t
/// where 2^62 is a total mass of 1 — so every partial sum fits and integer
/// `+` makes the gather exact: ranks are bit-identical on every mesh shape,
/// whatever order contributions meet in.  Iteration stops once the L1
/// residual (the sum of every vertex's rank change in one iteration) falls
/// below 2^-40 of the total mass, or after `max_iterations`.  The residual
/// is exact in fixed point, so every mesh stops on the same iteration; it
/// rides the dangling-mass allreduce each iteration already makes.
namespace sunbfs::analytics {

struct PageRankOptions {
  double damping = 0.85;  // in [0, 1]
  int max_iterations = 100;
};

struct PageRankResult {
  std::vector<double> rank;  ///< owned vertices, local index order
  int iterations = 0;        ///< power iterations run
};

/// Ranks of this rank's owned vertices; they sum to 1 over all ranks.
/// `local_degrees` must match partition::compute_local_degrees.
/// Collective.
PageRankResult pagerank15d(sim::RankContext& ctx,
                           const partition::Part15d& part,
                           std::span<const uint64_t> local_degrees,
                           const PageRankOptions& options = {});

/// Serial reference power iteration in double with the identical update
/// rule and stopping rule; runs `max_iterations` or until an iteration's L1
/// residual falls below 2^-40.
std::vector<double> reference_pagerank(uint64_t num_vertices,
                                       std::span<const graph::Edge> edges,
                                       const PageRankOptions& options = {});

}  // namespace sunbfs::analytics
