#pragma once

#include <cstdint>

#include "graph/types.hpp"
#include "support/check.hpp"

/// Vertex ownership: block distribution of a contiguous id space over ranks.
namespace sunbfs::partition {

/// Owner/local-index arithmetic for vertices [0, total) distributed in
/// contiguous blocks over nranks (rank r owns [begin(r), end(r))).
struct VertexSpace {
  uint64_t total = 0;
  int nranks = 1;

  uint64_t begin(int rank) const {
    return total * uint64_t(rank) / uint64_t(nranks);
  }
  uint64_t end(int rank) const {
    return total * uint64_t(rank + 1) / uint64_t(nranks);
  }
  uint64_t count(int rank) const { return end(rank) - begin(rank); }

  /// Largest block size over all ranks.
  uint64_t max_count() const {
    uint64_t m = 0;
    for (int r = 0; r < nranks; ++r) m = std::max(m, count(r));
    return m;
  }

  int owner(graph::Vertex v) const {
    SUNBFS_ASSERT(v >= 0 && uint64_t(v) < total);
    // Initial guess from proportionality, then adjust (exact for any total).
    int r = int(uint64_t(v) * uint64_t(nranks) / total);
    while (uint64_t(v) < begin(r)) --r;
    while (uint64_t(v) >= end(r)) ++r;
    return r;
  }

  uint64_t to_local([[maybe_unused]] int rank, graph::Vertex v) const {
    SUNBFS_ASSERT(owner(v) == rank);
    return uint64_t(v) - begin(rank);
  }

  graph::Vertex to_global(int rank, uint64_t local) const {
    SUNBFS_ASSERT(local < count(rank));
    return graph::Vertex(begin(rank) + local);
  }
};

/// Cyclic ownership used for EH ids: consecutive ids go to consecutive
/// ranks.  EH ids are assigned in decreasing-degree order, so cyclic dealing
/// spreads the hubs evenly over the mesh — the block-cyclic flavor of 2D
/// partitioning (Yoo et al.) the paper builds on.  Block ownership here
/// would hand rank 0's row and column nearly all EH2EH arcs.
struct CyclicSpace {
  uint64_t total = 0;
  int nranks = 1;

  int owner(graph::Vertex k) const {
    SUNBFS_ASSERT(k >= 0 && uint64_t(k) < total);
    return int(uint64_t(k) % uint64_t(nranks));
  }

  uint64_t count(int rank) const {
    uint64_t p = uint64_t(nranks);
    uint64_t r = uint64_t(rank);
    return total > r ? (total - r - 1) / p + 1 : 0;
  }

  uint64_t max_count() const {
    return (total + uint64_t(nranks) - 1) / uint64_t(nranks);
  }

  uint64_t to_local([[maybe_unused]] int rank, graph::Vertex k) const {
    SUNBFS_ASSERT(owner(k) == rank);
    return uint64_t(k) / uint64_t(nranks);
  }

  graph::Vertex to_global(int rank, uint64_t local) const {
    return graph::Vertex(local * uint64_t(nranks) + uint64_t(rank));
  }
};

}  // namespace sunbfs::partition
