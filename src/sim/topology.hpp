#pragma once

#include <cstdint>
#include <string>

#include "support/check.hpp"

/// Machine topology and network cost model.
///
/// The paper's machine organizes processes into an R×C virtual mesh whose
/// rows map to supernodes; intra-supernode links are unblocked while the
/// top-level fat tree is oversubscribed (8× on New Sunway).  We reproduce
/// those proportions in a cost model: every collective charges modeled
/// seconds computed from the bytes each participant moves, split into
/// intra-supernode and inter-supernode portions.
///
/// Contract: the cost model is a pure function of (params, byte counts), so
/// every rank of a collective computes the *same* modeled seconds from the
/// same aggregate counts (max-semantics — the collective is as slow as its
/// slowest participant).  This determinism is what lets CommStats report a
/// single modeled time per collective, lets the obs tracer keep per-rank
/// modeled clocks aligned across ranks, and makes fault-replay (PR 1)
/// re-charge resent bytes identically.  The modeled clock never reads host
/// time; real per-rank imbalance is measured separately as the arrival
/// spread in CommStats::imbalance_s.
namespace sunbfs::sim {

/// Shape of the R×C process mesh.  Ranks are numbered row-major
/// (rank = row * cols + col), matching the paper's Figure 1 numbering.
struct MeshShape {
  int rows = 1;
  int cols = 1;

  int ranks() const { return rows * cols; }
  int row_of(int rank) const { return rank / cols; }
  int col_of(int rank) const { return rank % cols; }
  int rank_of(int row, int col) const { return row * cols + col; }
};

/// Parameters of the modeled interconnect.  Defaults mirror New Sunway
/// proportions (200 Gbps NIC, 8× oversubscribed top-level fat tree) with
/// supernodes equal to mesh rows, as in the paper.
struct TopologyParams {
  /// Ranks per supernode; 0 means "one mesh row per supernode".
  int ranks_per_supernode = 0;
  /// Per-NIC injection bandwidth, bytes/second (200 Gbps = 25 GB/s).
  double nic_bytes_per_s = 25.0e9;
  /// Effective bandwidth divisor for traffic crossing supernodes.
  double oversubscription = 8.0;
  /// Per-hop software+wire latency per collective step, seconds.
  double latency_s = 2.0e-6;
};

/// Compute half of the work-counter cost model: modeled seconds per examined
/// edge, charged by MS-BFS batches and landmark repair so the service's
/// virtual clock never reads host wall time (docs/SERVICE.md "Determinism").
inline constexpr double kModeledSecondsPerEdge = 2e-9;

/// Static topology: mesh shape, supernode mapping and transfer-time model.
class Topology {
 public:
  Topology(MeshShape mesh, TopologyParams params = {});

  const MeshShape& mesh() const { return mesh_; }
  const TopologyParams& params() const { return params_; }

  int ranks_per_supernode() const { return ranks_per_supernode_; }
  int supernode_count() const;
  int supernode_of(int rank) const { return rank / ranks_per_supernode_; }

  bool same_supernode(int a, int b) const {
    return supernode_of(a) == supernode_of(b);
  }

  /// Modeled seconds for a collective over `participants` ranks where the
  /// most loaded rank moves `max_intra_bytes` within its supernode and
  /// `max_inter_bytes` across supernodes.
  double transfer_time(int participants, uint64_t max_intra_bytes,
                       uint64_t max_inter_bytes) const;

  std::string to_string() const;

 private:
  MeshShape mesh_;
  TopologyParams params_;
  int ranks_per_supernode_;
};

}  // namespace sunbfs::sim
