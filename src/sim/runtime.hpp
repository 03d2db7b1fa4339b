#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/comm.hpp"
#include "sim/comm_stats.hpp"
#include "sim/fault.hpp"
#include "sim/topology.hpp"

/// SPMD runtime: runs one function body on every rank of a virtual machine,
/// each rank on its own thread, exactly like an MPI program launched with
/// mpirun.  The body communicates through the world / row / column
/// communicators in its RankContext.
///
/// The contract between the runtime and rank bodies:
///
///  * **Ranks.**  Global rank r lives at mesh coordinates
///    (mesh.row_of(r), mesh.col_of(r)); the row/col communicators renumber
///    it to its coordinate within the group.  A rank's body runs on exactly
///    one thread for the whole call, so thread-local state (including the
///    tracer attachment the runtime installs) is per-rank state.
///  * **Collectives** must be entered by all ranks of the communicator in
///    the same program order — see sim/comm.hpp for the full collective
///    contract, including the two-clock + imbalance accounting every call
///    deposits into RankContext::stats.
///  * **Faults** (PR 1).  The runtime arms nothing by itself: it installs
///    the plan/policy/checksum configuration into RankContext::faults and
///    the engines arm/disarm around the regions they can recover.  Under
///    FaultPolicy::Abort a throwing rank aborts every barrier and the first
///    exception is rethrown on the caller; under Report/Recover all rank
///    errors are collected into SpmdReport::errors and the survivors'
///    statistics are still returned.
namespace sunbfs::sim {

/// Everything a rank can see: its coordinates, communicators and stats.
struct alignas(64) RankContext {
  int rank = 0;
  MeshShape mesh;
  const Topology* topology = nullptr;
  Comm world;  ///< all ranks
  Comm row;    ///< ranks sharing this rank's mesh row (intra-supernode)
  Comm col;    ///< ranks sharing this rank's mesh column
  CommStats stats;
  FaultState faults;  ///< fault plan, policy, counters (see sim/fault.hpp)

  int row_index() const { return mesh.row_of(rank); }
  int col_index() const { return mesh.col_of(rank); }
  int nranks() const { return mesh.ranks(); }
};
// run_spmd keeps the contexts in one vector and each rank writes its own on
// every collective: line-aligned contexts keep neighbours off its lines.
static_assert(alignof(RankContext) == 64);

/// How run_spmd reacts to faults and rank exceptions.
struct SpmdOptions {
  /// Abort rethrows the first non-abort exception on the caller (the
  /// historical behaviour); Report collects every rank's exception message
  /// into SpmdReport::errors and returns; Recover additionally defers
  /// checksum mismatches so the BFS engines can roll back and replay.
  FaultPolicy policy = FaultPolicy::Abort;
  /// Deterministic fault schedule consulted at every collective (optional).
  const FaultPlan* faults = nullptr;
  /// Payload checksum verification; Auto enables it exactly when a plan is
  /// installed, so fault-free runs pay nothing.
  ChecksumMode checksums = ChecksumMode::Auto;

  bool checksums_enabled() const {
    return checksums == ChecksumMode::On ||
           (checksums == ChecksumMode::Auto && faults != nullptr);
  }
};

/// Result of an SPMD run: per-rank communication statistics (indexed by
/// global rank), their aggregate, per-rank fault accounting and — under the
/// report / recover policies — every failed rank's exception message.
struct SpmdReport {
  std::vector<CommStats> per_rank;
  std::vector<FaultStats> fault_per_rank;
  /// One "rank N: message" entry per rank whose body threw (all of them, not
  /// just the first — multi-rank failures stay diagnosable).  Empty on a
  /// clean run; always empty under the abort policy, which rethrows instead.
  std::vector<std::string> errors;

  bool ok() const { return errors.empty(); }

  CommStats aggregate() const {
    CommStats total;
    for (const auto& s : per_rank) total.merge(s);
    return total;
  }

  /// Cross-rank roll-up of fault injection/detection/recovery counters.
  FaultStats fault_totals() const {
    FaultStats total;
    for (const auto& f : fault_per_rank) total.merge(f);
    return total;
  }

  /// Modeled network seconds of the run (max semantics: every rank records
  /// the same modeled time per collective, so any rank's total works; we use
  /// rank 0).
  double modeled_comm_s() const {
    return per_rank.empty() ? 0.0 : per_rank[0].total_modeled_s();
  }

  /// Fold the run into a metrics report: aggregated comm counters under
  /// "comm.", fault totals under "fault.", rank/error counts under "spmd.".
  void to_report(obs::Report& report) const;
};

/// Run `body` on every rank of `topology`'s mesh.  Blocks until all ranks
/// finish.  Under the default (abort) policy, if any rank throws, all ranks
/// are aborted and the first non-abort exception is rethrown on the caller;
/// the other policies are described on SpmdOptions.
SpmdReport run_spmd(const Topology& topology,
                    const std::function<void(RankContext&)>& body,
                    const SpmdOptions& options);

/// Abort-policy overloads (the historical interface).
SpmdReport run_spmd(const Topology& topology,
                    const std::function<void(RankContext&)>& body);
SpmdReport run_spmd(MeshShape mesh,
                    const std::function<void(RankContext&)>& body);

}  // namespace sunbfs::sim
