#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/comm_stats.hpp"

/// Fault injection and detection for the SPMD runtime.
///
/// At the paper's scale (103,912 nodes) stragglers, corrupted transfers and
/// dying ranks are routine, so the simulated runtime must exercise the
/// unhappy paths too.  A FaultPlan is a deterministic, seeded schedule of
/// faults keyed on (rank, collective type, per-rank call index) — the same
/// plan over the same program replays the same faults at exactly the same
/// points.  Comm consults the plan at every collective: stragglers delay the
/// caller before it publishes, payload faults corrupt the published bytes
/// (the sender's checksum still covers the original payload, so receivers
/// detect the mismatch), and rank failures fire at a chosen BFS level
/// through the engines' recovery loops.
///
/// Detection raises a typed FaultDetected on the receiving rank — or, under
/// the `recover` policy, drops the corrupted contribution and records a
/// pending fault so the BFS engines can roll back to their last checkpoint
/// at a globally consistent point and replay.
///
/// Contract with the engines (PR 1): faults fire only while
/// FaultState::armed, and call indices in a plan count *armed* calls of
/// each collective type per global rank — arm/disarm placement is part of
/// the reproducibility contract.  After a detection under `recover`, every
/// rank must reach the same rollback decision collectively (the engines
/// allreduce the pending flag) before any rank replays.  All accounting
/// lands in FaultStats, aggregated through SpmdReport and exportable into
/// an obs::Report via to_report().
namespace sunbfs::sim {

/// Categories of injectable faults.
enum class FaultKind : int {
  Straggler,    ///< delay a rank before it enters a collective
  BitFlip,      ///< flip one bit of a published payload
  Truncate,     ///< shorten a published payload
  RankFailure,  ///< hard failure of one rank at a chosen BFS level
};

const char* fault_kind_name(FaultKind kind);

/// What run_spmd / the BFS engines do when a fault is detected.
enum class FaultPolicy : int {
  Abort,    ///< rethrow on the caller (the pre-fault-framework behaviour)
  Report,   ///< collect every rank's error into the SpmdReport, don't throw
  Recover,  ///< defer detection; engines roll back to a checkpoint and replay
};

/// Whether collectives compute and verify payload checksums.
enum class ChecksumMode : int {
  Auto,  ///< on exactly when a FaultPlan is installed
  On,
  Off,
};

/// Raised when a checksum or size mismatch is detected inside a collective.
class FaultDetected : public std::runtime_error {
 public:
  explicit FaultDetected(const std::string& what,
                         CollectiveType collective = CollectiveType::Barrier,
                         int source_rank = -1, int detector_rank = -1)
      : std::runtime_error(what),
        collective(collective),
        source_rank(source_rank),
        detector_rank(detector_rank) {}

  CollectiveType collective;
  int source_rank;    ///< global rank that published the bad payload (-1 n/a)
  int detector_rank;  ///< global rank that noticed
};

/// Raised on a rank scheduled to fail hard (abort / report policies only;
/// under recover the engines absorb the failure and restore from checkpoint).
class RankFailure : public std::runtime_error {
 public:
  RankFailure(int rank, int level)
      : std::runtime_error("injected hard failure of rank " +
                           std::to_string(rank) + " at BFS level " +
                           std::to_string(level)),
        rank(rank),
        level(level) {}

  int rank;
  int level;
};

/// xxhash-style 64-bit payload checksum (XXH64 with a fixed seed).
uint64_t checksum64(const void* data, uint64_t nbytes);

/// One scheduled straggler delay.
struct StragglerFault {
  int rank = 0;
  CollectiveType collective = CollectiveType::Alltoallv;
  uint64_t call_index = 0;  ///< nth armed call of `collective` on `rank`
  double delay_s = 0;
};

/// One scheduled payload corruption (bit flip or truncation).
struct PayloadFault {
  int rank = 0;  ///< sender whose published payload is corrupted
  CollectiveType collective = CollectiveType::Alltoallv;
  uint64_t call_index = 0;
  FaultKind kind = FaultKind::BitFlip;
  /// For alltoallv: destination index within the communicator whose message
  /// is corrupted; -1 picks the first non-empty message.
  int peer = -1;
};

/// One scheduled hard rank failure.
struct RankFailureFault {
  int rank = 0;
  int level = 1;  ///< BFS iteration (1-based) at whose start the rank dies
};

/// Deterministic, seeded schedule of faults.  Immutable once installed;
/// shared read-only by every rank thread.
class FaultPlan {
 public:
  FaultPlan() = default;

  FaultPlan& add_straggler(int rank, CollectiveType collective,
                           uint64_t call_index, double delay_s);
  FaultPlan& add_bitflip(int rank, CollectiveType collective,
                         uint64_t call_index, int peer = -1);
  FaultPlan& add_truncate(int rank, CollectiveType collective,
                          uint64_t call_index, int peer = -1);
  FaultPlan& add_rank_failure(int rank, int level);

  /// Seeded random plan: `stragglers` delays, `corruptions` payload faults
  /// and `failures` hard rank failures spread over `nranks` ranks, firing
  /// within the first few dozen armed collectives / `max_level` BFS levels.
  static FaultPlan random(uint64_t seed, int nranks, int stragglers,
                          int corruptions, int failures, int max_level = 3);

  /// Straggler scheduled for this exact call, or nullptr.
  const StragglerFault* straggler(int rank, CollectiveType collective,
                                  uint64_t call_index) const;
  /// Payload fault scheduled for this exact call, or nullptr.
  const PayloadFault* payload(int rank, CollectiveType collective,
                              uint64_t call_index) const;
  const std::vector<RankFailureFault>& rank_failures() const {
    return rank_failures_;
  }

  bool empty() const {
    return stragglers_.empty() && payloads_.empty() && rank_failures_.empty();
  }

  std::string to_string() const;

 private:
  std::vector<StragglerFault> stragglers_;
  std::vector<PayloadFault> payloads_;
  std::vector<RankFailureFault> rank_failures_;
};

/// Per-rank fault accounting, surfaced through SpmdReport.
struct FaultStats {
  uint64_t injected_stragglers = 0;
  uint64_t injected_corruptions = 0;
  uint64_t injected_failures = 0;
  uint64_t detected = 0;   ///< checksum mismatches observed by this rank
  uint64_t recovered = 0;  ///< successful rollback + replay completions
  uint64_t retries = 0;    ///< rollbacks attempted
  double backoff_s = 0;    ///< total retry backoff slept
  double straggler_delay_s = 0;
  /// Bytes sent since the last checkpoint when a rollback fired (they are
  /// re-sent during replay and re-charged through the topology cost model).
  uint64_t resent_bytes = 0;

  uint64_t injected() const {
    return injected_stragglers + injected_corruptions + injected_failures;
  }

  void merge(const FaultStats& other);
  std::string to_string() const;

  /// Fold into a metrics report as "<prefix>injected_stragglers",
  /// "<prefix>detected", ... (see docs/OBSERVABILITY.md).
  void to_report(obs::Report& report,
                 const std::string& prefix = "fault.") const;
};

/// Per-rank mutable fault state: the installed plan, policy, call counters
/// and pending-detection flag.  Owned by RankContext; consulted by Comm.
struct FaultState {
  const FaultPlan* plan = nullptr;
  FaultPolicy policy = FaultPolicy::Abort;
  bool checksums = false;
  /// Plans fire only while armed; call counters advance only while armed, so
  /// call indices are relative to the arming point (the BFS phase).
  bool armed = true;
  FaultStats stats;
  /// Armed collective calls issued by this rank, per collective type.
  std::array<uint64_t, kCollectiveTypeCount> calls{};
  /// Payload faults whose scheduled call carried no payload to corrupt;
  /// they stick and fire at the rank's next non-empty call of that type.
  std::array<const PayloadFault*, kCollectiveTypeCount> deferred{};
  /// Set when a corruption was detected under the recover policy; the BFS
  /// engines agree on it collectively and roll back.
  bool pending = false;

  bool active() const { return plan != nullptr && armed; }
  bool recovering() const {
    return plan != nullptr && policy == FaultPolicy::Recover;
  }
  bool take_pending() {
    bool p = pending;
    pending = false;
    return p;
  }
};

/// The engines' checkpoint/retry policy (sim::Recovery, sim/recover.hpp).
struct RecoveryOptions {
  /// Rollbacks allowed before the run gives up with FaultDetected.
  int max_retries = 8;
};

/// Save a level checkpoint every this many epochs (BFS levels, or exchange
/// rounds in the async engine).
inline constexpr int kCheckpointInterval = 2;
/// Capped exponential backoff slept before each replay.
inline constexpr double kBackoffBaseS = 0.5e-3;
inline constexpr double kBackoffCapS = 8e-3;

/// Backoff before retry number `retry` (1-based): kBackoffBaseS *
/// 2^(retry-1), capped at kBackoffCapS.
double backoff_delay_s(int retry);

}  // namespace sunbfs::sim
