#pragma once

#include <functional>
#include <vector>

#include "sim/fault.hpp"
#include "sim/runtime.hpp"

/// The recovery policy every collective engine follows under
/// FaultPolicy::Recover, in one place.
///
/// A level-synchronous traversal has a globally consistent cut at every
/// epoch (level, exchange round, bucket) boundary: nothing is in flight and
/// every rank has taken the same control decisions.  Engines checkpoint at
/// those cuts, and an epoch is discarded on every rank together when
///  - a planned rank failure fires at its start: the plan is replicated, so
///    every rank sees it without communication, and the victim loses its
///    volatile state; or
///  - the agreement at its end (an allreduce_or of the pending flags) finds
///    that some rank dropped a corrupted contribution.
/// Each rollback spends one retry of a consecutive-retry budget (giving up
/// with FaultDetected once it is spent), sleeps a capped exponential backoff
/// that is also charged to the modeled clock, counts the bytes sent since
/// the checkpoint as resent, and restores the checkpoint.  Every decision
/// input is replicated, so all ranks replay from the same point and the
/// committed result is bit-identical to a fault-free run.
///
/// Recovery owns that policy and its state.  An engine keeps its checkpoint
/// struct and three hooks, and marks its epoch boundaries:
///
///   sim::Recovery recovery(ctx, options.recovery, "bfs1d",
///                          {.save = ..., .restore = ..., .crash = ...});
///   recovery.checkpoint(0);
///   for (int epoch = 0;;) {
///     ++epoch;
///     if (!recovery.begin(epoch)) continue;   // rolled back
///     ... one epoch ...
///     if (!recovery.commit(epoch)) continue;  // rolled back
///     if (done) break;
///     recovery.checkpoint(epoch);
///   }
///
/// A rollback resets `epoch` to the checkpoint's.  Without the Recover
/// policy (or without a plan) every call is a no-op branch, except that
/// begin() kills a planned victim with sim::RankFailure.
namespace sunbfs::sim {

class Recovery {
 public:
  /// The engine-specific parts; each may be empty.
  struct Hooks {
    std::function<void()> save;     ///< copy durable state into the checkpoint
    std::function<void()> restore;  ///< copy it back, clear volatile state
    std::function<void()> crash;    ///< wipe what a failed rank loses
  };

  /// `engine` names the caller in debug logs.
  Recovery(RankContext& ctx, const RecoveryOptions& options,
           const char* engine, Hooks hooks = {});
  // The hooks capture the engine's state and ReplayGuard holds this object.
  Recovery(const Recovery&) = delete;
  Recovery& operator=(const Recovery&) = delete;

  /// Recover policy with a fault plan installed.
  bool resilient() const { return resilient_; }

  /// Epoch start: true when a planned rank failure fires at `epoch` (on
  /// every rank alike; each fires once, even across replays).  Without the
  /// Recover policy the victim throws RankFailure instead.
  bool failed(int epoch) {
    return (resilient_ || ctx_.faults.active()) && fire(epoch);
  }

  /// failed(epoch), rolling back when it fires.  False means the epoch was
  /// discarded and `epoch` now holds the checkpoint's.
  bool begin(int& epoch) {
    if (!failed(epoch)) return true;
    rollback(epoch);
    return false;
  }

  /// Epoch-end agreement, collective under the Recover policy: true when no
  /// rank dropped a contribution and `lost` (a replicated flag for an epoch
  /// already known to be discarded) is false.  A clean epoch after a
  /// rollback counts as recovered and refills the retry budget.
  bool clean(bool lost = false) { return !resilient_ || agree(lost); }

  /// clean(), rolling back when it is not.  False means the epoch was
  /// discarded and `epoch` now holds the checkpoint's.
  bool commit(int& epoch) {
    if (clean()) return true;
    rollback(epoch);
    return false;
  }

  /// Save the checkpoint of `epoch` if the cadence (kCheckpointInterval)
  /// asks for one; epoch 0 always.
  void checkpoint(int epoch) {
    if (resilient_ && epoch % kCheckpointInterval == 0) save(epoch);
  }

  /// Spend one retry on `what` without a rollback (an idempotent step that
  /// is simply re-run): give up once the budget is spent, else back off.
  void retry(const char* what);

  /// Discard a whole attempt (run_with_replay): its bytes count as resent,
  /// then one retry is spent.
  void restart();

 private:
  bool fire(int epoch);
  bool agree(bool lost);
  void save(int epoch);
  void rollback(int& epoch);

  RankContext& ctx_;
  const RecoveryOptions options_;
  const char* engine_;
  Hooks hooks_;
  bool resilient_;
  std::vector<bool> fired_;  ///< one-shot latch per planned rank failure
  int ckpt_epoch_ = 0;
  uint64_t ckpt_bytes_ = 0;  ///< bytes sent when the checkpoint was taken
  int retries_ = 0;          ///< consecutive retries since the last clean epoch
  bool in_recovery_ = false;
};

/// Hands planned rank failures to run_with_replay.  The body calls epoch(n)
/// once per round or bucket sweep with a replicated counter n (starting at
/// 1), at a collective-aligned point, so failures fire mid-attempt the way
/// they fire mid-search in the BFS engines.
class ReplayGuard {
 public:
  /// Internal control-flow signal thrown by epoch(); run_with_replay
  /// catches it.  Never escapes to callers.
  struct Aborted {};

  explicit ReplayGuard(Recovery& recovery) : recovery_(recovery) {}

  void epoch(int n) {
    if (recovery_.failed(n)) throw Aborted{};
  }

 private:
  Recovery& recovery_;
};

/// Whole-attempt rollback-and-replay for queries short enough that the
/// cheapest consistent checkpoint is their initial state (sssp15d):
/// restoring the checkpoint is re-running the attempt.  Runs
/// `body(guard)` — one full collective pass over ctx.world — and returns
/// the first attempt that ends clean on every rank; throws FaultDetected
/// once the retry budget is spent.  Without the Recover policy the body runs
/// exactly once (planned rank failures then kill their rank via the guard).
template <typename Body>
auto run_with_replay(RankContext& ctx, const RecoveryOptions& options,
                     Body&& body) {
  Recovery recovery(ctx, options, "replay");
  ReplayGuard guard(recovery);
  if (!recovery.resilient()) return body(guard);
  for (;;) {
    // The attempt starts clean: pending flags left over from a discarded
    // attempt were accounted for by that attempt's restart already.
    (void)ctx.faults.take_pending();
    recovery.checkpoint(0);
    bool aborted = false;
    decltype(body(guard)) result{};
    try {
      result = body(guard);
    } catch (const ReplayGuard::Aborted&) {
      aborted = true;
    }
    // Aborted or not, every rank reaches this agreement at the same program
    // position (the abort decision is replicated), so it stays aligned.
    if (recovery.clean(aborted)) return result;
    recovery.restart();
  }
}

}  // namespace sunbfs::sim
