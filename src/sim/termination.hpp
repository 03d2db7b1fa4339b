#pragma once

#include <cstdint>

#include "sim/comm.hpp"

/// Counting termination detection for asynchronous engines.
///
/// The level-synchronous engines know they are done when an allreduced
/// frontier count hits zero — there is a global level boundary to ask the
/// question at.  An asynchronous engine has no levels: work keeps appearing
/// as long as any message anywhere can still trigger a relaxation, so
/// "done" is a distributed-quiescence question.  The classic answer
/// (Mattern's four-counter / double-wave scheme) counts message credits:
/// every rank tracks how many messages it has sent (S_i) and received (R_i)
/// since the start of the computation, and a probe wave reduces
/// (sum S, sum R, all locally idle).  One wave is not safe — a message can
/// be in flight past the probe, reactivating a rank that already reported
/// idle — so termination is announced only when TWO consecutive waves agree:
/// both observe every rank idle, and the four counters (S and R of each
/// wave) show that no traffic moved in between.  Any message delivered
/// between the waves would bump R; any new send would bump S; either
/// difference restarts the handshake.
///
/// The probe is one allreduce over a small fixed struct, so on the simulator's
/// collectives it costs the same as the sync engines' per-level frontier
/// count — the async win is paying it O(probe waves) times instead of
/// O(diameter) times.
///
/// Credit accounting modes.  With `strict_credits` (the default) the waves
/// additionally require sum S == sum R — the full four-counter rule, which
/// is what makes the scheme safe on a genuinely asynchronous transport
/// where receipt lags sending (tests/test_async.cpp races a delayed-delivery
/// channel against the probe).  An engine whose channel *folds* messages in
/// flight (ExchangeMergePolicy under the staged TwoDCA plan: k same-target
/// messages arrive as one representative) must turn strict credits off,
/// because delivered counts legitimately undershoot sent counts.  That stays
/// safe here because every exchange completes inside the collective call —
/// there is no in-flight state at probe time — so two agreeing all-idle
/// waves with frozen counters already imply quiescence.
namespace sunbfs::sim {

class TerminationDetector {
 public:
  explicit TerminationDetector(bool strict_credits = true)
      : strict_(strict_credits) {}

  /// Credit bookkeeping: call as messages leave / arrive.
  void note_sent(uint64_t n) { sent_ += n; }
  void note_received(uint64_t n) { received_ += n; }

  uint64_t sent() const { return sent_; }
  uint64_t received() const { return received_; }
  uint64_t waves() const { return waves_; }

  /// One probe wave (collective over `comm` — every rank must call it in the
  /// same program order with its own idle flag).  Returns true when global
  /// quiescence is certain: this wave and the previous one both saw every
  /// rank idle and identical global (S, R) — and, under strict credits,
  /// S == R.
  /// `aux`/`aux_min` piggyback a min-fold on the wave: an engine can ride
  /// its next-round coordination value (e.g. the globally shallowest queued
  /// depth) on the probe it already pays for instead of a second allreduce.
  /// The rider never affects the termination decision.
  bool probe(Comm& comm, bool locally_idle, uint64_t aux = 0,
             uint64_t* aux_min = nullptr) {
    Wave mine{sent_, received_, locally_idle ? uint64_t(1) : uint64_t(0),
              aux};
    Wave global = comm.allreduce(mine, [](const Wave& a, const Wave& b) {
      return Wave{a.sent + b.sent, a.received + b.received, a.idle & b.idle,
                  a.aux < b.aux ? a.aux : b.aux};
    });
    if (aux_min) *aux_min = global.aux;
    ++waves_;
    const bool settled = global.idle != 0 &&
                         (!strict_ || global.sent == global.received);
    const bool unchanged = have_prev_ && prev_.idle != 0 &&
                           global.sent == prev_.sent &&
                           global.received == prev_.received;
    prev_ = global;
    have_prev_ = true;
    return settled && unchanged;
  }

  /// Rollback support: the engines checkpoint the detector with the rest of
  /// their state so replayed messages are re-counted consistently.
  struct Snapshot {
    uint64_t sent = 0;
    uint64_t received = 0;
  };
  Snapshot save() const { return Snapshot{sent_, received_}; }
  void restore(const Snapshot& snap) {
    sent_ = snap.sent;
    received_ = snap.received;
    have_prev_ = false;
  }

 private:
  struct Wave {
    uint64_t sent = 0;
    uint64_t received = 0;
    uint64_t idle = 1;
    uint64_t aux = UINT64_MAX;  ///< min-folded rider, unused by termination
  };

  bool strict_;
  uint64_t sent_ = 0;
  uint64_t received_ = 0;
  Wave prev_{};
  bool have_prev_ = false;
  uint64_t waves_ = 0;
};

}  // namespace sunbfs::sim
