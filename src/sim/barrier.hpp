#pragma once

#include <atomic>
#include <cstdint>
#include <stdexcept>

/// Abortable rendezvous barrier for the SPMD runtime.
namespace sunbfs::sim {

/// Thrown out of Barrier::wait on every rank when the SPMD run is aborted
/// (some rank threw); unwinds rank threads so the runtime can join them.
class AbortError : public std::runtime_error {
 public:
  AbortError() : std::runtime_error("SPMD run aborted by another rank") {}
};

/// Sense-reversing barrier over a fixed number of participants, with an
/// abort channel so a failing rank never deadlocks its peers.
///
///  * **Memory ordering.**  Everything a participant wrote before wait()
///    happens-before everything any participant does after its wait()
///    returns: arrivals are acq_rel increments of one counter, the last
///    arrival publishes the next generation with a release store to the
///    phase word, and waiters read it with acquire.
///  * **Spin rule.**  A waiter waits on the phase word with
///    spin::wait_while_equal (support/spin.hpp): it spins for at most
///    spin::kSpinTime, then sleeps on the futex.  It spins only when every
///    rank thread of the run the group belongs to fits the CPUs the process
///    may run on (sched_getaffinity at construction), so a waiter never
///    burns the core a late peer, or another group's thread, needs; the
///    last arrival's notify_all costs no syscall when nobody sleeps.  A
///    group of one never blocks.
///  * **Abort.**  abort() sets the abort bit of the phase word and wakes
///    every sleeper.  Each waiter whose generation has not completed throws
///    AbortError, as does every later wait(); a waiter whose generation
///    completed before the abort returns normally and throws at its next
///    wait.  wait_through_abort() is the exception: it ends a read phase,
///    which every participant of a completed crossing reaches, so it
///    always waits for every participant, aborted or not.
class Barrier {
 public:
  /// `participants` threads rendezvous here; `run_threads` (at least
  /// `participants`) is how many threads of the run, this group's and
  /// other groups', compete for the CPUs.
  Barrier(int participants, int run_threads);

  /// Block until all participants arrive.  Throws AbortError if abort() was
  /// or is called while waiting.
  void wait();

  /// Block until all participants arrive, even after abort().  Ends a
  /// collective's read phase: a participant unwinding on abort must not
  /// free its published buffer while a peer still reads it.
  void wait_through_abort();

  /// Wake all waiters with AbortError and make future waits throw.
  void abort();

 private:
  /// Low bit of phase_; the generation counts up in steps of two above it.
  static constexpr uint32_t kAborted = 1;

  /// Arrive for generation `gen` and wait for it.  Returns whether the
  /// generation completed; an abort ends the wait early unless
  /// `through_abort`.
  bool arrive(uint32_t gen, bool through_abort);

  // Arrivals and waiters touch separate cache lines, so spinning waiters
  // are not invalidated by every arrival.
  alignas(64) std::atomic<int> arrived_{0};
  alignas(64) std::atomic<uint32_t> phase_{0};
  int participants_;
  bool spin_;
};

}  // namespace sunbfs::sim
