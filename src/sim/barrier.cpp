#include "sim/barrier.hpp"

#include "support/check.hpp"
#include "support/spin.hpp"

namespace sunbfs::sim {

Barrier::Barrier(int participants, int run_threads)
    : participants_(participants),
      spin_(participants > 1 &&
            spin::spin_fits(size_t(run_threads), 1, spin::affinity_cpus())) {
  SUNBFS_CHECK(participants >= 1 && run_threads >= participants);
}

void Barrier::wait() {
  const uint32_t phase = phase_.load(std::memory_order_acquire);
  if (phase & kAborted) throw AbortError();
  // A completed generation wins over a concurrent abort.
  if (!arrive(phase, false)) throw AbortError();
}

void Barrier::wait_through_abort() {
  arrive(phase_.load(std::memory_order_acquire) & ~kAborted, true);
}

bool Barrier::arrive(uint32_t gen, bool through_abort) {
  if (participants_ == 1) return true;
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    // Peers cannot arrive again before they see the new generation, so
    // the counter is reset before any of them touches it.
    arrived_.store(0, std::memory_order_relaxed);
    phase_.fetch_add(2, std::memory_order_release);
    phase_.notify_all();
    return true;
  }
  uint32_t now = gen;
  do {
    now = spin::wait_while_equal(phase_, now, spin_);
  } while (through_abort && (now & ~kAborted) == gen);
  return (now & ~kAborted) != gen;
}

void Barrier::abort() {
  phase_.fetch_or(kAborted, std::memory_order_release);
  phase_.notify_all();
}

}  // namespace sunbfs::sim
