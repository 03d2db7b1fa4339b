#include "sim/barrier.hpp"

#include <sched.h>

#include <thread>

#include "support/check.hpp"

namespace sunbfs::sim {

namespace {

/// CPUs this process may run on (1 when the mask cannot be read).
int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Spins between deadline checks; each check also yields the core.
constexpr uint32_t kSpinsPerYield = 256;

}  // namespace

Barrier::Barrier(int participants, int run_threads)
    : participants_(participants),
      spin_(participants > 1 && run_threads <= affinity_cpus()) {
  SUNBFS_CHECK(participants >= 1 && run_threads >= participants);
}

void Barrier::wait() {
  const uint32_t phase = phase_.load(std::memory_order_acquire);
  if (phase & kAborted) throw AbortError();
  if (participants_ == 1) return;
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    // Peers cannot arrive again before they see the new generation, so
    // the counter is reset before any of them touches it.
    arrived_.store(0, std::memory_order_relaxed);
    phase_.fetch_add(2, std::memory_order_release);
    phase_.notify_all();
    return;
  }
  uint32_t now = phase_.load(std::memory_order_acquire);
  if (spin_ && now == phase) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinTime;
    for (uint32_t spins = 1; now == phase; ++spins) {
      cpu_relax();
      if (spins % kSpinsPerYield == 0) {
        if (std::chrono::steady_clock::now() >= deadline) break;
        std::this_thread::yield();
      }
      now = phase_.load(std::memory_order_acquire);
    }
  }
  while (now == phase) {
    phase_.wait(phase, std::memory_order_acquire);
    now = phase_.load(std::memory_order_acquire);
  }
  // A completed generation wins over a concurrent abort.
  if ((now & ~kAborted) == phase) throw AbortError();
}

void Barrier::abort() {
  phase_.fetch_or(kAborted, std::memory_order_release);
  phase_.notify_all();
}

}  // namespace sunbfs::sim
