#pragma once

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

/// Bounded spin-then-sleep waiting, shared by sim::Barrier and ThreadPool.
///
/// A waiter first spins on the word it waits for (`pause`, with a `yield`
/// every few hundred spins) for at most kSpinTime, then sleeps in
/// std::atomic::wait (a futex).  It spins only when every thread of the run
/// fits the CPUs the process may run on (spin_fits), so a spinning waiter
/// never burns the core that the thread it waits for needs.
namespace sunbfs::spin {

/// Longest a waiter spins before it sleeps on the futex.
inline constexpr std::chrono::microseconds kSpinTime{50};

/// Spins between deadline checks; each check also yields the core.
inline constexpr uint32_t kSpinsPerYield = 256;

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// CPUs this process may run on (1 when the mask cannot be read).
inline size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return size_t(CPU_COUNT(&set));
}

/// The spin rule: waiters may spin only when the run's `rank_threads`, each
/// driving `width` threads (itself plus its pool's workers), fit `cpus`.
inline bool spin_fits(size_t rank_threads, size_t width, size_t cpus) {
  return rank_threads * width <= cpus;
}

namespace detail {
inline thread_local size_t tls_rank_threads = 1;
}

/// Rank threads of the SPMD run the calling thread is a rank of (1 outside
/// any run): the `rank_threads` a pool built on this thread competes with.
inline size_t rank_threads() { return detail::tls_rank_threads; }

/// Marks the calling thread as one of `ranks` rank threads for its lifetime.
class RankThreadsScope {
 public:
  explicit RankThreadsScope(size_t ranks) : prev_(detail::tls_rank_threads) {
    detail::tls_rank_threads = ranks;
  }
  ~RankThreadsScope() { detail::tls_rank_threads = prev_; }
  RankThreadsScope(const RankThreadsScope&) = delete;
  RankThreadsScope& operator=(const RankThreadsScope&) = delete;

 private:
  size_t prev_;
};

/// Wait until `word` no longer holds `old` and return the value it moved
/// to: spin for at most kSpinTime when `spin`, then sleep on the futex.
/// Acquire ordering: whatever the writer did before its release store is
/// visible once this returns.
template <typename T>
T wait_while_equal(const std::atomic<T>& word, T old, bool spin) {
  T now = word.load(std::memory_order_acquire);
  if (spin && now == old) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinTime;
    for (uint32_t spins = 1; now == old; ++spins) {
      cpu_relax();
      if (spins % kSpinsPerYield == 0) {
        if (std::chrono::steady_clock::now() >= deadline) break;
        std::this_thread::yield();
      }
      now = word.load(std::memory_order_acquire);
    }
  }
  while (now == old) {
    word.wait(old, std::memory_order_acquire);
    now = word.load(std::memory_order_acquire);
  }
  return now;
}

}  // namespace sunbfs::spin
