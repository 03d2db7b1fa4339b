#include "support/thread_pool.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "support/check.hpp"
#include "support/spin.hpp"

namespace sunbfs {

namespace {
// Pool currently executing a chunk on this thread; lets nested
// run_chunks/parallel_for calls on the same pool degrade to inline
// execution instead of deadlocking on the dispatch protocol.
thread_local ThreadPool* tls_current_pool = nullptr;

struct CurrentPoolScope {
  ThreadPool* prev;
  explicit CurrentPoolScope(ThreadPool* pool) : prev(tls_current_pool) {
    tls_current_pool = pool;
  }
  ~CurrentPoolScope() { tls_current_pool = prev; }
};
}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  spin_ = spin::spin_fits(spin::rank_threads(), threads, spin::affinity_cpus());
  // The caller participates in every batch, so spawn threads-1 workers.
  for (size_t i = 0; i + 1 < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_release);
  epoch_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::record_error(size_t chunk) {
  std::lock_guard<std::mutex> lk(error_mu_);
  if (!error_ || chunk < error_chunk_) {
    error_ = std::current_exception();
    error_chunk_ = chunk;
  }
}

void ThreadPool::worker_loop() {
  CurrentPoolScope scope(this);
  uint32_t seen = 0;
  for (;;) {
    seen = spin::wait_while_equal(epoch_, seen, spin_);
    if (stop_.load(std::memory_order_relaxed)) return;
    drain(seen);
  }
}

void ThreadPool::drain(uint32_t tag) {
  uint64_t word = claim_.load(std::memory_order_acquire);
  for (;;) {
    const uint32_t unclaimed = uint32_t(word);
    if (uint32_t(word >> 32) != tag || unclaimed == 0) return;
    if (!claim_.compare_exchange_weak(word, word - 1,
                                      std::memory_order_acquire))
      continue;
    // The claim succeeded under this batch's tag, so the batch is still
    // running and its job slots are the ones published with the tag.
    const size_t nchunks = job_chunks_;
    const size_t chunk = nchunks - unclaimed;
    try {
      (*job_)(chunk);
    } catch (...) {
      record_error(chunk);
    }
    // After the last increment the caller may return and reuse every slot.
    if (done_.fetch_add(1, std::memory_order_acq_rel) + 1 == nchunks)
      done_.notify_all();
    word = claim_.load(std::memory_order_acquire);
  }
}

void ThreadPool::run_inline(size_t nchunks,
                            const std::function<void(size_t)>& fn) {
  // Ascending order: the first throw is necessarily the lowest chunk index,
  // matching the parallel path's deterministic-first-exception guarantee.
  for (size_t i = 0; i < nchunks; ++i) fn(i);
}

void ThreadPool::run_chunks(size_t nchunks,
                            const std::function<void(size_t)>& fn) {
  if (nchunks == 0) return;
  if (nchunks == 1 || workers_.empty() || tls_current_pool == this) {
    run_inline(nchunks, fn);
    return;
  }
  SUNBFS_CHECK(nchunks <= std::numeric_limits<uint32_t>::max());
  // The job slots below hold one batch; a second outside caller would
  // overwrite the first's job and chunk count.
  SUNBFS_CHECK_MSG(!busy_.exchange(true, std::memory_order_acquire),
                   "ThreadPool: a second outside caller entered run_chunks");
  job_ = &fn;
  job_chunks_ = nchunks;
  error_ = nullptr;
  error_chunk_ = std::numeric_limits<size_t>::max();
  done_.store(0, std::memory_order_relaxed);
  const uint32_t tag = epoch_.load(std::memory_order_relaxed) + 1;
  claim_.store(uint64_t(tag) << 32 | nchunks, std::memory_order_release);
  epoch_.store(tag, std::memory_order_release);
  epoch_.notify_all();
  {
    CurrentPoolScope scope(this);
    drain(tag);
  }
  uint32_t done = done_.load(std::memory_order_acquire);
  while (done != nchunks) done = spin::wait_while_equal(done_, done, spin_);
  job_ = nullptr;
  std::exception_ptr err = std::exchange(error_, nullptr);
  busy_.store(false, std::memory_order_release);
  if (err) std::rethrow_exception(err);
}

void ThreadPool::parallel_for(size_t begin, size_t end,
                              const std::function<void(size_t, size_t)>& fn) {
  if (begin >= end) return;
  size_t n = end - begin;
  size_t parts = std::min(n, size());
  run_chunks(parts, [&](size_t p) {
    size_t lo = begin + n * p / parts;
    size_t hi = begin + n * (p + 1) / parts;
    if (lo < hi) fn(lo, hi);
  });
}

size_t resolve_threads_per_rank(int requested, size_t nranks) {
  if (nranks == 0) nranks = 1;
  size_t hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  size_t threads = requested > 0 ? size_t(requested)
                                 : std::max<size_t>(1, hw / nranks);
  SUNBFS_ASSERT(nranks * threads <= 2 * hw);
  return threads;
}

}  // namespace sunbfs
