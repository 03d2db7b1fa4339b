#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

/// Shared-memory worker pool for intra-rank parallelism.
///
/// On the simulated machine each rank's "CPE cluster" compute is expressed as
/// parallel_for over local ranges; on a single-core host the pool degrades
/// gracefully to inline execution.
namespace sunbfs {

/// Fixed-size thread pool executing indexed task batches.
///
/// Dispatch is a fork/join over three atomic words, no mutex on the hot
/// path:
///  - Fork: the caller publishes the job, stores (batch tag, chunk count)
///    into the claim word, bumps the epoch word and wakes sleepers.  Workers
///    wait on the epoch word with spin::wait_while_equal (support/spin.hpp):
///    they spin for at most spin::kSpinTime, then sleep on the futex.
///  - Claim: every participant, caller included, takes chunks in ascending
///    order by a compare-exchange that decrements the unclaimed count of
///    the claim word only while its tag is still the batch's.  A successful
///    claim therefore proves the batch has an unfinished chunk, so a late
///    worker can never run a chunk of a batch whose run_chunks returned.
///  - Join: the caller waits for the batch's *chunks* to finish (a done
///    counter), not for every worker to check in; when the caller ran every
///    chunk itself it returns at once.
///  - Spin rule: waiters spin only when spin::spin_fits holds for the SPMD
///    run the constructing thread is a rank of (spin::rank_threads()) and
///    this pool's width; otherwise they go straight to the futex.
///
/// Guarantees (see tests/test_support.cpp, ctest -L tsan):
///  - Exceptions: when chunks throw, the exception from the *lowest-indexed*
///    throwing chunk propagates to the caller, regardless of scheduling
///    order — so a failing parallel loop reports the same error at any
///    thread count.
///  - Inline: a batch of one chunk, and every batch of a one-thread pool,
///    runs on the calling thread without waking a worker.
///  - Re-entrancy: calling run_chunks / parallel_for from inside a chunk of
///    the same pool degrades to inline execution on the calling thread
///    instead of deadlocking on the dispatch protocol.
///  - One outside caller at a time, checked: a pool belongs to one rank
///    (bfs::BfsWorkspace), and every parallel call names that rank's pool.
///    A second outside thread entering a dispatching run_chunks while a
///    batch is running fails a SUNBFS_CHECK (CheckError) before it touches
///    the batch; it never queues behind the first.
class ThreadPool {
 public:
  /// Create a pool with `threads` workers.  0 means
  /// std::thread::hardware_concurrency().  A pool of size <= 1 executes
  /// everything inline on the caller thread.
  explicit ThreadPool(size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.empty() ? 1 : workers_.size() + 1; }

  /// Run fn(chunk_index) for chunk_index in [0, nchunks), distributing chunks
  /// across workers (caller participates).  Blocks until all chunks finish.
  /// If any chunks throw, the exception from the lowest chunk index is
  /// rethrown on the caller (deterministic across thread counts).
  void run_chunks(size_t nchunks, const std::function<void(size_t)>& fn);

  /// Parallel loop over [begin, end) in contiguous blocks, one block per
  /// participant: fn(block_begin, block_end).
  void parallel_for(size_t begin, size_t end,
                    const std::function<void(size_t, size_t)>& fn);

 private:
  void worker_loop();
  void run_inline(size_t nchunks, const std::function<void(size_t)>& fn);
  /// Claim and run chunks of batch `tag` until it has none left unclaimed.
  void drain(uint32_t tag);
  void record_error(size_t chunk);

  /// Waiters may spin (spin::spin_fits at construction).
  bool spin_ = false;
  /// Set by the outside caller for a whole batch: one job at a time.
  std::atomic<bool> busy_{false};
  /// The batch's job; written before the claim word is published and read
  /// only after a successful claim, so it is stable while anyone reads it.
  const std::function<void(size_t)>* job_ = nullptr;
  size_t job_chunks_ = 0;
  /// (batch tag << 32) | chunks not yet claimed.
  alignas(64) std::atomic<uint64_t> claim_{0};
  /// Batch tag workers sleep on; also bumped once by the destructor.
  alignas(64) std::atomic<uint32_t> epoch_{0};
  /// Chunks of the current batch that have finished.
  alignas(64) std::atomic<uint32_t> done_{0};
  std::atomic<bool> stop_{false};
  std::mutex error_mu_;
  std::exception_ptr error_;
  size_t error_chunk_ = 0;
  /// Declared after every member the workers touch.
  std::vector<std::thread> workers_;
};

/// Resolve the intra-rank worker-thread count for one rank of an nranks-wide
/// SPMD run.  `requested` <= 0 means auto: hardware_concurrency / nranks,
/// floored at 1, so rank-threads x workers never oversubscribe the host by
/// default.  Debug builds assert the explicit-knob total stays within 2x the
/// hardware (tests may deliberately oversubscribe a little on small hosts).
size_t resolve_threads_per_rank(int requested, size_t nranks);

}  // namespace sunbfs
