#pragma once

#include <cstdint>

#include "bfs/messages.hpp"
#include "sim/comm_buffer.hpp"
#include "sim/exchange_channel.hpp"
#include "support/thread_pool.hpp"

/// Per-rank reusable BFS resources: the intra-rank worker pool and the
/// communication staging pools.
///
/// One BfsWorkspace lives per rank for the whole run (the runner creates it
/// outside the root loop and threads it through Bfs15dOptions/Bfs1dOptions),
/// so staging capacities warm up on the first root and every later
/// level/root stages and exchanges without allocating — staging_allocs()
/// must stop moving after the warmup root.  See docs/PERF.md.
///
/// The pools are ExchangeChannels (sim/exchange_channel.hpp), which each
/// engine configures from its ExchangeOptions: a direct round behaves
/// exactly like A2aStaging, and the world-wide exchanges run staged rounds
/// under the plan the channel built (docs/COMM.md).
namespace sunbfs::bfs {

class BfsWorkspace {
 public:
  /// `threads` is the resolved intra-rank worker count (see
  /// resolve_threads_per_rank); it is taken as-is, never defaulted here.
  explicit BfsWorkspace(size_t threads) : pool_(threads) {}

  ThreadPool& pool() { return pool_; }

  /// Staging pool for compact 8-byte messages (H2L/L2H/L2L hot paths).
  sim::ExchangeChannel<CompactMsg>& compact() { return compact_; }
  /// Staging pool for full-width visit messages (the 1.5D engine's
  /// delayed-parent delivery).
  sim::ExchangeChannel<VisitMsg>& visits() { return visits_; }
  /// Reused frontier-gather receive buffer for the pull kernels.
  sim::GatherBuffer<uint64_t>& frontier() { return frontier_; }
  /// Staging pool for the asynchronous engine's speculative visit rounds
  /// (bfs/bfsasync.cpp): depth-carrying messages with a min-depth in-flight
  /// fold.
  sim::ExchangeChannel<AsyncVisitMsg>& async_visits() { return async_; }

  /// Total capacity growths across all pools since construction.
  uint64_t staging_allocs() const {
    return compact_.allocs() + visits_.allocs() + frontier_.allocs() +
           async_.allocs();
  }

 private:
  ThreadPool pool_;
  sim::ExchangeChannel<CompactMsg> compact_;
  sim::ExchangeChannel<VisitMsg> visits_;
  sim::GatherBuffer<uint64_t> frontier_;
  sim::ExchangeChannel<AsyncVisitMsg> async_;
};

}  // namespace sunbfs::bfs
