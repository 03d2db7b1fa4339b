#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/comm.hpp"
#include "sim/comm_buffer.hpp"
#include "sim/exchange.hpp"
#include "sim/runtime.hpp"
#include "support/check.hpp"
#include "support/thread_pool.hpp"

/// Execution of the exchange plans over reusable staging pools.
///
/// ExchangeChannel<T> keeps the A2aStaging begin/push/exchange/src_offsets
/// surface the engines already speak.  One configure() call takes the rank
/// context and the engine's ExchangeOptions: it keeps the row and column
/// communicators, decides whether world rounds are staged, and sets the
/// wire encoding of every pool.  A staged world round (begin_world under
/// TwoDCA on a mesh with at least two rows and two columns) wraps every push
/// in a Routed<T> envelope and runs two ordinary — encoded, checksummed,
/// fault-injectable — alltoallvs: stage 0 over RankContext::row to the
/// row-mate in the destination's column, stage 1 over RankContext::col to
/// the destination itself.  Each stage merges in flight where the payload's
/// ExchangeMergePolicy allows, and the round finally unwraps into a receive
/// buffer whose per-source delimiters match what a direct alltoallv would
/// have produced.  Receivers that reconstruct global ids from the source
/// rank (CompactMsg, MsbfsMsg) therefore work unchanged; they only ever see
/// messages in a different order, which every receive path tolerates by
/// contract (docs/PERF.md).
///
/// Three pools by value: `direct_` carries plain T rounds, `row_pool_` and
/// `col_pool_` the routed envelopes of the two stages.  Keeping them
/// separate preserves the grow-only capacity story — prime() reserves every
/// shape up front and steady-state `comm.staging_allocs` stays zero under
/// every plan.
namespace sunbfs::sim {

template <typename T>
class ExchangeChannel {
 public:
  /// Set up world rounds on `ctx`: keep its row and column communicators,
  /// stage when `options.backend` is TwoDCA and the mesh has both rows and
  /// columns to split, and set `options.encoding` on every pool.  Call
  /// before prime() so encoded buffers land in the warmup reservation.
  void configure(RankContext& ctx, const ExchangeOptions& options) {
    mesh_ = ctx.mesh;
    self_ = ctx.rank;
    row_ = &ctx.row;
    col_ = &ctx.col;
    staged_ = options.backend == ExchangeBackend::TwoDCA && mesh_.rows > 1 &&
              mesh_.cols > 1;
    direct_.set_encoded(options.encoding);
    row_pool_.set_encoded(options.encoding);
    col_pool_.set_encoded(options.encoding);
  }
  /// Open a direct round over `nparts` peers: plain alltoallv,
  /// byte-identical to A2aStaging (the 1.5D row/column sub-exchanges).
  void begin(size_t nparts, size_t nthreads) {
    routing_ = false;
    direct_.begin(nparts, nthreads);
  }

  /// Open a world round.  Unstaged channels run the direct round — same
  /// bytes, same collective count on every rank.
  void begin_world(size_t nthreads) {
    if (!staged_) {
      begin(size_t(mesh_.ranks()), nthreads);
      return;
    }
    routing_ = true;
    row_pool_.begin(size_t(mesh_.cols), nthreads);
  }

  /// Append one message for final destination `dst` from writer lane
  /// `thread`.  Staged rounds stage it for the row-mate in dst's column.
  void push(size_t thread, size_t dst, const T& msg) {
    if (!routing_) {
      direct_.push(thread, dst, msg);
      return;
    }
    row_pool_.push(
        thread, size_t(mesh_.col_of(int(dst))),
        Routed<T>{Routed<T>::make_route(uint32_t(dst), uint32_t(self_)), msg});
  }

  /// Run the round: one alltoallv over `comm` when direct; when staged, one
  /// over the row communicator and one over the column communicator
  /// (`comm` must then be the world communicator).  `rider` (optional) comes
  /// back folded over `comm`: a staged round folds it over the row in stage
  /// 0 and the row partials over the column in stage 1, which is the same
  /// fold because every row member holds the same partial.  Returns the
  /// received concatenation, delimited per original source by src_offsets().
  std::span<const T> exchange(Comm& comm, ThreadPool& pool, Rider rider = {}) {
    if (!routing_) return direct_.exchange(comm, pool, rider);
    SUNBFS_ASSERT(comm.size() == mesh_.ranks());
    std::span<const Routed<T>> held = row_pool_.exchange(*row_, pool, rider);
    col_pool_.begin(size_t(mesh_.rows), 1);
    for (const Routed<T>& m : held)
      col_pool_.push(0, size_t(mesh_.row_of(int(m.dst_part()))), m);
    held = col_pool_.exchange(*col_, pool, rider);
    // Every surviving envelope terminates here; unwrap with a stable
    // counting sort by source rank so src_offsets() delimits exactly as a
    // direct alltoallv would (the merge policies guarantee each survivor's
    // source is the one whose payload the receiver must attribute).
    const size_t nranks = size_t(mesh_.ranks());
    if (src_offsets_.capacity() < nranks + 1) ++allocs_;
    src_offsets_.assign(nranks + 1, 0);
    for (const Routed<T>& m : held) {
      SUNBFS_ASSERT(m.dst_part() == uint32_t(self_));
      ++src_offsets_[m.src_part() + 1];
    }
    for (size_t s = 0; s < nranks; ++s) src_offsets_[s + 1] += src_offsets_[s];
    if (fill_.capacity() < nranks) ++allocs_;
    fill_.assign(src_offsets_.begin(), src_offsets_.end() - 1);
    if (held.size() > final_.capacity()) ++allocs_;
    final_.clear();
    final_.resize(held.size());
    for (const Routed<T>& m : held) final_[fill_[m.src_part()]++] = m.msg;
    return final_;
  }

  /// Per-source delimiters into the last exchange()'s result (nparts+1).
  const std::vector<size_t>& src_offsets() const {
    return routing_ ? src_offsets_ : direct_.src_offsets();
  }

  /// Pre-size every pool for world rounds staged by `nthreads` writers
  /// (A2aStaging::prime's contract; smaller sub-exchange rounds fit inside
  /// it).  `lane_cap` bounds one writer lane and `send_cap` the rank's
  /// per-round (per stage) traffic.  The row pool gets the writer lanes of
  /// its C destinations; the column pool, fed by one re-staging writer, gets
  /// R lanes that can each absorb a whole stage.
  void prime(size_t nthreads, size_t lane_cap, size_t send_cap,
             size_t recv_cap) {
    const size_t nranks = size_t(mesh_.ranks());
    SUNBFS_CHECK(row_ != nullptr);  // configure() first
    direct_.prime(nranks, nthreads, lane_cap, send_cap, recv_cap);
    if (!staged_) return;
    // The convergent row split can briefly double a rank's held volume
    // relative to the uniform per-rank bound.
    const size_t stage_cap = 2 * send_cap + 64;
    row_pool_.prime(size_t(mesh_.cols), nthreads, lane_cap, stage_cap,
                    stage_cap);
    col_pool_.prime(size_t(mesh_.rows), 1, stage_cap, stage_cap, stage_cap);
    if (src_offsets_.capacity() < nranks + 1) {
      ++allocs_;
      src_offsets_.reserve(nranks + 1);
    }
    if (fill_.capacity() < nranks) {
      ++allocs_;
      fill_.reserve(nranks);
    }
    if (final_.capacity() < send_cap) {
      ++allocs_;
      final_.reserve(send_cap);
    }
  }

  /// Total capacity growths across every pool since construction.
  uint64_t allocs() const {
    return direct_.allocs() + row_pool_.allocs() + col_pool_.allocs() +
           allocs_;
  }

 private:
  A2aStaging<T> direct_;
  A2aStaging<Routed<T>> row_pool_;  // stage 0, indexed by destination column
  A2aStaging<Routed<T>> col_pool_;  // stage 1, indexed by destination row
  Comm* row_ = nullptr;
  Comm* col_ = nullptr;
  MeshShape mesh_{};
  int self_ = 0;
  bool staged_ = false;   // configured: world rounds run both stages
  bool routing_ = false;  // the open round is a staged world round
  std::vector<T> final_;              // unwrapped staged receive buffer
  std::vector<size_t> src_offsets_;   // staged per-source delimiters
  std::vector<size_t> fill_;          // counting-sort cursors
  uint64_t allocs_ = 0;
};

}  // namespace sunbfs::sim
