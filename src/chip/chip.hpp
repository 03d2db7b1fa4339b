#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "chip/arch.hpp"
#include "chip/ldcache.hpp"
#include "chip/ldm.hpp"
#include "sim/barrier.hpp"
#include "support/check.hpp"

/// Functional SW26010-Pro simulator.
///
/// Kernels run on one host thread per CPE against per-CPE Ldm scratchpads.
/// Every memory operation goes through the CpeContext so the cost model can
/// charge cycles; a kernel's modeled time is the maximum cycle count over the
/// participating CPEs.  Concurrency discipline matches the hardware: RMA into
/// a peer's LDM is only safe when the kernel orders it with flags
/// (rma_post/ldm_atomic) or barriers (sync_cg/sync_chip), exactly as on the
/// real chip.
namespace sunbfs::chip {

class Chip;

/// Per-CPE operation counters (merged into the kernel report).
struct CpeCounters {
  double cycles = 0;
  uint64_t dma_bytes = 0;
  uint64_t rma_bytes = 0;
  uint64_t dma_ops = 0;
  uint64_t rma_ops = 0;
  uint64_t gld_ops = 0;
  uint64_t gst_ops = 0;
  uint64_t atomic_ops = 0;
  uint64_t cached_loads = 0;
  uint64_t cached_hits = 0;
};

/// Result of one kernel execution.
struct KernelReport {
  double max_cycles = 0;       ///< max over CPEs -> modeled kernel time
  double modeled_seconds = 0;  ///< max_cycles / cpe_hz
  double wall_seconds = 0;     ///< host wall time (simulation cost, not model)
  CpeCounters totals;          ///< ops/bytes summed over CPEs

  /// Modeled throughput for a kernel that processed `bytes` of payload.
  double modeled_bytes_per_s(uint64_t bytes) const {
    return modeled_seconds > 0 ? double(bytes) / modeled_seconds : 0.0;
  }
};

namespace detail {
/// Shared state for one core group during a run (cycle-synced barrier).
struct CgRunState {
  CgRunState(int participants, int run_threads)
      : barrier(participants, run_threads),
        barrier2(participants, run_threads),
        barrier3(participants, run_threads) {}
  sim::Barrier barrier, barrier2, barrier3;
  std::mutex mu;
  double max_cycles = 0;
};
/// Shared state across all participating CGs.
struct ChipRunState {
  explicit ChipRunState(int participants)
      : barrier(participants, participants),
        barrier2(participants, participants),
        barrier3(participants, participants) {}
  sim::Barrier barrier, barrier2, barrier3;
  std::mutex mu;
  double max_cycles = 0;
};
}  // namespace detail

/// Execution context handed to a kernel on each CPE.
class CpeContext {
 public:
  CpeContext(Chip* chip, int cg, int cpe, detail::CgRunState* cg_state,
             detail::ChipRunState* chip_state);

  int cg() const { return cg_; }
  int cpe() const { return cpe_; }
  const Geometry& geometry() const;
  const CostModel& cost() const;

  /// This CPE's scratchpad.
  Ldm& ldm();

  // --- DMA: bulk copies between main memory and own LDM ------------------
  void dma_get(void* ldm_dst, const void* mem_src, size_t bytes);
  void dma_put(void* mem_dst, const void* ldm_src, size_t bytes);

  // --- RMA: one-sided access to a peer CPE's LDM (same CG only) ----------
  void rma_put(int peer_cpe, size_t peer_off, const void* src, size_t bytes);
  void rma_get(void* dst, int peer_cpe, size_t peer_off, size_t bytes);

  /// Read one T from a peer's LDM (single-element RMA get).
  template <typename T>
  T rma_read(int peer_cpe, size_t peer_off) {
    T out;
    rma_get(&out, peer_cpe, peer_off, sizeof(T));
    return out;
  }

  /// Post a flag value into a peer's LDM with release semantics (small RMA
  /// put used for producer/consumer handshakes).
  template <typename T>
  void rma_post(int peer_cpe, size_t off, T value) {
    charge_rma(sizeof(T));
    peer_ldm_atomic<T>(peer_cpe, off).store(value, std::memory_order_release);
  }

  /// Atomic view of a flag in this CPE's own LDM (poll with acquire).
  template <typename T>
  std::atomic<T>& ldm_atomic(size_t off) {
    return peer_ldm_atomic<T>(cpe_, off);
  }

  // --- direct main-memory access (GLD/GST: slow, uncached) ---------------
  template <typename T>
  T gld(const T& loc) {
    counters_.gld_ops++;
    counters_.cycles += cost().gld_cycles;
    return loc;
  }

  template <typename T>
  void gst(T& loc, T value) {
    counters_.gst_ops++;
    counters_.cycles += cost().gst_cycles;
    loc = value;
  }

  /// Reconfigure part of this CPE's LDM as an LDCache (§3.1.2: "shares
  /// physical space with LDM ... easily reconfigure at runtime").  The
  /// bytes are carved out of the LDM allocator, so kernels cannot
  /// double-spend the scratchpad.
  void enable_ldcache(size_t bytes, size_t line_bytes = 256) {
    ldm().alloc(bytes);  // reserve the physical space (capacity-checked)
    ldcache_.emplace(bytes, line_bytes);
  }

  const LdCache* ldcache() const { return ldcache_ ? &*ldcache_ : nullptr; }

  /// Main-memory load through the LDCache when enabled (plain GLD
  /// otherwise).  Hits cost a couple of LDM cycles; misses cost a memory
  /// access plus the line fill.
  template <typename T>
  T cached_load(const T& loc) {
    if (!ldcache_) return gld(loc);
    counters_.cached_loads++;
    if (ldcache_->access(reinterpret_cast<uint64_t>(&loc))) {
      counters_.cached_hits++;
      counters_.cycles += 2 * cost().ldm_cycles;
    } else {
      counters_.cycles +=
          cost().gld_cycles +
          double(ldcache_->line_bytes()) /
              cost().dma_bytes_per_cycle_per_cpe(geometry().core_groups,
                                                 geometry().cpes_per_cg);
    }
    return loc;
  }

  /// Main-memory atomic fetch-add (the chip's only cross-CG sync primitive;
  /// expensive by design).
  uint64_t atomic_add(std::atomic<uint64_t>& target, uint64_t delta) {
    counters_.atomic_ops++;
    counters_.cycles += cost().atomic_cycles;
    return target.fetch_add(delta, std::memory_order_acq_rel);
  }

  // --- compute & synchronization ------------------------------------------
  /// Charge pure-compute cycles.
  void add_cycles(double c) { counters_.cycles += c; }
  double cycles() const { return counters_.cycles; }

  /// Barrier over this CG's CPEs; cycle counters are max-synchronized so the
  /// modeled clock advances together.
  void sync_cg();

  /// Barrier over every participating CPE of the chip.
  void sync_chip();

  /// Spin until pred() is true, yielding the host CPU (models waiting on a
  /// flag in LDM; modeled time advances at the next cycle sync).
  template <typename Pred>
  void wait(Pred pred) {
    while (!pred()) std::this_thread::yield();
  }

  const CpeCounters& counters() const { return counters_; }

 private:
  friend class Chip;

  template <typename T>
  std::atomic<T>& peer_ldm_atomic(int peer_cpe, size_t off);

  void charge_rma(size_t bytes) {
    counters_.rma_ops++;
    counters_.rma_bytes += bytes;
    counters_.cycles +=
        cost().rma_startup_cycles + double(bytes) / cost().rma_bytes_per_cycle;
  }

  Chip* chip_;
  int cg_;
  int cpe_;
  detail::CgRunState* cg_state_;
  detail::ChipRunState* chip_state_;
  CpeCounters counters_;
  std::optional<LdCache> ldcache_;
};

/// Sequential execution context on a Management Processing Element.  Memory
/// accesses are charged at cache-missing main-memory cost, modeling the
/// paper's MPE baseline for irregular kernels.
class MpeContext {
 public:
  explicit MpeContext(const CostModel& cost) : cost_(cost) {}

  template <typename T>
  T load(const T& loc) {
    cycles_ += cost_.mpe_mem_cycles;
    return loc;
  }

  template <typename T>
  void store(T& loc, T value) {
    cycles_ += cost_.mpe_mem_cycles;
    loc = value;
  }

  void add_cycles(double c) { cycles_ += c; }
  double cycles() const { return cycles_; }

 private:
  const CostModel& cost_;
  double cycles_ = 0;
};

using Kernel = std::function<void(CpeContext&)>;

/// The chip: owns all LDMs and runs kernels.
class Chip {
 public:
  explicit Chip(Geometry geometry = Geometry::sw26010pro(),
                CostModel cost = {});

  const Geometry& geometry() const { return geo_; }
  const CostModel& cost() const { return cost_; }

  /// Run `kernel` on every CPE of the first `n_cgs` core groups (-1 = all).
  /// Blocks until all CPEs return; rethrows the first kernel exception.
  KernelReport run(const Kernel& kernel, int n_cgs = -1);

  /// Run a sequential function on the MPE with memory-cost accounting.
  KernelReport run_mpe(const std::function<void(MpeContext&)>& fn);

  /// Scratchpad of CPE (cg, cpe).
  Ldm& ldm(int cg, int cpe);

 private:
  friend class CpeContext;

  Geometry geo_;
  CostModel cost_;
  std::vector<std::unique_ptr<Ldm>> ldms_;
};

template <typename T>
std::atomic<T>& CpeContext::peer_ldm_atomic(int peer_cpe, size_t off) {
  static_assert(std::atomic<T>::is_always_lock_free);
  Ldm& peer = chip_->ldm(cg_, peer_cpe);
  SUNBFS_ASSERT(off % alignof(std::atomic<T>) == 0);
  SUNBFS_ASSERT(off + sizeof(T) <= peer.capacity());
  return *reinterpret_cast<std::atomic<T>*>(peer.data() + off);
}

}  // namespace sunbfs::chip
