#include "chip/chip.hpp"

#include <cstring>
#include <mutex>

#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace sunbfs::chip {

CpeContext::CpeContext(Chip* chip, int cg, int cpe,
                       detail::CgRunState* cg_state,
                       detail::ChipRunState* chip_state)
    : chip_(chip),
      cg_(cg),
      cpe_(cpe),
      cg_state_(cg_state),
      chip_state_(chip_state) {}

const Geometry& CpeContext::geometry() const { return chip_->geometry(); }
const CostModel& CpeContext::cost() const { return chip_->cost(); }

Ldm& CpeContext::ldm() { return chip_->ldm(cg_, cpe_); }

void CpeContext::dma_get(void* ldm_dst, const void* mem_src, size_t bytes) {
  counters_.dma_ops++;
  counters_.dma_bytes += bytes;
  counters_.cycles +=
      cost().dma_startup_cycles +
      double(bytes) / cost().dma_bytes_per_cycle_per_cpe(
                          geometry().core_groups, geometry().cpes_per_cg);
  std::memcpy(ldm_dst, mem_src, bytes);
}

void CpeContext::dma_put(void* mem_dst, const void* ldm_src, size_t bytes) {
  counters_.dma_ops++;
  counters_.dma_bytes += bytes;
  counters_.cycles +=
      cost().dma_startup_cycles +
      double(bytes) / cost().dma_bytes_per_cycle_per_cpe(
                          geometry().core_groups, geometry().cpes_per_cg);
  std::memcpy(mem_dst, ldm_src, bytes);
}

void CpeContext::rma_put(int peer_cpe, size_t peer_off, const void* src,
                         size_t bytes) {
  Ldm& peer = chip_->ldm(cg_, peer_cpe);
  SUNBFS_CHECK(peer_off + bytes <= peer.capacity());
  charge_rma(bytes);
  std::memcpy(peer.data() + peer_off, src, bytes);
}

void CpeContext::rma_get(void* dst, int peer_cpe, size_t peer_off,
                         size_t bytes) {
  Ldm& peer = chip_->ldm(cg_, peer_cpe);
  SUNBFS_CHECK(peer_off + bytes <= peer.capacity());
  charge_rma(bytes);
  std::memcpy(dst, peer.data() + peer_off, bytes);
}

namespace {
// Max-synchronize `cycles` across participants using the state's three
// barriers: collect max, adopt it, then reset for the next sync.
template <typename State>
void synced_barrier(State* st, double& cycles, double sync_cost) {
  {
    std::lock_guard<std::mutex> lk(st->mu);
    st->max_cycles = std::max(st->max_cycles, cycles);
  }
  st->barrier.wait();
  cycles = st->max_cycles + sync_cost;
  st->barrier2.wait();
  {
    std::lock_guard<std::mutex> lk(st->mu);
    st->max_cycles = 0;  // idempotent across participants
  }
  st->barrier3.wait();
}
}  // namespace

void CpeContext::sync_cg() {
  synced_barrier(cg_state_, counters_.cycles, cost().cg_sync_cycles);
}

void CpeContext::sync_chip() {
  SUNBFS_CHECK_MSG(chip_state_ != nullptr,
                   "sync_chip() requires a multi-CG run");
  // Cross-CG synchronization happens through main-memory atomics on the real
  // chip; charge accordingly.
  synced_barrier(chip_state_, counters_.cycles, cost().atomic_cycles);
}

Chip::Chip(Geometry geometry, CostModel cost)
    : geo_(geometry), cost_(cost) {
  SUNBFS_CHECK(geo_.core_groups >= 1 && geo_.cpes_per_cg >= 1);
  ldms_.reserve(size_t(geo_.total_cpes()));
  for (int i = 0; i < geo_.total_cpes(); ++i)
    ldms_.push_back(std::make_unique<Ldm>(geo_.ldm_bytes));
}

Ldm& Chip::ldm(int cg, int cpe) {
  SUNBFS_ASSERT(cg >= 0 && cg < geo_.core_groups);
  SUNBFS_ASSERT(cpe >= 0 && cpe < geo_.cpes_per_cg);
  return *ldms_[size_t(cg) * geo_.cpes_per_cg + cpe];
}

KernelReport Chip::run(const Kernel& kernel, int n_cgs) {
  if (n_cgs < 0) n_cgs = geo_.core_groups;
  SUNBFS_CHECK(n_cgs >= 1 && n_cgs <= geo_.core_groups);
  const int ncpes = n_cgs * geo_.cpes_per_cg;

  std::vector<std::unique_ptr<detail::CgRunState>> cg_states;
  for (int g = 0; g < n_cgs; ++g)
    cg_states.push_back(
        std::make_unique<detail::CgRunState>(geo_.cpes_per_cg, ncpes));
  detail::ChipRunState chip_state(ncpes);

  std::vector<CpeContext> contexts;
  contexts.reserve(size_t(ncpes));
  for (int g = 0; g < n_cgs; ++g)
    for (int c = 0; c < geo_.cpes_per_cg; ++c)
      contexts.emplace_back(this, g, c, cg_states[g].get(), &chip_state);

  std::mutex err_mu;
  std::exception_ptr first_error;
  auto abort_all = [&] {
    for (auto& st : cg_states) {
      st->barrier.abort();
      st->barrier2.abort();
      st->barrier3.abort();
    }
    chip_state.barrier.abort();
    chip_state.barrier2.abort();
    chip_state.barrier3.abort();
  };

  WallTimer wall;
  auto cpe_main = [&](int idx) {
    try {
      kernel(contexts[size_t(idx)]);
    } catch (const sim::AbortError&) {
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
      abort_all();
    }
  };

  if (ncpes == 1) {
    cpe_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(size_t(ncpes));
    for (int i = 0; i < ncpes; ++i) threads.emplace_back(cpe_main, i);
    for (auto& t : threads) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);

  KernelReport report;
  report.wall_seconds = wall.seconds();
  for (const auto& ctx : contexts) {
    const auto& c = ctx.counters();
    report.max_cycles = std::max(report.max_cycles, c.cycles);
    report.totals.cycles += c.cycles;
    report.totals.dma_bytes += c.dma_bytes;
    report.totals.rma_bytes += c.rma_bytes;
    report.totals.dma_ops += c.dma_ops;
    report.totals.rma_ops += c.rma_ops;
    report.totals.gld_ops += c.gld_ops;
    report.totals.gst_ops += c.gst_ops;
    report.totals.atomic_ops += c.atomic_ops;
    report.totals.cached_loads += c.cached_loads;
    report.totals.cached_hits += c.cached_hits;
  }
  report.modeled_seconds = cost_.seconds(report.max_cycles);
  obs::complete_span("chip", "kernel", int64_t(report.totals.cycles),
                     report.wall_seconds, report.modeled_seconds);
  return report;
}

KernelReport Chip::run_mpe(const std::function<void(MpeContext&)>& fn) {
  WallTimer wall;
  MpeContext ctx(cost_);
  fn(ctx);
  KernelReport report;
  report.wall_seconds = wall.seconds();
  report.max_cycles = ctx.cycles();
  report.totals.cycles = ctx.cycles();
  report.modeled_seconds = ctx.cycles() / cost_.mpe_hz;
  obs::complete_span("chip", "mpe_kernel", int64_t(ctx.cycles()),
                     report.wall_seconds, report.modeled_seconds);
  return report;
}

}  // namespace sunbfs::chip
