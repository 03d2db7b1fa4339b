#include "sim/recover.hpp"

#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/log.hpp"

namespace sunbfs::sim {

Recovery::Recovery(RankContext& ctx, const RecoveryOptions& options,
                   const char* engine, Hooks hooks)
    : ctx_(ctx),
      options_(options),
      engine_(engine),
      hooks_(std::move(hooks)),
      resilient_(ctx.faults.recovering()) {
  if (!resilient_) return;
  fired_.assign(ctx_.faults.plan->rank_failures().size(), false);
}

bool Recovery::fire(int epoch) {
  const auto& failures = ctx_.faults.plan->rank_failures();
  if (!resilient_) {
    for (const auto& f : failures)
      if (f.rank == ctx_.rank && f.level == epoch)
        throw RankFailure(f.rank, f.level);
    return false;
  }
  // Replicated plan, replicated epoch counter: every rank latches the same
  // entries and discards the same epoch.
  bool fired = false;
  for (size_t i = 0; i < failures.size(); ++i) {
    if (fired_[i] || failures[i].level != epoch) continue;
    fired_[i] = true;
    fired = true;
    if (failures[i].rank == ctx_.rank) {
      ++ctx_.faults.stats.injected_failures;
      log_debug(engine_, " rank ", ctx_.rank,
                ": injected hard failure at epoch ", epoch);
      if (hooks_.crash) hooks_.crash();
    }
  }
  return fired;
}

bool Recovery::agree(bool lost) {
  // A corruption of this agreement collective itself is dropped identically
  // on every rank, so the local re-check keeps the decision replicated.
  bool faulty = ctx_.world.allreduce_or(ctx_.faults.take_pending());
  faulty = ctx_.faults.take_pending() || faulty;
  if (faulty || lost) return false;
  if (in_recovery_) {
    ++ctx_.faults.stats.recovered;
    in_recovery_ = false;
    retries_ = 0;
  }
  return true;
}

void Recovery::save(int epoch) {
  if (hooks_.save) hooks_.save();
  ckpt_epoch_ = epoch;
  ckpt_bytes_ = ctx_.stats.total_bytes_sent();
}

void Recovery::retry(const char* what) {
  ++retries_;
  if (retries_ > options_.max_retries)
    throw FaultDetected(std::string("fault: ") + what +
                        " retries exhausted after " +
                        std::to_string(options_.max_retries) + " attempts");
  auto& fs = ctx_.faults.stats;
  ++fs.retries;
  in_recovery_ = true;
  const double delay = backoff_delay_s(retries_);
  fs.backoff_s += delay;
  obs::Span span("fault", "backoff", retries_);
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  obs::Tracer::advance_modeled(delay);
}

void Recovery::rollback(int& epoch) {
  obs::Span span("fault", "rollback", ckpt_epoch_);
  obs::instant("fault", "rollback_from", epoch);
  retry("recovery");
  ctx_.faults.stats.resent_bytes +=
      ctx_.stats.total_bytes_sent() - ckpt_bytes_;
  if (hooks_.restore) hooks_.restore();
  epoch = ckpt_epoch_;
  log_debug(engine_, " rank ", ctx_.rank, ": rolled back to checkpoint ",
            epoch, " (retry ", retries_, ")");
}

void Recovery::restart() {
  ctx_.faults.stats.resent_bytes +=
      ctx_.stats.total_bytes_sent() - ckpt_bytes_;
  obs::Span span("fault", "replay_restart");
  retry("recovery");
  log_debug(engine_, " rank ", ctx_.rank, ": attempt discarded, retry ",
            retries_);
}

}  // namespace sunbfs::sim
