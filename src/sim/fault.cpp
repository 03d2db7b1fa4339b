#include "sim/fault.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "support/check.hpp"
#include "support/random.hpp"

namespace sunbfs::sim {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::Straggler: return "straggler";
    case FaultKind::BitFlip: return "bit-flip";
    case FaultKind::Truncate: return "truncate";
    case FaultKind::RankFailure: return "rank-failure";
  }
  return "?";
}

// ---- checksum64: XXH64 ------------------------------------------------------

namespace {
constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;
constexpr uint64_t kSeed = 0x5C0FB15Dull;  // fixed: checksums must agree

inline uint64_t rotl64(uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline uint64_t read64(const unsigned char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint32_t read32(const unsigned char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t round64(uint64_t acc, uint64_t input) {
  acc += input * kP2;
  acc = rotl64(acc, 31);
  return acc * kP1;
}

inline uint64_t merge_round(uint64_t acc, uint64_t val) {
  acc ^= round64(0, val);
  return acc * kP1 + kP4;
}
}  // namespace

uint64_t checksum64(const void* data, uint64_t nbytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const unsigned char* end = p + nbytes;
  uint64_t h;
  if (nbytes >= 32) {
    uint64_t v1 = kSeed + kP1 + kP2, v2 = kSeed + kP2, v3 = kSeed,
             v4 = kSeed - kP1;
    do {
      v1 = round64(v1, read64(p));
      v2 = round64(v2, read64(p + 8));
      v3 = round64(v3, read64(p + 16));
      v4 = round64(v4, read64(p + 24));
      p += 32;
    } while (p + 32 <= end);
    h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) + rotl64(v4, 18);
    h = merge_round(h, v1);
    h = merge_round(h, v2);
    h = merge_round(h, v3);
    h = merge_round(h, v4);
  } else {
    h = kSeed + kP5;
  }
  h += nbytes;
  while (p + 8 <= end) {
    h ^= round64(0, read64(p));
    h = rotl64(h, 27) * kP1 + kP4;
    p += 8;
  }
  if (p + 4 <= end) {
    h ^= uint64_t(read32(p)) * kP1;
    h = rotl64(h, 23) * kP2 + kP3;
    p += 4;
  }
  while (p < end) {
    h ^= uint64_t(*p) * kP5;
    h = rotl64(h, 11) * kP1;
    ++p;
  }
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

// ---- FaultPlan --------------------------------------------------------------

FaultPlan& FaultPlan::add_straggler(int rank, CollectiveType collective,
                                    uint64_t call_index, double delay_s) {
  SUNBFS_CHECK(rank >= 0 && delay_s >= 0);
  stragglers_.push_back(StragglerFault{rank, collective, call_index, delay_s});
  return *this;
}

FaultPlan& FaultPlan::add_bitflip(int rank, CollectiveType collective,
                                  uint64_t call_index, int peer) {
  SUNBFS_CHECK(rank >= 0);
  payloads_.push_back(
      PayloadFault{rank, collective, call_index, FaultKind::BitFlip, peer});
  return *this;
}

FaultPlan& FaultPlan::add_truncate(int rank, CollectiveType collective,
                                   uint64_t call_index, int peer) {
  SUNBFS_CHECK(rank >= 0);
  payloads_.push_back(
      PayloadFault{rank, collective, call_index, FaultKind::Truncate, peer});
  return *this;
}

FaultPlan& FaultPlan::add_rank_failure(int rank, int level) {
  SUNBFS_CHECK(rank >= 0 && level >= 1);
  rank_failures_.push_back(RankFailureFault{rank, level});
  return *this;
}

FaultPlan FaultPlan::random(uint64_t seed, int nranks, int stragglers,
                            int corruptions, int failures, int max_level) {
  SUNBFS_CHECK(nranks >= 1 && max_level >= 1);
  Xoshiro256StarStar rng(seed ^ 0xFA017ull);
  FaultPlan plan;
  // Corruptions target the bulk BFS collectives; call indices stay small so
  // they fire within the first BFS run after arming.
  const CollectiveType kTargets[] = {CollectiveType::Alltoallv,
                                     CollectiveType::Allgather,
                                     CollectiveType::Allreduce};
  for (int i = 0; i < stragglers; ++i)
    plan.add_straggler(int(rng.next_below(uint64_t(nranks))),
                       CollectiveType::Allreduce, rng.next_below(6),
                       0.5e-3 + rng.next_double() * 2e-3);
  for (int i = 0; i < corruptions; ++i) {
    CollectiveType t = kTargets[rng.next_below(3)];
    int rank = int(rng.next_below(uint64_t(nranks)));
    uint64_t call = 1 + rng.next_below(8);
    if (rng.next_below(2) == 0)
      plan.add_bitflip(rank, t, call);
    else
      plan.add_truncate(rank, t, call);
  }
  for (int i = 0; i < failures; ++i)
    plan.add_rank_failure(int(rng.next_below(uint64_t(nranks))),
                          1 + int(rng.next_below(uint64_t(max_level))));
  return plan;
}

const StragglerFault* FaultPlan::straggler(int rank, CollectiveType collective,
                                           uint64_t call_index) const {
  for (const auto& s : stragglers_)
    if (s.rank == rank && s.collective == collective &&
        s.call_index == call_index)
      return &s;
  return nullptr;
}

const PayloadFault* FaultPlan::payload(int rank, CollectiveType collective,
                                       uint64_t call_index) const {
  for (const auto& f : payloads_)
    if (f.rank == rank && f.collective == collective &&
        f.call_index == call_index)
      return &f;
  return nullptr;
}

std::string FaultPlan::to_string() const {
  std::ostringstream os;
  for (const auto& s : stragglers_)
    os << "  straggler: rank " << s.rank << ", "
       << collective_type_name(s.collective) << " call " << s.call_index
       << ", " << s.delay_s * 1e3 << " ms\n";
  for (const auto& f : payloads_)
    os << "  " << fault_kind_name(f.kind) << ": rank " << f.rank << ", "
       << collective_type_name(f.collective) << " call " << f.call_index
       << "\n";
  for (const auto& f : rank_failures_)
    os << "  rank-failure: rank " << f.rank << " at level " << f.level << "\n";
  return os.str();
}

// ---- FaultStats -------------------------------------------------------------

void FaultStats::merge(const FaultStats& other) {
  injected_stragglers += other.injected_stragglers;
  injected_corruptions += other.injected_corruptions;
  injected_failures += other.injected_failures;
  detected += other.detected;
  recovered += other.recovered;
  retries += other.retries;
  backoff_s += other.backoff_s;
  straggler_delay_s += other.straggler_delay_s;
  resent_bytes += other.resent_bytes;
}

std::string FaultStats::to_string() const {
  std::ostringstream os;
  os << "injected " << injected() << " (" << injected_stragglers
     << " stragglers, " << injected_corruptions << " corruptions, "
     << injected_failures << " failures), detected " << detected
     << ", recovered " << recovered << ", retries " << retries << ", backoff "
     << backoff_s * 1e3 << " ms, resent " << resent_bytes << " B";
  return os.str();
}

void FaultStats::to_report(obs::Report& report,
                           const std::string& prefix) const {
  report.add_counter(prefix + "injected_stragglers", injected_stragglers);
  report.add_counter(prefix + "injected_corruptions", injected_corruptions);
  report.add_counter(prefix + "injected_failures", injected_failures);
  report.add_counter(prefix + "detected", detected);
  report.add_counter(prefix + "recovered", recovered);
  report.add_counter(prefix + "retries", retries);
  report.add_counter(prefix + "resent_bytes", resent_bytes);
  report.gauge(prefix + "backoff_s",
               report.gauge(prefix + "backoff_s") + backoff_s);
  report.gauge(prefix + "straggler_delay_s",
               report.gauge(prefix + "straggler_delay_s") +
                   straggler_delay_s);
}

double backoff_delay_s(int retry) {
  SUNBFS_CHECK(retry >= 1);
  double d = kBackoffBaseS;
  for (int i = 1; i < retry && d < kBackoffCapS; ++i) d *= 2;
  return std::min(d, kBackoffCapS);
}

}  // namespace sunbfs::sim
