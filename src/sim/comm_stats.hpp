#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

/// Per-rank accounting of communication by collective type.
///
/// Figure 11 of the paper breaks BFS time into alltoallv / allgather /
/// reduce-scatter / compute / imbalance; this structure captures the
/// communication side of that breakdown for every run.  Each collective
/// records on two clocks (modeled network seconds from the topology cost
/// model; measured host wall seconds) plus a first-class wait-for-peers
/// measurement — the thread-CPU arrival spread at the collective — so the
/// imbalance bar is measured, not derived by subtraction.
namespace sunbfs::sim {

enum class CollectiveType : int {
  Alltoallv = 0,
  Allgather,
  ReduceScatter,
  Allreduce,
  Barrier,
};
inline constexpr int kCollectiveTypeCount = 5;

/// Human-readable name ("alltoallv", "allgather", ...).
const char* collective_type_name(CollectiveType type);

/// Wire encodings a staged payload block can travel as (sim/encoding.hpp):
/// raw fixed-width structs, delta-sorted varint keys, or a dense key bitmap.
/// The sender picks per block per level by measured size — the wire-level
/// analogue of the paper's top-down/bottom-up frontier-format switch.
enum class WireCodec : int {
  Raw = 0,
  Varint,
  Bitmap,
};
inline constexpr int kWireCodecCount = 3;

/// Human-readable codec name ("raw", "varint", "bitmap").
const char* wire_codec_name(WireCodec codec);

/// Accumulated per-(collective, codec) encoding histogram bucket.
struct EncodingEntry {
  uint64_t blocks = 0;         ///< destination blocks shipped with this codec
  uint64_t messages = 0;       ///< messages (or frontier words) inside them
  uint64_t raw_bytes = 0;      ///< pre-encoding fixed-width payload bytes
  uint64_t encoded_bytes = 0;  ///< bytes actually published on the wire
};

/// Accumulated counters for one collective type.
struct CollectiveEntry {
  uint64_t calls = 0;
  /// Bytes this rank sent (payload, not counting duplication inside the
  /// collective algorithm).
  uint64_t bytes_sent = 0;
  /// Portion of bytes_sent that crossed a supernode boundary.
  uint64_t bytes_inter_supernode = 0;
  /// Modeled network seconds (identical on every participating rank).
  double modeled_s = 0.0;
  /// Measured wall seconds spent inside the collective on this rank.
  double wall_s = 0.0;
  /// Part of wall_s spent waiting in the communicator's barrier; the rest
  /// is publish, copy and verify.
  double wait_s = 0.0;
  /// Rider bytes this rank contributed (sim::Rider); not part of
  /// bytes_sent, which stays payload-only.
  uint64_t rider_bytes = 0;
  /// Wait-for-peers this rank would incur on a dedicated machine: how much
  /// longer the slowest participant computed (thread-CPU clock, plus any
  /// injected straggler delay) since the previous collective — the
  /// Figure 11 "imbalance" component, measured at every collective by
  /// Comm::deposit_cpu_arrival rather than derived by subtraction.
  double imbalance_s = 0.0;
};

/// Per-rank communication statistics.
class CommStats {
 public:
  void record(CollectiveType type, uint64_t bytes_sent,
              uint64_t bytes_inter_supernode, double modeled_s,
              double wall_s, double imbalance_s, double wait_s,
              uint64_t rider_bytes = 0);

  /// Record one payload-checksum verification (ok or mismatched).
  void note_checksum(bool ok) {
    ++checksums_verified_;
    if (!ok) ++checksum_mismatches_;
  }
  uint64_t checksums_verified() const { return checksums_verified_; }
  uint64_t checksum_mismatches() const { return checksum_mismatches_; }

  const CollectiveEntry& entry(CollectiveType type) const {
    return entries_[int(type)];
  }

  /// Record one batch of payload blocks shipped under `codec` on `type`
  /// collectives (sender side; raw_bytes is what the fixed-width structs
  /// would have cost, encoded_bytes is what actually hit the wire).
  void note_encoding(CollectiveType type, WireCodec codec, uint64_t blocks,
                     uint64_t messages, uint64_t raw_bytes,
                     uint64_t encoded_bytes);

  const EncodingEntry& encoding_entry(CollectiveType type,
                                      WireCodec codec) const {
    return encodings_[int(type)][int(codec)];
  }

  /// Total wire bytes saved by encoding: sum over the histogram of
  /// (raw_bytes - encoded_bytes).  Signed because blocks that stay raw pay
  /// a small per-block header on the wire.
  int64_t encoding_saved_bytes() const;

  /// Sum of modeled seconds over all collective types.
  double total_modeled_s() const;
  /// Sum of measured wall seconds over all collective types.
  double total_wall_s() const;
  /// Sum of wait-for-peers (arrival spread) seconds over all types.
  double total_imbalance_s() const;
  uint64_t total_bytes_sent() const;
  uint64_t total_bytes_inter_supernode() const;

  /// Element-wise accumulate (for cross-rank aggregation).
  void merge(const CommStats& other);

  void reset();

  std::string to_string() const;

  /// Fold into a metrics report: per-type counters/gauges under
  /// "<prefix><type>." plus "<prefix>checksums_*" (see
  /// docs/OBSERVABILITY.md for the schema).  Empty collective types are
  /// skipped.
  void to_report(obs::Report& report,
                 const std::string& prefix = "comm.") const;

 private:
  std::array<CollectiveEntry, kCollectiveTypeCount> entries_{};
  std::array<std::array<EncodingEntry, kWireCodecCount>, kCollectiveTypeCount>
      encodings_{};
  uint64_t checksums_verified_ = 0;
  uint64_t checksum_mismatches_ = 0;
};

}  // namespace sunbfs::sim
