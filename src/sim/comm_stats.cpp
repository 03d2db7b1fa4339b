#include "sim/comm_stats.hpp"

#include <sstream>

namespace sunbfs::sim {

const char* collective_type_name(CollectiveType type) {
  switch (type) {
    case CollectiveType::Alltoallv: return "alltoallv";
    case CollectiveType::Allgather: return "allgather";
    case CollectiveType::ReduceScatter: return "reduce_scatter";
    case CollectiveType::Allreduce: return "allreduce";
    case CollectiveType::Barrier: return "barrier";
  }
  return "?";
}

const char* wire_codec_name(WireCodec codec) {
  switch (codec) {
    case WireCodec::Raw: return "raw";
    case WireCodec::Varint: return "varint";
    case WireCodec::Bitmap: return "bitmap";
  }
  return "?";
}

void CommStats::note_encoding(CollectiveType type, WireCodec codec,
                              uint64_t blocks, uint64_t messages,
                              uint64_t raw_bytes, uint64_t encoded_bytes) {
  auto& e = encodings_[int(type)][int(codec)];
  e.blocks += blocks;
  e.messages += messages;
  e.raw_bytes += raw_bytes;
  e.encoded_bytes += encoded_bytes;
}

int64_t CommStats::encoding_saved_bytes() const {
  int64_t saved = 0;
  for (const auto& row : encodings_)
    for (const auto& e : row)
      saved += int64_t(e.raw_bytes) - int64_t(e.encoded_bytes);
  return saved;
}

void CommStats::record(CollectiveType type, uint64_t bytes_sent,
                       uint64_t bytes_inter_supernode, double modeled_s,
                       double wall_s, double imbalance_s, double wait_s,
                       uint64_t rider_bytes) {
  auto& e = entries_[int(type)];
  e.calls += 1;
  e.bytes_sent += bytes_sent;
  e.bytes_inter_supernode += bytes_inter_supernode;
  e.modeled_s += modeled_s;
  e.wall_s += wall_s;
  e.wait_s += wait_s;
  e.imbalance_s += imbalance_s;
  e.rider_bytes += rider_bytes;
}

double CommStats::total_modeled_s() const {
  double t = 0;
  for (const auto& e : entries_) t += e.modeled_s;
  return t;
}

double CommStats::total_wall_s() const {
  double t = 0;
  for (const auto& e : entries_) t += e.wall_s;
  return t;
}

double CommStats::total_imbalance_s() const {
  double t = 0;
  for (const auto& e : entries_) t += e.imbalance_s;
  return t;
}

uint64_t CommStats::total_bytes_sent() const {
  uint64_t b = 0;
  for (const auto& e : entries_) b += e.bytes_sent;
  return b;
}

uint64_t CommStats::total_bytes_inter_supernode() const {
  uint64_t b = 0;
  for (const auto& e : entries_) b += e.bytes_inter_supernode;
  return b;
}

void CommStats::merge(const CommStats& other) {
  for (int i = 0; i < kCollectiveTypeCount; ++i) {
    entries_[i].calls += other.entries_[i].calls;
    entries_[i].bytes_sent += other.entries_[i].bytes_sent;
    entries_[i].bytes_inter_supernode += other.entries_[i].bytes_inter_supernode;
    entries_[i].modeled_s += other.entries_[i].modeled_s;
    entries_[i].wall_s += other.entries_[i].wall_s;
    entries_[i].wait_s += other.entries_[i].wait_s;
    entries_[i].imbalance_s += other.entries_[i].imbalance_s;
    entries_[i].rider_bytes += other.entries_[i].rider_bytes;
  }
  for (int t = 0; t < kCollectiveTypeCount; ++t) {
    for (int c = 0; c < kWireCodecCount; ++c) {
      encodings_[t][c].blocks += other.encodings_[t][c].blocks;
      encodings_[t][c].messages += other.encodings_[t][c].messages;
      encodings_[t][c].raw_bytes += other.encodings_[t][c].raw_bytes;
      encodings_[t][c].encoded_bytes += other.encodings_[t][c].encoded_bytes;
    }
  }
  checksums_verified_ += other.checksums_verified_;
  checksum_mismatches_ += other.checksum_mismatches_;
}

void CommStats::reset() {
  entries_ = {};
  encodings_ = {};
  checksums_verified_ = 0;
  checksum_mismatches_ = 0;
}

std::string CommStats::to_string() const {
  std::ostringstream os;
  for (int i = 0; i < kCollectiveTypeCount; ++i) {
    const auto& e = entries_[i];
    if (e.calls == 0) continue;
    os << "  " << collective_type_name(CollectiveType(i)) << ": " << e.calls
       << " calls, " << e.bytes_sent << " B sent (" << e.bytes_inter_supernode
       << " B inter-supernode), modeled " << e.modeled_s << " s, wall "
       << e.wall_s << " s (" << e.imbalance_s << " s waiting)\n";
  }
  for (int t = 0; t < kCollectiveTypeCount; ++t) {
    for (int c = 0; c < kWireCodecCount; ++c) {
      const auto& e = encodings_[t][c];
      if (e.blocks == 0) continue;
      os << "  " << collective_type_name(CollectiveType(t)) << "/"
         << wire_codec_name(WireCodec(c)) << ": " << e.blocks << " blocks, "
         << e.messages << " messages, " << e.raw_bytes << " B raw -> "
         << e.encoded_bytes << " B wire\n";
    }
  }
  if (checksums_verified_ > 0)
    os << "  checksums: " << checksums_verified_ << " verified, "
       << checksum_mismatches_ << " mismatched\n";
  return os.str();
}

void CommStats::to_report(obs::Report& report,
                          const std::string& prefix) const {
  for (int i = 0; i < kCollectiveTypeCount; ++i) {
    const auto& e = entries_[i];
    if (e.calls == 0) continue;
    std::string p = prefix + collective_type_name(CollectiveType(i)) + ".";
    report.add_counter(p + "calls", e.calls);
    report.add_counter(p + "bytes_sent", e.bytes_sent);
    report.add_counter(p + "bytes_inter_supernode", e.bytes_inter_supernode);
    report.gauge(p + "modeled_s", e.modeled_s);
    report.gauge(p + "wall_s", e.wall_s);
    report.gauge(p + "wait_s", e.wait_s);
    report.gauge(p + "imbalance_s", e.imbalance_s);
    if (e.rider_bytes > 0) report.add_counter(p + "rider_bytes", e.rider_bytes);
  }
  report.gauge(prefix + "total_modeled_s", total_modeled_s());
  report.gauge(prefix + "total_wall_s", total_wall_s());
  report.gauge(prefix + "total_imbalance_s", total_imbalance_s());
  report.add_counter(prefix + "total_bytes_sent", total_bytes_sent());
  report.add_counter(prefix + "total_bytes_inter_supernode",
                     total_bytes_inter_supernode());
  bool any_encoding = false;
  for (int t = 0; t < kCollectiveTypeCount; ++t) {
    for (int c = 0; c < kWireCodecCount; ++c) {
      const auto& e = encodings_[t][c];
      if (e.blocks == 0) continue;
      any_encoding = true;
      std::string p = prefix + "encoding." +
                      collective_type_name(CollectiveType(t)) + "." +
                      wire_codec_name(WireCodec(c)) + ".";
      report.add_counter(p + "blocks", e.blocks);
      report.add_counter(p + "messages", e.messages);
      report.add_counter(p + "raw_bytes", e.raw_bytes);
      report.add_counter(p + "encoded_bytes", e.encoded_bytes);
    }
  }
  if (any_encoding)
    report.gauge(prefix + "encoding.saved_bytes",
                 double(encoding_saved_bytes()));
  if (checksums_verified_ > 0) {
    report.add_counter(prefix + "checksums_verified", checksums_verified_);
    report.add_counter(prefix + "checksum_mismatches", checksum_mismatches_);
  }
}

}  // namespace sunbfs::sim
