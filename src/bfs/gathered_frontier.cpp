#include "bfs/gathered_frontier.hpp"

namespace sunbfs::bfs {

void FrontierGather::receive(sim::Comm& comm, std::span<const uint64_t> local,
                             bool encoded) {
  if (!encoded) {
    comm.allgatherv_into(local, recv_, &offsets_, &allocs_);
    return;
  }
  // Every participant publishes its full word span each level, so the
  // decoded total is shape-constant and the worst-case byte reservations
  // (raw words + one header per participant) absorb every later, denser
  // level: no growth after the first gather of a shape.
  const size_t n = size_t(comm.size());
  const sim::BlockPlan plan = sim::plan_words(local);
  reserve(enc_send_, local.size_bytes() + sim::kBlockHeaderMax);
  enc_send_.resize(plan.bytes);
  uint8_t* end = sim::write_words(local, plan.codec, enc_send_.data());
  SUNBFS_ASSERT(end == enc_send_.data() + plan.bytes);
  (void)end;
  if (!local.empty())
    comm.note_encoding(sim::CollectiveType::Allgather, plan.codec, 1,
                       local.size(), local.size_bytes(), plan.bytes);
  comm.allgatherv_into<uint8_t>(enc_send_, enc_recv_, &enc_offsets_,
                                &allocs_);
  reserve(headers_, n);
  headers_.assign(n, sim::WordsHeader{});
  reserve(offsets_, n + 1);
  offsets_.assign(n + 1, 0);
  for (size_t s = 0; s < n; ++s) {
    // A dropped contribution is a zero-byte block: zero words.
    SUNBFS_CHECK_MSG(
        sim::read_words_header(enc_recv_.data() + enc_offsets_[s],
                               enc_offsets_[s + 1] - enc_offsets_[s],
                               &headers_[s]),
        "wire decode: malformed frontier block header");
    offsets_[s + 1] = offsets_[s] + headers_[s].nwords;
  }
  reserve(recv_, offsets_[n]);
  recv_.resize(offsets_[n]);
  for (size_t s = 0; s < n; ++s)
    SUNBFS_CHECK_MSG(
        headers_[s].nwords == 0 ||
            sim::decode_words(headers_[s],
                              enc_recv_.data() + enc_offsets_[s + 1],
                              recv_.data() + offsets_[s]),
        "wire decode: corrupt frontier block body");
  reserve(enc_recv_, offsets_[n] * 8 + n * sim::kBlockHeaderMax);
}

FrontierView FrontierGather::gather(sim::Comm& comm,
                                    const partition::VertexSpace& space,
                                    std::span<const uint64_t> local,
                                    FrontierLayout layout, bool encoded) {
  receive(comm, local, encoded);
  const int n = comm.size();
  const int first = comm.global_rank_of(0);
  for (int i = 1; i < n; ++i)
    SUNBFS_ASSERT(comm.global_rank_of(i) == first + i);
  FrontierView view;
  view.origin_ = space.begin(first);
  view.count_ = space.end(first + n - 1) - view.origin_;
  // Both layouts are bit streams: participant i's block is `width` bits per
  // owned vertex, placed at its first vertex's offset from the origin.
  const uint64_t width = layout == FrontierLayout::Bits ? 1 : 64;
  auto words_of = [&](uint64_t bits) { return (bits + 63) / 64; };
  auto complete = [&](int i) {
    return offsets_[size_t(i) + 1] - offsets_[size_t(i)] ==
           words_of(space.count(first + i) * width);
  };
  // Reserved whether or not this gather assembles, so a recovery replay
  // that first needs it grows nothing in steady state.
  reserve(merged_, words_of(view.count_ * width));
  bool direct = true;
  for (int i = 0; i < n && direct; ++i)
    direct = complete(i) &&
             (space.begin(first + i) - view.origin_) * width % 64 == 0;
  if (direct) {
    view.words_ = recv_.data();
    return view;
  }
  merged_.assign(words_of(view.count_ * width), 0);
  for (int i = 0; i < n; ++i) {
    if (!complete(i)) continue;  // dropped: reads as zero
    const uint64_t at = (space.begin(first + i) - view.origin_) * width;
    const uint64_t bits = space.count(first + i) * width;
    const uint64_t* in = recv_.data() + offsets_[size_t(i)];
    uint64_t* out = merged_.data() + at / 64;
    const unsigned shift = unsigned(at % 64);
    for (uint64_t j = 0; j < words_of(bits); ++j) {
      const uint64_t w = in[j];
      out[j] |= w << shift;
      // High bits carry into the next word only when they are owned bits
      // (a BitVector keeps its bits past the last vertex zero), hence
      // inside the view.
      if (shift != 0 && (w >> (64 - shift)) != 0)
        out[j + 1] |= w >> (64 - shift);
    }
  }
  view.words_ = merged_.data();
  return view;
}

}  // namespace sunbfs::bfs
