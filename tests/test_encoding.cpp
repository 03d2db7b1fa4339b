// Adaptive wire-encoding tests (ctest -L encoding): property-based codec
// round-trips for every WireFormat message type and the frontier word
// streams, adversarial truncation/corruption rejection, the A2aStaging
// encoded exchange against the raw exchange inside a live SPMD session, and
// the CommStats encoding histogram plumbing.  The fault-injection case at
// the bottom (also under -L faults) pins the checksums-cover-encoded-bytes
// guarantee end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analytics/propagate.hpp"
#include "analytics/sssp.hpp"
#include "bfs/messages.hpp"
#include "bfs/runner.hpp"
#include "obs/metrics.hpp"
#include "sim/comm_buffer.hpp"
#include "sim/encoding.hpp"
#include "sim/runtime.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"

namespace sunbfs::sim {
namespace {

// ------------------------------------------------------- varint primitives

TEST(Varint, RoundTripsBoundaryValues) {
  const uint64_t values[] = {0,       1,         0x7f,      0x80,
                             0x3fff,  0x4000,    0x1fffff,  0x200000,
                             1u << 28, 1ull << 35, 1ull << 56, UINT64_MAX};
  for (uint64_t v : values) {
    uint8_t buf[16] = {};
    uint8_t* end = put_varint(buf, v);
    EXPECT_EQ(size_t(end - buf), varint_size(v)) << v;
    uint64_t back = ~v;
    const uint8_t* p = get_varint(buf, end, &back);
    EXPECT_EQ(p, end) << v;
    EXPECT_EQ(back, v);
    // Every strict prefix is a truncation.
    for (const uint8_t* cut = buf; cut < end; ++cut)
      EXPECT_EQ(get_varint(buf, cut, &back), nullptr) << v;
  }
}

TEST(Varint, RejectsOverlongEncoding) {
  // Eleven continuation bytes never terminate within 64 bits.
  uint8_t buf[11];
  std::memset(buf, 0x80, sizeof buf);
  uint64_t out = 0;
  EXPECT_EQ(get_varint(buf, buf + sizeof buf, &out), nullptr);
}

TEST(Varint, ZigzagRoundTripsSignedExtremes) {
  const int64_t values[] = {0, 1, -1, 63, -64, INT64_MAX, INT64_MIN};
  for (int64_t v : values) {
    EXPECT_EQ(unzigzag(zigzag(v)), v) << v;
    if (v >= -64 && v <= 63) {
      EXPECT_LE(varint_size(zigzag(v)), size_t(1));
    }
  }
}

// ------------------------------------------------ message-block round trips

// Field tuples give padding-safe equality across all four wire types.
auto fields(const bfs::VisitMsg& m) { return std::tuple(m.dst, m.parent); }
auto fields(const bfs::CompactMsg& m) { return std::tuple(m.dst, m.src); }
auto fields(const bfs::MsbfsMsg& m) {
  return std::tuple(m.dst, m.src, m.mask);
}
template <typename Value, bool MinGather>
auto fields(const analytics::PropagateMsg<Value, MinGather>& m) {
  return std::tuple(m.dst, m.value);
}

template <typename T>
void expect_same(const std::vector<T>& want, const std::vector<T>& got,
                 const char* what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i)
    ASSERT_EQ(fields(want[i]), fields(got[i])) << what << " at " << i;
}

template <typename T>
std::vector<uint8_t> encode_planned(std::vector<T>& msgs, BlockPlan* plan) {
  std::sort(msgs.begin(), msgs.end(), WireFormat<T>::less);
  *plan = plan_block<T>(msgs, /*sorted=*/true);
  std::vector<uint8_t> buf(plan->bytes);
  uint8_t* end = write_block<T>(msgs, plan->codec, buf.data());
  EXPECT_EQ(size_t(end - buf.data()), buf.size());
  return buf;
}

template <typename T>
bool decode_buf(std::span<const uint8_t> buf, std::vector<T>* out) {
  BlockHeader h;
  if (!read_block_header(buf.data(), buf.size(), &h)) return false;
  out->assign(size_t(h.count), T{});
  return decode_block<T>(h, buf.data() + buf.size(), out->data());
}

// Sort, plan, encode, decode, and require exact message equality; returns
// the codec the planner picked.
template <typename T>
WireCodec roundtrip(std::vector<T> msgs, const char* what) {
  BlockPlan plan;
  std::vector<uint8_t> buf = encode_planned(msgs, &plan);
  std::vector<T> back;
  EXPECT_TRUE(decode_buf<T>(buf, &back)) << what;
  expect_same(msgs, back, what);
  return plan.codec;
}

// One deterministic message with the given key; non-key fields seeded from
// the rng so rest round-trips are exercised with varied payloads.
bfs::VisitMsg make_msg(bfs::VisitMsg*, uint64_t key, Xoshiro256StarStar& rng) {
  return {graph::Vertex(key), graph::Vertex(rng.next() >> 1)};
}
bfs::CompactMsg make_msg(bfs::CompactMsg*, uint64_t key,
                         Xoshiro256StarStar& rng) {
  return {uint32_t(key), uint32_t(rng.next())};
}
bfs::MsbfsMsg make_msg(bfs::MsbfsMsg*, uint64_t key,
                       Xoshiro256StarStar& rng) {
  return {uint32_t(key), uint32_t(rng.next()), rng.next()};
}

// Propagation-engine contributions (DistMsg among them): values travel as
// (zigzag) varints.
template <typename Value, bool MinGather>
analytics::PropagateMsg<Value, MinGather> make_msg(
    analytics::PropagateMsg<Value, MinGather>*, uint64_t key,
    Xoshiro256StarStar& rng) {
  const int64_t bits = int64_t(rng.next()) >> 20;  // either sign
  return {graph::Vertex(key), Value(bits)};
}

// Keys at the given density over [0, range): unique draws without
// replacement when unique, otherwise raw draws (duplicates likely).
template <typename T>
std::vector<T> sample(uint64_t seed, uint64_t range, double density,
                      bool unique) {
  Xoshiro256StarStar rng(seed);
  std::set<uint64_t> picked;
  std::vector<T> msgs;
  const uint64_t n = uint64_t(double(range) * density);
  for (uint64_t i = 0; i < n; ++i) {
    uint64_t k = rng.next() % range;
    if (unique && !picked.insert(k).second) continue;
    msgs.push_back(make_msg(static_cast<T*>(nullptr), k, rng));
  }
  return msgs;
}

template <typename T>
void run_property_suite(uint64_t max_key, const char* name) {
  // Empty block: zero wire bytes, decodes to zero messages.
  EXPECT_EQ(roundtrip<T>({}, name), WireCodec::Raw);
  {
    BlockPlan plan = plan_block<T>(std::span<const T>{}, true);
    EXPECT_EQ(plan.bytes, 0u);
  }

  // Density 1 over a contiguous key range: unique keys, one per slot — the
  // planner must find Bitmap cheapest (1 bit/key beats any varint delta).
  {
    Xoshiro256StarStar rng(7);
    std::vector<T> dense;
    for (uint64_t k = 0; k < 512; ++k)
      dense.push_back(make_msg(static_cast<T*>(nullptr), k, rng));
    EXPECT_EQ(roundtrip<T>(dense, name), WireCodec::Bitmap) << name;
  }

  // Sparse unique keys over a huge range: bitmap is hopeless; sorted deltas
  // make Varint competitive and the round trip must still be exact.
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto sparse = sample<T>(seed, max_key + 1, 0.0, true);
    for (uint64_t i = 0; i < 64; ++i) {
      Xoshiro256StarStar rng(seed * 1000 + i);
      sparse.push_back(
          make_msg(static_cast<T*>(nullptr), rng.next() % (max_key + 1), rng));
    }
    // Drop duplicate keys the cheap way: roundtrip sorts anyway.
    roundtrip<T>(sparse, name);
  }

  // Duplicates: Bitmap must be ruled out, content preserved exactly.
  {
    Xoshiro256StarStar rng(11);
    std::vector<T> dup;
    for (int i = 0; i < 100; ++i)
      dup.push_back(make_msg(static_cast<T*>(nullptr), uint64_t(i % 7), rng));
    EXPECT_NE(roundtrip<T>(dup, name), WireCodec::Bitmap) << name;
  }

  // Max-id edge case: the largest key the type can carry round-trips under
  // every eligible codec (bitmap is priced out by exact measurement, never
  // chosen by overflow accident).
  {
    Xoshiro256StarStar rng(13);
    std::vector<T> edge;
    edge.push_back(make_msg(static_cast<T*>(nullptr), 0, rng));
    edge.push_back(make_msg(static_cast<T*>(nullptr), max_key / 2, rng));
    edge.push_back(make_msg(static_cast<T*>(nullptr), max_key, rng));
    roundtrip<T>(edge, name);
  }

  // Forced codecs: every codec must round-trip on a unique sorted block,
  // whether or not the planner would have picked it.
  {
    auto msgs = sample<T>(17, 4096, 0.05, true);
    std::sort(msgs.begin(), msgs.end(), WireFormat<T>::less);
    for (WireCodec codec :
         {WireCodec::Raw, WireCodec::Varint, WireCodec::Bitmap}) {
      std::vector<uint8_t> buf(kBlockHeaderMax +
                               msgs.size() * (sizeof(T) + 32) + 4096);
      uint8_t* end = write_block<T>(msgs, codec, buf.data());
      buf.resize(size_t(end - buf.data()));
      std::vector<T> back;
      ASSERT_TRUE(decode_buf<T>(buf, &back))
          << name << " codec " << wire_codec_name(codec);
      expect_same(msgs, back, name);

      // Truncation: every strict non-empty prefix must be rejected (a
      // zero-length buffer is the *valid* empty block, by design).
      for (size_t cut = 1; cut < buf.size(); ++cut) {
        std::vector<T> junk;
        EXPECT_FALSE(
            decode_buf<T>(std::span<const uint8_t>(buf.data(), cut), &junk))
            << name << " codec " << wire_codec_name(codec) << " cut " << cut;
      }
    }
  }
}

TEST(BlockCodecs, VisitMsgProperties) {
  run_property_suite<bfs::VisitMsg>(uint64_t(INT64_MAX), "VisitMsg");
}
TEST(BlockCodecs, CompactMsgProperties) {
  run_property_suite<bfs::CompactMsg>(UINT32_MAX, "CompactMsg");
}
TEST(BlockCodecs, MsbfsMsgProperties) {
  run_property_suite<bfs::MsbfsMsg>(UINT32_MAX, "MsbfsMsg");
}
TEST(BlockCodecs, DistMsgProperties) {
  run_property_suite<analytics::DistMsg>(uint64_t(INT64_MAX), "DistMsg");
}
TEST(BlockCodecs, PropagateMsgProperties) {
  run_property_suite<analytics::PropagateMsg<graph::Vertex, false>>(
      uint64_t(INT64_MAX), "PropagateMsg<Vertex>");
}

TEST(BlockCodecs, MalformedHeadersAreRejected) {
  BlockHeader h;
  // Unknown codec byte.
  const uint8_t bad_codec[] = {3, 1, 0};
  EXPECT_FALSE(read_block_header(bad_codec, sizeof bad_codec, &h));
  const uint8_t worse_codec[] = {0xff, 1};
  EXPECT_FALSE(read_block_header(worse_codec, sizeof worse_codec, &h));
  // An explicit count of zero must travel as the zero-byte empty block.
  const uint8_t explicit_zero[] = {uint8_t(WireCodec::Raw), 0};
  EXPECT_FALSE(read_block_header(explicit_zero, sizeof explicit_zero, &h));
  // Truncated count varint.
  const uint8_t cut_count[] = {uint8_t(WireCodec::Varint), 0x80};
  EXPECT_FALSE(read_block_header(cut_count, sizeof cut_count, &h));
  // The empty block parses as zero messages.
  ASSERT_TRUE(read_block_header(cut_count, 0, &h));
  EXPECT_EQ(h.count, 0u);
}

TEST(BlockCodecs, RawBlockWithWrongBodySizeIsRejected) {
  std::vector<bfs::CompactMsg> msgs = {{1, 2}, {3, 4}};
  std::vector<uint8_t> buf(kBlockHeaderMax + msgs.size() * sizeof(msgs[0]));
  uint8_t* end = write_block<bfs::CompactMsg>(msgs, WireCodec::Raw, buf.data());
  buf.resize(size_t(end - buf.data()));
  buf.push_back(0);  // one trailing byte: no longer count * sizeof(T)
  std::vector<bfs::CompactMsg> back;
  EXPECT_FALSE(decode_buf<bfs::CompactMsg>(buf, &back));
}

TEST(BlockCodecs, BitmapPopcountMismatchIsRejected) {
  std::vector<bfs::CompactMsg> msgs = {{0, 9}, {5, 9}, {64, 9}};
  std::vector<uint8_t> buf(256);
  uint8_t* end =
      write_block<bfs::CompactMsg>(msgs, WireCodec::Bitmap, buf.data());
  buf.resize(size_t(end - buf.data()));
  // Flip an extra bit inside the bitmap words: popcount no longer matches
  // the header count, so the decoder must refuse.
  BlockHeader h;
  ASSERT_TRUE(read_block_header(buf.data(), buf.size(), &h));
  size_t bits_at = size_t(h.body - buf.data());
  uint64_t nwords = 0;
  const uint8_t* p = get_varint(h.body, buf.data() + buf.size(), &nwords);
  bits_at = size_t(p - buf.data());
  buf[bits_at + 3] |= 0x10;
  std::vector<bfs::CompactMsg> back;
  EXPECT_FALSE(decode_buf<bfs::CompactMsg>(buf, &back));
}

// --------------------------------------------------- frontier word streams

std::vector<uint64_t> random_words(uint64_t seed, size_t nwords,
                                   int bits_kept) {
  Xoshiro256StarStar rng(seed);
  std::vector<uint64_t> words(nwords);
  for (auto& w : words) {
    w = rng.next();
    for (int k = bits_kept; k < 64; ++k) w &= ~(uint64_t(1) << (rng.next() % 64));
  }
  return words;
}

void roundtrip_words(const std::vector<uint64_t>& words, const char* what) {
  BlockPlan plan = plan_words(words);
  std::vector<uint8_t> buf(plan.bytes);
  uint8_t* end = write_words(words, plan.codec, buf.data());
  ASSERT_EQ(size_t(end - buf.data()), buf.size()) << what;
  WordsHeader h;
  ASSERT_TRUE(read_words_header(buf.data(), buf.size(), &h)) << what;
  ASSERT_EQ(h.nwords, words.size()) << what;
  std::vector<uint64_t> back(words.size(), ~uint64_t(0));
  ASSERT_TRUE(decode_words(h, buf.data() + buf.size(), back.data())) << what;
  EXPECT_EQ(back, words) << what;
}

TEST(WordCodecs, DensitySweepRoundTrips) {
  roundtrip_words({}, "empty");
  roundtrip_words(std::vector<uint64_t>(32, 0), "all-zero");
  roundtrip_words(std::vector<uint64_t>(32, ~uint64_t(0)), "all-ones");
  EXPECT_EQ(plan_words(std::vector<uint64_t>(32, 0)).codec, WireCodec::Varint);
  EXPECT_EQ(plan_words(std::vector<uint64_t>(32, ~uint64_t(0))).codec,
            WireCodec::Bitmap);
  for (int bits : {1, 8, 32, 60})
    for (uint64_t seed : {21u, 22u, 23u})
      roundtrip_words(random_words(seed, 64, bits), "random");
  // Single high bit at the end of a long span: max-position delta coding.
  std::vector<uint64_t> hi(128, 0);
  hi.back() = uint64_t(1) << 63;
  EXPECT_EQ(plan_words(hi).codec, WireCodec::Varint);
  roundtrip_words(hi, "high-bit");
}

TEST(WordCodecs, ForcedCodecsAndTruncationRejection) {
  auto words = random_words(31, 16, 6);
  for (WireCodec codec : {WireCodec::Bitmap, WireCodec::Varint}) {
    std::vector<uint8_t> buf(kBlockHeaderMax + words.size() * 8 + 2048);
    uint8_t* end = write_words(words, codec, buf.data());
    buf.resize(size_t(end - buf.data()));
    WordsHeader h;
    ASSERT_TRUE(read_words_header(buf.data(), buf.size(), &h));
    std::vector<uint64_t> back(words.size());
    ASSERT_TRUE(decode_words(h, buf.data() + buf.size(), back.data()));
    EXPECT_EQ(back, words);
    for (size_t cut = 1; cut < buf.size(); ++cut) {
      WordsHeader hc;
      if (!read_words_header(buf.data(), cut, &hc)) continue;
      std::vector<uint64_t> junk(words.size());
      EXPECT_FALSE(decode_words(hc, buf.data() + cut, junk.data()))
          << wire_codec_name(codec) << " cut " << cut;
    }
  }
  WordsHeader h;
  const uint8_t raw_codec[] = {uint8_t(WireCodec::Raw), 1, 0};
  EXPECT_FALSE(read_words_header(raw_codec, sizeof raw_codec, &h));
  const uint8_t zero_words[] = {uint8_t(WireCodec::Bitmap), 0};
  EXPECT_FALSE(read_words_header(zero_words, sizeof zero_words, &h));
}

TEST(WordCodecs, OutOfRangePositionIsRejected) {
  // Hand-build a varint stream claiming one word but a set bit at 64.
  uint8_t buf[16];
  uint8_t* p = buf;
  *p++ = uint8_t(WireCodec::Varint);
  p = put_varint(p, 1);   // nwords
  p = put_varint(p, 1);   // nbits
  p = put_varint(p, 64);  // position beyond nwords * 64
  WordsHeader h;
  ASSERT_TRUE(read_words_header(buf, size_t(p - buf), &h));
  uint64_t out = 0;
  EXPECT_FALSE(decode_words(h, p, &out));
}

// ------------------------------------------- staging pools under SPMD

// The encoded exchange must hand every rank the same per-source message
// multisets as the raw exchange, and its pools must stop allocating once
// the round shape has been seen (the staging_allocs == 0 steady-state
// invariant the headline bench asserts).
TEST(StagingEncoding, EncodedExchangeMatchesRawAndStopsAllocating) {
  const sim::MeshShape mesh{2, 2};
  uint64_t mismatches = 0, steady_allocs = 0;
  run_spmd(mesh, [&](RankContext& ctx) {
    ThreadPool pool(2);
    A2aStaging<bfs::CompactMsg> enc, raw;
    enc.set_encoded(true);
    raw.set_encoded(false);
    const size_t nparts = size_t(ctx.nranks());
    uint64_t bad = 0, allocs_after_warmup = 0;
    for (int round = 0; round < 4; ++round) {
      // Deterministic per-(rank, round) traffic; the warmup round is the
      // largest so later rounds fit the primed capacity.
      Xoshiro256StarStar rng(uint64_t(ctx.rank) * 1000 + uint64_t(round));
      const uint64_t n = round == 0 ? 4096 : 512 + 128 * uint64_t(round);
      enc.begin(nparts, pool.size());
      raw.begin(nparts, pool.size());
      for (uint64_t i = 0; i < n; ++i) {
        const size_t dst = size_t(rng.next() % nparts);
        bfs::CompactMsg m{uint32_t(rng.next() % 3000), uint32_t(rng.next())};
        enc.push(0, dst, m);
        raw.push(0, dst, m);
      }
      auto got_enc = enc.exchange(ctx.world, pool);
      auto got_raw = raw.exchange(ctx.world, pool);
      // Compare per-source slices as sorted sequences: the encoded path
      // ships each block key-sorted, the raw path in push order.
      if (enc.src_offsets() != raw.src_offsets()) ++bad;
      for (size_t s = 0; s + 1 < enc.src_offsets().size() && bad == 0; ++s) {
        auto lo = enc.src_offsets()[s], hi = enc.src_offsets()[s + 1];
        std::vector<bfs::CompactMsg> a(got_enc.begin() + long(lo),
                                       got_enc.begin() + long(hi));
        std::vector<bfs::CompactMsg> b(got_raw.begin() + long(lo),
                                       got_raw.begin() + long(hi));
        auto less = WireFormat<bfs::CompactMsg>::less;
        std::sort(a.begin(), a.end(), less);
        std::sort(b.begin(), b.end(), less);
        for (size_t i = 0; i < a.size(); ++i)
          if (fields(a[i]) != fields(b[i])) ++bad;
      }
      if (round == 0) allocs_after_warmup = enc.allocs();
    }
    bad = ctx.world.allreduce_sum(bad);
    uint64_t steady =
        ctx.world.allreduce_sum(enc.allocs() - allocs_after_warmup);
    if (ctx.rank == 0) {
      mismatches = bad;
      steady_allocs = steady;
    }
  });
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(steady_allocs, 0u);
}

// ------------------------------------------------- CommStats histograms

TEST(EncodingStats, HistogramAccumulatesMergesAndReports) {
  CommStats a, b;
  a.note_encoding(CollectiveType::Alltoallv, WireCodec::Varint,
                  /*blocks=*/3, /*messages=*/100, /*raw_bytes=*/800,
                  /*encoded_bytes=*/200);
  a.note_encoding(CollectiveType::Alltoallv, WireCodec::Raw, 1, 4, 32, 38);
  b.note_encoding(CollectiveType::Alltoallv, WireCodec::Varint, 1, 10, 80, 30);
  b.note_encoding(CollectiveType::Allgather, WireCodec::Bitmap, 2, 64, 512,
                  140);
  a.merge(b);

  const auto& va = a.encoding_entry(CollectiveType::Alltoallv,
                                    WireCodec::Varint);
  EXPECT_EQ(va.blocks, 4u);
  EXPECT_EQ(va.messages, 110u);
  EXPECT_EQ(va.raw_bytes, 880u);
  EXPECT_EQ(va.encoded_bytes, 230u);
  // (880-230) + (32-38) + (512-140)
  EXPECT_EQ(a.encoding_saved_bytes(), int64_t(650 - 6 + 372));

  obs::Report report;
  a.to_report(report);
  EXPECT_EQ(report.counter("comm.encoding.alltoallv.varint.blocks"), 4u);
  EXPECT_EQ(report.counter("comm.encoding.alltoallv.varint.encoded_bytes"),
            230u);
  EXPECT_EQ(report.counter("comm.encoding.allgather.bitmap.messages"), 64u);
  EXPECT_TRUE(report.has_gauge("comm.encoding.saved_bytes"));
  EXPECT_DOUBLE_EQ(report.gauge("comm.encoding.saved_bytes"), 1016.0);
  // Codec buckets that saw no blocks stay out of the report.
  EXPECT_FALSE(report.has_counter("comm.encoding.allgather.raw.blocks"));

  // A raw-only histogram can have negative savings (headers cost bytes);
  // the signed gauge must carry the sign through.
  CommStats raw_only;
  raw_only.note_encoding(CollectiveType::Alltoallv, WireCodec::Raw, 1, 4, 32,
                         38);
  EXPECT_EQ(raw_only.encoding_saved_bytes(), int64_t(-6));
  EXPECT_EQ(a.checksum_mismatches(), 0u);
}

// --------------------------------------- faults over encoded payloads

// End-to-end: with encoding on (the default), a seeded fault plan's payload
// corruptions are detected by checksums computed over the *encoded* bytes,
// recovery replays the level, and the run still validates.  Also runs under
// ctest -L faults.
TEST(EncodingFaults, CorruptedEncodedPayloadsAreDetectedAndRecovered) {
  bfs::RunnerConfig cfg;
  cfg.graph.scale = 12;
  cfg.graph.seed = 5;
  cfg.num_roots = 2;
  cfg.validate = true;
  ASSERT_TRUE(cfg.bfs.exchange.encoding);  // encoded path is the default
  sim::MeshShape mesh{2, 2};
  Topology topo(mesh);
  FaultPlan plan = FaultPlan::random(9, mesh.ranks(), /*stragglers=*/1,
                                     /*corruptions=*/3, /*failures=*/1);
  cfg.faults = &plan;
  cfg.fault_policy = FaultPolicy::Recover;

  auto result = bfs::run_graph500(topo, cfg);
  EXPECT_TRUE(result.spmd.ok());
  EXPECT_TRUE(result.all_valid);
  auto f = result.spmd.fault_totals();
  EXPECT_GT(f.injected(), 0u);
  EXPECT_GT(f.recovered, 0u);

  CommStats total = result.spmd.aggregate();
  EXPECT_GT(total.checksums_verified(), 0u);
  uint64_t encoded_blocks = 0;
  for (int c = 0; c < kWireCodecCount; ++c)
    encoded_blocks +=
        total.encoding_entry(CollectiveType::Alltoallv, WireCodec(c)).blocks +
        total.encoding_entry(CollectiveType::Allgather, WireCodec(c)).blocks;
  EXPECT_GT(encoded_blocks, 0u);  // checksums covered encoded payloads
}

}  // namespace
}  // namespace sunbfs::sim
