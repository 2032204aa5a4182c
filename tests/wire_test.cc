// Unit tests for serialization: writer/reader primitives, every protocol
// message round-trip, golden bytes pinning the documented layouts
// (DESIGN.md §8), truncation/corruption robustness, CRC32.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string_view>
#include <tuple>

#include "sim/rng.h"
#include "vr/events.h"
#include "vr/messages.h"
#include "wire/buffer.h"

namespace vsr {
namespace {

using wire::Crc32;
using wire::Reader;
using wire::Writer;

TEST(Buffer, PrimitivesRoundTrip) {
  Writer w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.Bool(true);
  w.Bool(false);
  w.F64(3.14159);
  w.String("hello");
  auto bytes = w.Take();

  Reader r(bytes);
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_TRUE(r.Bool());
  EXPECT_FALSE(r.Bool());
  EXPECT_DOUBLE_EQ(r.F64(), 3.14159);
  EXPECT_EQ(r.String(), "hello");
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(Buffer, LittleEndianLayout) {
  Writer w;
  w.U32(0x01020304);
  auto bytes = w.Take();
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[0], 0x04);
  EXPECT_EQ(bytes[3], 0x01);
}

TEST(Buffer, TruncatedReadSetsStickyFailure) {
  Writer w;
  w.U32(7);
  auto bytes = w.Take();
  Reader r(bytes);
  r.U64();  // needs 8 bytes, only 4 available
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U32(), 0u);  // still safe to call; returns zero
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, CorruptLengthPrefixDoesNotOverallocate) {
  Writer w;
  w.U32(0xffffffff);  // insane vector length
  auto bytes = w.Take();
  Reader r(bytes);
  std::vector<std::uint64_t> v;
  r(v);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

TEST(Buffer, EmptyVectorAndBytes) {
  Writer w;
  w(std::vector<std::uint32_t>{});
  w.Bytes({});
  auto bytes = w.Take();
  Reader r(bytes);
  std::vector<std::uint32_t> v = {7};
  r(v);
  auto b = r.Bytes();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(b.empty());
}

// A struct with a field walk and a validity predicate, exercising every
// mapping the archive owns.
enum class Color : std::uint8_t { kRed = 0, kBlue = 1 };
struct Sample {
  std::uint8_t a = 0;
  std::uint16_t b = 0;
  bool c = false;
  Color color = Color::kRed;
  std::string s;
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint32_t> words;
  std::optional<std::string> maybe;
  std::vector<vr::ViewId> nested;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.a, m.b, m.c);
    ar.Enum(m.color, Color::kBlue);
    ar(m.s, m.bytes, m.words, m.maybe, m.nested);
  }
  bool Valid() const { return a != 0xee; }
  bool operator==(const Sample&) const = default;
};

TEST(Buffer, FieldWalkMatchesThePrimitives) {
  const Sample m{.a = 1,
                 .b = 0x203,
                 .c = true,
                 .color = Color::kBlue,
                 .s = "hi",
                 .bytes = {9},
                 .words = {4, 5},
                 .maybe = "x",
                 .nested = {{6, 7}}};
  Writer w;
  w.U8(1);
  w.U16(0x203);
  w.Bool(true);
  w.U8(1);
  w.String("hi");
  w.Bytes(std::vector<std::uint8_t>{9});
  w.U32(2);
  w.U32(4);
  w.U32(5);
  w.Bool(true);
  w.String("x");
  w.U32(1);
  w.U64(6);
  w.U32(7);
  const auto expected = w.Take();
  EXPECT_EQ(wire::Encode(m), expected);

  Reader r(expected);
  EXPECT_EQ(r.Read<Sample>(), m);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());

  Sample absent = m;
  absent.maybe.reset();
  const auto absent_bytes = wire::Encode(absent);
  Reader ar(absent_bytes);
  EXPECT_EQ(ar.Read<Sample>(), absent);
  EXPECT_TRUE(ar.ok());
}

TEST(Buffer, FieldWalkChecksEnumRangeAndValidity) {
  Sample m;
  m.color = Color{2};
  auto bytes = wire::Encode(m);
  Reader bad_tag(bytes);
  (void)bad_tag.Read<Sample>();
  EXPECT_FALSE(bad_tag.ok());

  m.color = Color::kBlue;
  m.a = 0xee;
  bytes = wire::Encode(m);
  Reader invalid(bytes);
  (void)invalid.Read<Sample>();
  EXPECT_FALSE(invalid.ok());
}

TEST(Crc, KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (classic check value).
  const std::string s = "123456789";
  std::vector<std::uint8_t> data(s.begin(), s.end());
  EXPECT_EQ(Crc32(data), 0xCBF43926u);
}

TEST(Crc, DetectsSingleBitFlips) {
  sim::Rng rng(3);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  const std::uint32_t orig = Crc32(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] ^= 1;
    EXPECT_NE(Crc32(data), orig) << "flip at byte " << i;
    data[i] ^= 1;
  }
}

TEST(Crc, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Crc32 folds eight bytes per step and finishes bytewise; compare it with
  // the polynomial computed one bit at a time, over every tail length and
  // start offset, so neither path can drift from the other.
  auto reference = [](const std::uint8_t* p, std::size_t n) {
    std::uint32_t crc = 0xffffffffu;
    for (std::size_t i = 0; i < n; ++i) {
      crc ^= p[i];
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
      }
    }
    return crc ^ 0xffffffffu;
  };
  sim::Rng rng(11);
  std::vector<std::uint8_t> data(300);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.Next());
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t n = 0; off + n <= data.size(); n += (n < 40 ? 1 : 37)) {
      const std::span<const std::uint8_t> s(data.data() + off, n);
      EXPECT_EQ(Crc32(s), reference(s.data(), s.size()))
          << "offset " << off << " length " << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Protocol message round-trips
// ---------------------------------------------------------------------------

vr::Pset SamplePset() {
  return {vr::PsetEntry{7, vr::Viewstamp{{3, 2}, 14}, 1},
          vr::PsetEntry{9, vr::Viewstamp{{5, 1}, 2}, 0}};
}

vr::History SampleHistory() {
  vr::History h;
  h.OpenView({1, 3});
  h.Advance(10);
  h.OpenView({2, 1});
  h.Advance(4);
  return h;
}

template <typename M>
M RoundTrip(const M& m) {
  auto bytes = vr::EncodeMsg(m);
  wire::Reader r(bytes);
  M out = M::Decode(r);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
  return out;
}

// Every strict prefix of m's encoding must decode with ok() == false.
template <typename M>
void ExpectEveryTruncationDetected(const M& m) {
  auto bytes = vr::EncodeMsg(m);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> prefix(bytes.begin(),
                                     bytes.begin() + static_cast<long>(len));
    wire::Reader r(prefix);
    (void)M::Decode(r);
    EXPECT_FALSE(r.ok()) << "prefix length " << len;
  }
}

TEST(Messages, CallRoundTrip) {
  vr::CallMsg m;
  m.group = 42;
  m.viewid = {7, 3};
  m.call_id = 99;
  m.call_seq = (5ull << 32) | 17;
  m.reply_to = 11;
  m.sub_aid = {vr::Aid{1, {2, 3}, 4}, 2};
  m.proc = "transfer";
  m.args = {1, 2, 3, 4};
  auto out = RoundTrip(m);
  EXPECT_EQ(out.group, m.group);
  EXPECT_EQ(out.viewid, m.viewid);
  EXPECT_EQ(out.call_id, m.call_id);
  EXPECT_EQ(out.call_seq, m.call_seq);
  EXPECT_EQ(out.sub_aid, m.sub_aid);
  EXPECT_EQ(out.proc, m.proc);
  EXPECT_EQ(out.args, m.args);
}

TEST(Messages, ReplyRoundTrip) {
  vr::ReplyMsg m;
  m.call_id = 5;
  m.status = vr::ReplyStatus::kOk;
  m.result = {9, 8, 7};
  m.pset = SamplePset();
  m.view_known = true;
  m.new_viewid = {4, 2};
  m.new_view = vr::View{1, {2, 3}};
  auto out = RoundTrip(m);
  EXPECT_EQ(out.pset, m.pset);
  EXPECT_EQ(out.new_view, m.new_view);
  EXPECT_EQ(out.result, m.result);
}

TEST(Messages, PrepareAndReplyRoundTrip) {
  vr::PrepareMsg p;
  p.group = 3;
  p.aid = {1, {2, 2}, 9};
  p.pset = SamplePset();
  p.reply_to = 4;
  auto out = RoundTrip(p);
  EXPECT_EQ(out.aid, p.aid);
  EXPECT_EQ(out.pset, p.pset);

  vr::PrepareReplyMsg r;
  r.aid = p.aid;
  r.from_group = 3;
  r.status = vr::PrepareStatus::kWrongPrimary;
  r.read_only = true;
  r.view_known = true;
  r.new_viewid = {8, 1};
  r.new_view = vr::View{2, {1}};
  auto rout = RoundTrip(r);
  EXPECT_EQ(rout.status, r.status);
  EXPECT_TRUE(rout.read_only);
  EXPECT_EQ(rout.new_view, r.new_view);

  vr::CommitMsg c;
  c.group = 3;
  c.aid = p.aid;
  c.reply_to = 4;
  auto cout_ = RoundTrip(c);
  EXPECT_EQ(cout_.group, c.group);
  EXPECT_EQ(cout_.aid, c.aid);
  EXPECT_EQ(cout_.reply_to, c.reply_to);
}

// Pins the exact wire layout of the commit-decision message. Anyone
// re-implementing the protocol must produce these bytes.
TEST(Messages, GoldenBytesCommitMsg) {
  vr::CommitMsg m;
  m.group = 3;
  m.aid = {1, {2, 2}, 9};
  m.reply_to = 4;
  const std::vector<std::uint8_t> expected = {
      0x03, 0, 0, 0, 0, 0, 0, 0,  // group = 3 (u64 le)
      0x01, 0, 0, 0, 0, 0, 0, 0,  // aid.coordinator_group = 1
      0x02, 0, 0, 0, 0, 0, 0, 0,  // aid.view.counter = 2
      0x02, 0, 0, 0,              // aid.view.mid = 2
      0x09, 0, 0, 0, 0, 0, 0, 0,  // aid.seq = 9
      0x04, 0, 0, 0,              // reply_to = 4
  };
  EXPECT_EQ(vr::EncodeMsg(m), expected);
}

// Pins the replication stream's batch layout (DESIGN.md §8.2): the common
// header, then the u32-counted records in their EventRecord encoding.
TEST(Messages, GoldenBytesBufferBatchMsg) {
  vr::BufferBatchMsg m;
  m.group = 6;
  m.viewid = {3, 1};
  m.from = 1;
  vr::EventRecord done = vr::EventRecord::Done({1, {2, 2}, 9});
  done.ts = 5;
  m.events = {done};
  const std::vector<std::uint8_t> expected = {
      0x06, 0, 0, 0, 0, 0, 0, 0,  // group = 6 (u64 le)
      0x03, 0, 0, 0, 0, 0, 0, 0,  // viewid.counter = 3
      0x01, 0, 0, 0,              // viewid.mid = 1
      0x01, 0, 0, 0,              // from = 1
      0x01, 0, 0, 0,              // events count = 1
      0x04,                       // type = kDone
      0x05, 0, 0, 0, 0, 0, 0, 0,  // ts = 5
      0x01, 0, 0, 0, 0, 0, 0, 0,  // sub_aid.aid.coordinator_group = 1
      0x02, 0, 0, 0, 0, 0, 0, 0,  // sub_aid.aid.view.counter = 2
      0x02, 0, 0, 0,              // sub_aid.aid.view.mid = 2
      0x09, 0, 0, 0, 0, 0, 0, 0,  // sub_aid.aid.seq = 9
      0x00, 0, 0, 0,              // sub_aid.sub = 0
      0x00, 0, 0, 0,              // effects count = 0
      0x00, 0, 0, 0, 0, 0, 0, 0,  // call_seq = 0
      0x00, 0, 0, 0,              // result length = 0
      0x00, 0, 0, 0,              // nested_pset count = 0
      0x00, 0, 0, 0,              // plist count = 0
      0x00, 0, 0, 0,              // view.primary = 0
      0x00, 0, 0, 0,              // view.backups count = 0
      0x00, 0, 0, 0,              // history count = 0
      0x00, 0, 0, 0,              // gstate length = 0
  };
  EXPECT_EQ(vr::EncodeMsg(m), expected);
}

// Pins the backup acknowledgment layout (DESIGN.md §8.2), gap request and
// rejoin fields included.
TEST(Messages, GoldenBytesBufferAckMsg) {
  vr::BufferAckMsg m;
  m.group = 6;
  m.viewid = {3, 1};
  m.from = 2;
  m.ts = 41;
  m.gap = true;
  m.gap_hi = 44;
  m.rejoin = true;
  m.rejoin_epoch = 7;
  const std::vector<std::uint8_t> expected = {
      0x06, 0, 0, 0, 0, 0, 0, 0,  // group = 6 (u64 le)
      0x03, 0, 0, 0, 0, 0, 0, 0,  // viewid.counter = 3
      0x01, 0, 0, 0,              // viewid.mid = 1
      0x02, 0, 0, 0,              // from = 2
      0x29, 0, 0, 0, 0, 0, 0, 0,  // ts = 41
      0x01,                       // gap = true
      0x2c, 0, 0, 0, 0, 0, 0, 0,  // gap_hi = 44
      0x01,                       // rejoin = true
      0x07, 0, 0, 0, 0, 0, 0, 0,  // rejoin_epoch = 7
  };
  EXPECT_EQ(vr::EncodeMsg(m), expected);
}

// Pins the exact wire layout of the prepared-ack, redirect fields included.
TEST(Messages, GoldenBytesPrepareReplyMsg) {
  vr::PrepareReplyMsg r;
  r.aid = {1, {2, 2}, 9};
  r.from_group = 3;
  r.status = vr::PrepareStatus::kWrongPrimary;
  r.read_only = true;
  r.view_known = true;
  r.new_viewid = {5, 1};
  r.new_view = vr::View{1, {2}};
  const std::vector<std::uint8_t> expected = {
      0x01, 0, 0, 0, 0, 0, 0, 0,  // aid.coordinator_group = 1
      0x02, 0, 0, 0, 0, 0, 0, 0,  // aid.view.counter = 2
      0x02, 0, 0, 0,              // aid.view.mid = 2
      0x09, 0, 0, 0, 0, 0, 0, 0,  // aid.seq = 9
      0x03, 0, 0, 0, 0, 0, 0, 0,  // from_group = 3
      0x02,                       // status = kWrongPrimary
      0x01,                       // read_only = true
      0x01,                       // view_known = true
      0x05, 0, 0, 0, 0, 0, 0, 0,  // new_viewid.counter = 5
      0x01, 0, 0, 0,              // new_viewid.mid = 1
      0x01, 0, 0, 0,              // new_view.primary = 1
      0x01, 0, 0, 0,              // new_view.backups count = 1
      0x02, 0, 0, 0,              // new_view.backups[0] = 2
  };
  EXPECT_EQ(vr::EncodeMsg(r), expected);
}

TEST(Messages, ViewChangeMessagesRoundTrip) {
  vr::InviteMsg inv;
  inv.group = 1;
  inv.new_viewid = {12, 5};
  inv.from = 5;
  EXPECT_EQ(RoundTrip(inv).new_viewid, inv.new_viewid);

  vr::AcceptMsg acc;
  acc.group = 1;
  acc.invite_viewid = {12, 5};
  acc.from = 2;
  acc.crashed = false;
  acc.last_vs = {{11, 2}, 77};
  acc.was_primary = true;
  acc.crash_viewid = {9, 9};
  auto aout = RoundTrip(acc);
  EXPECT_EQ(aout.last_vs, acc.last_vs);
  EXPECT_TRUE(aout.was_primary);
  EXPECT_FALSE(aout.recovered);

  // Log-recovered acceptance (crashed-with-state, DESIGN.md §10).
  acc.crashed = true;
  acc.recovered = true;
  aout = RoundTrip(acc);
  EXPECT_TRUE(aout.crashed);
  EXPECT_TRUE(aout.recovered);
  EXPECT_EQ(aout.crash_viewid, acc.crash_viewid);

  // `recovered` without `crashed` is a contradiction the decoder must flag.
  acc.crashed = false;
  {
    Writer w;
    acc.Encode(w);
    auto bytes = w.Take();
    Reader r(bytes);
    vr::AcceptMsg::Decode(r);
    EXPECT_FALSE(r.ok());
  }
  acc.crashed = true;

  vr::InitViewMsg init;
  init.group = 1;
  init.viewid = {12, 5};
  init.view = vr::View{2, {5, 7}};
  init.from = 5;
  EXPECT_EQ(RoundTrip(init).view, init.view);
}

TEST(Messages, BufferBatchWithEventsRoundTrip) {
  vr::BufferBatchMsg b;
  b.group = 6;
  b.viewid = {3, 1};
  b.from = 1;
  vr::EventRecord completed = vr::EventRecord::CompletedCall(
      {vr::Aid{6, {3, 1}, 2}, 0},
      {vr::ObjectEffect{"x", vr::LockMode::kWrite, "42"},
       vr::ObjectEffect{"y", vr::LockMode::kRead, std::nullopt}});
  completed.ts = 2;
  vr::EventRecord nv = vr::EventRecord::NewView(vr::View{1, {2, 3}},
                                                SampleHistory(), {1, 2, 3});
  nv.ts = 1;
  b.events = {nv, completed};
  auto out = RoundTrip(b);
  ASSERT_EQ(out.events.size(), 2u);
  EXPECT_EQ(out.events[0].type, vr::EventType::kNewView);
  EXPECT_EQ(out.events[0].view, nv.view);
  EXPECT_EQ(out.events[0].gstate, nv.gstate);
  EXPECT_EQ(out.events[1].effects, completed.effects);
  EXPECT_EQ(out.events[1].ts, 2u);
}

TEST(Messages, BufferAckGapRequestRoundTrip) {
  vr::BufferAckMsg a;
  a.group = 6;
  a.viewid = {3, 1};
  a.from = 2;
  a.ts = 41;
  a.gap = true;
  a.gap_hi = 44;
  auto out = RoundTrip(a);
  EXPECT_EQ(out.ts, 41u);
  EXPECT_TRUE(out.gap);
  EXPECT_EQ(out.gap_hi, 44u);

  a.gap = false;
  a.gap_hi = 0;
  out = RoundTrip(a);
  EXPECT_FALSE(out.gap);
}

TEST(Messages, BufferAckRejectsEmptyGapRange) {
  // A gap request naming a hole at or below the acked prefix is nonsense and
  // must be flagged by the decoder, like any other corrupt field.
  vr::BufferAckMsg a;
  a.group = 6;
  a.viewid = {3, 1};
  a.from = 2;
  a.ts = 41;
  a.gap = true;
  a.gap_hi = 41;  // (ts, gap_hi] is empty
  Writer w;
  a.Encode(w);
  auto bytes = w.Take();
  Reader r(bytes);
  vr::BufferAckMsg::Decode(r);
  EXPECT_FALSE(r.ok());
}

TEST(Messages, BufferAckRejoinRoundTrip) {
  // Rejoin acks (DESIGN.md §10) ask the primary to rewind its cursors to
  // the replayed watermark, even backwards.
  vr::BufferAckMsg a;
  a.group = 6;
  a.viewid = {3, 1};
  a.from = 2;
  a.ts = 41;
  a.rejoin = true;
  a.rejoin_epoch = 9001;
  auto out = RoundTrip(a);
  EXPECT_TRUE(out.rejoin);
  EXPECT_EQ(out.ts, 41u);
  EXPECT_EQ(out.rejoin_epoch, 9001u);
  a.rejoin = false;
  a.rejoin_epoch = 0;
  EXPECT_FALSE(RoundTrip(a).rejoin);
}

TEST(Messages, SnapshotChunkAndAckRoundTrip) {
  vr::SnapshotChunkMsg m;
  m.group = 6;
  m.viewid = {3, 1};
  m.from = 1;
  m.vs = {{3, 1}, 41};
  m.total_size = 10;
  m.checksum = 0xdeadbeef;
  m.offset = 4;
  m.data = {9, 8, 7};
  auto out = RoundTrip(m);
  EXPECT_EQ(out.group, m.group);
  EXPECT_EQ(out.viewid, m.viewid);
  EXPECT_EQ(out.vs, m.vs);
  EXPECT_EQ(out.total_size, 10u);
  EXPECT_EQ(out.checksum, 0xdeadbeefu);
  EXPECT_EQ(out.offset, 4u);
  EXPECT_EQ(out.data, m.data);

  vr::SnapshotAckMsg a;
  a.group = 6;
  a.viewid = {3, 1};
  a.from = 2;
  a.vs = m.vs;
  a.offset = 10;
  auto aout = RoundTrip(a);
  EXPECT_EQ(aout.vs, m.vs);
  EXPECT_EQ(aout.offset, 10u);
  EXPECT_EQ(aout.from, 2u);
}

TEST(Messages, SnapshotChunkRejectsInconsistentFraming) {
  // A chunk whose own fields contradict each other (offset at/past the end,
  // empty data, or data overrunning total_size) is corrupt on its face and
  // must be flagged by the decoder before any sink logic sees it.
  auto encode = [](std::uint64_t total, std::uint64_t offset,
                   std::vector<std::uint8_t> data) {
    vr::SnapshotChunkMsg m;
    m.group = 6;
    m.viewid = {3, 1};
    m.from = 1;
    m.vs = {{3, 1}, 41};
    m.total_size = total;
    m.checksum = 1;
    m.offset = offset;
    m.data = std::move(data);
    Writer w;
    m.Encode(w);
    return w.Take();
  };
  auto rejects = [](const std::vector<std::uint8_t>& bytes) {
    Reader r(bytes);
    (void)vr::SnapshotChunkMsg::Decode(r);
    return !r.ok();
  };
  EXPECT_TRUE(rejects(encode(0, 0, {1})));        // zero-byte payload
  EXPECT_TRUE(rejects(encode(10, 10, {1})));      // offset == total
  EXPECT_TRUE(rejects(encode(10, 11, {1})));      // offset past total
  EXPECT_TRUE(rejects(encode(10, 0, {})));        // empty data
  EXPECT_TRUE(rejects(encode(10, 8, {1, 2, 3}))); // data overruns total
  EXPECT_FALSE(rejects(encode(10, 8, {1, 2})));   // exact tail is fine
}

// Pins the exact wire layout of the lease-grant message (DESIGN.md §14).
TEST(Messages, GoldenBytesLeaseGrantMsg) {
  vr::LeaseGrantMsg m;
  m.group = 3;
  m.viewid = {5, 1};
  m.from = 2;
  m.seq = 6;
  m.stable_ts = 41;
  m.duration = 60000;
  const std::vector<std::uint8_t> expected = {
      0x03, 0, 0, 0, 0, 0, 0, 0,  // group = 3 (u64 le)
      0x05, 0, 0, 0, 0, 0, 0, 0,  // viewid.counter = 5
      0x01, 0, 0, 0,              // viewid.mid = 1
      0x02, 0, 0, 0,              // from = 2
      0x06, 0, 0, 0, 0, 0, 0, 0,  // seq = 6
      0x29, 0, 0, 0, 0, 0, 0, 0,  // stable_ts = 41
      0x60, 0xea, 0, 0, 0, 0, 0, 0,  // duration = 60000
  };
  EXPECT_EQ(vr::EncodeMsg(m), expected);
}

TEST(Messages, BackupReadRoundTrip) {
  vr::BackupReadMsg m;
  m.group = 3;
  m.uid = "item7";
  m.horizon = vr::Viewstamp{{5, 1}, 40};
  m.corr = 99;
  m.reply_to = 12;
  auto out = RoundTrip(m);
  EXPECT_EQ(out.group, m.group);
  EXPECT_EQ(out.uid, m.uid);
  EXPECT_EQ(out.horizon, m.horizon);
  EXPECT_EQ(out.corr, m.corr);
  EXPECT_EQ(out.reply_to, m.reply_to);

  vr::BackupReadReplyMsg r;
  r.corr = 99;
  r.status = vr::ReadStatus::kOk;
  r.value = {'v', '4'};
  r.served_vs = vr::Viewstamp{{5, 1}, 38};
  r.primary_hint = 0;
  auto rout = RoundTrip(r);
  EXPECT_EQ(rout.corr, r.corr);
  EXPECT_EQ(rout.status, vr::ReadStatus::kOk);
  EXPECT_EQ(rout.value, r.value);
  EXPECT_EQ(rout.served_vs, r.served_vs);

  r.status = vr::ReadStatus::kWrongLease;
  r.value.clear();
  r.primary_hint = 7;
  rout = RoundTrip(r);
  EXPECT_EQ(rout.status, vr::ReadStatus::kWrongLease);
  EXPECT_EQ(rout.primary_hint, 7u);
}

TEST(Messages, BackupReadReplyRejectsBadStatus) {
  vr::BackupReadReplyMsg r;
  r.corr = 1;
  Writer w;
  r.Encode(w);
  auto bytes = w.Take();
  bytes[8] = 0x7f;  // status byte, right after the u64 corr
  Reader rd(bytes);
  (void)vr::BackupReadReplyMsg::Decode(rd);
  EXPECT_FALSE(rd.ok());
}

TEST(Messages, QueryAndOutcomeRoundTrip) {
  vr::QueryMsg q;
  q.aid = {1, {2, 3}, 4};
  q.reply_to = 9;
  q.reply_group = 2;
  EXPECT_EQ(RoundTrip(q).aid, q.aid);

  vr::QueryReplyMsg qr;
  qr.aid = q.aid;
  qr.outcome = vr::TxnOutcome::kCommitted;
  EXPECT_EQ(RoundTrip(qr).outcome, vr::TxnOutcome::kCommitted);
}

TEST(Messages, CoordinatorServerMessagesRoundTrip) {
  vr::BeginTxnMsg b;
  b.group = 2;
  b.viewid = {1, 1};
  b.req_id = 77;
  b.reply_to = 30;
  EXPECT_EQ(RoundTrip(b).req_id, 77u);

  vr::CommitReqMsg c;
  c.group = 2;
  c.viewid = {1, 1};
  c.req_id = 78;
  c.aid = {2, {1, 1}, 5};
  c.pset = SamplePset();
  c.reply_to = 30;
  auto cout_ = RoundTrip(c);
  EXPECT_EQ(cout_.pset, c.pset);
  EXPECT_EQ(cout_.aid, c.aid);
}

// ---------------------------------------------------------------------------
// Every frame type and every event type, pinned byte for byte (DESIGN.md §8)
// ---------------------------------------------------------------------------

const vr::Aid kAid{1, {2, 2}, 9};
const vr::View kView{1, {2, 3}};

// One populated sample of every MsgType, in tag order. Each field holds a
// distinct non-default value, so a dropped, swapped or resized field moves
// the bytes.
auto SampleFrames() {
  using vr::Viewstamp;
  return std::make_tuple(
      vr::PingMsg{.group = 3, .from = 2},
      vr::InviteMsg{.group = 3, .new_viewid = {5, 1}, .from = 1},
      vr::AcceptMsg{.group = 3,
                    .invite_viewid = {5, 1},
                    .from = 2,
                    .crashed = true,
                    .last_vs = Viewstamp{{4, 1}, 17},
                    .was_primary = true,
                    .recovered = true,
                    .crash_viewid = {4, 2}},
      vr::InitViewMsg{.group = 3, .viewid = {5, 1}, .view = kView, .from = 1},
      vr::BufferBatchMsg{.group = 3,
                         .viewid = {5, 1},
                         .from = 1,
                         .events = {vr::EventRecord::Committing(kAid, {3})}},
      vr::BufferAckMsg{.group = 3,
                       .viewid = {5, 1},
                       .from = 2,
                       .ts = 41,
                       .gap = true,
                       .gap_hi = 44,
                       .rejoin = true,
                       .rejoin_epoch = 7},
      vr::SnapshotChunkMsg{.group = 3,
                           .viewid = {5, 1},
                           .from = 1,
                           .vs = Viewstamp{{5, 1}, 40},
                           .total_size = 10,
                           .checksum = 0xdeadbeef,
                           .offset = 4,
                           .data = {7, 8, 9}},
      vr::SnapshotAckMsg{.group = 3,
                         .viewid = {5, 1},
                         .from = 2,
                         .vs = Viewstamp{{5, 1}, 40},
                         .offset = 7},
      vr::CallMsg{.group = 3,
                  .viewid = {5, 1},
                  .call_id = 99,
                  .call_seq = (2ull << 32) | 17,
                  .reply_to = 11,
                  .sub_aid = {kAid, 2},
                  .dead_subs = {1},
                  .proc = "put",
                  .args = {'k', '=', '1'}},
      vr::ReplyMsg{.call_id = 99,
                   .status = vr::ReplyStatus::kWrongView,
                   .result = {4, 2},
                   .pset = SamplePset(),
                   .view_known = true,
                   .new_viewid = {6, 2},
                   .new_view = kView},
      vr::PrepareMsg{
          .group = 3, .aid = kAid, .pset = SamplePset(), .reply_to = 11},
      vr::PrepareReplyMsg{.aid = kAid,
                          .from_group = 3,
                          .status = vr::PrepareStatus::kPrepared,
                          .read_only = true,
                          .view_known = true,
                          .new_viewid = {6, 2},
                          .new_view = kView},
      vr::CommitMsg{.group = 3, .aid = kAid, .reply_to = 11},
      vr::CommitDoneMsg{.aid = kAid,
                        .from_group = 3,
                        .wrong_primary = true,
                        .view_known = true,
                        .new_viewid = {6, 2},
                        .new_view = kView},
      vr::AbortMsg{.group = 3, .aid = kAid},
      vr::AbortSubMsg{.group = 3, .sub_aid = {kAid, 2}},
      vr::QueryMsg{.aid = kAid, .reply_to = 11, .reply_group = 7},
      vr::QueryReplyMsg{.aid = kAid, .outcome = vr::TxnOutcome::kCommitted},
      vr::ProbeMsg{.group = 3, .req_id = 77, .reply_to = 11},
      vr::ProbeReplyMsg{.group = 3,
                        .req_id = 77,
                        .known = true,
                        .active = true,
                        .viewid = {5, 1},
                        .view = kView},
      vr::BeginTxnMsg{.group = 3, .viewid = {5, 1}, .req_id = 77,
                      .reply_to = 11},
      vr::BeginTxnReplyMsg{.req_id = 77,
                           .status = vr::ReplyStatus::kFailed,
                           .aid = kAid,
                           .view_known = true,
                           .new_viewid = {6, 2},
                           .new_view = kView},
      vr::CommitReqMsg{.group = 3,
                       .viewid = {5, 1},
                       .req_id = 78,
                       .aid = kAid,
                       .pset = SamplePset(),
                       .reply_to = 11},
      vr::CommitReqReplyMsg{.req_id = 78,
                            .outcome = vr::TxnOutcome::kAborted},
      vr::AbortReqMsg{.group = 3, .aid = kAid, .pset = SamplePset()},
      vr::ShardPullMsg{
          .group = 3, .from = 1, .from_group = 7, .lo = "a", .hi = "m"},
      vr::LeaseGrantMsg{.group = 3,
                        .viewid = {5, 1},
                        .from = 1,
                        .seq = 6,
                        .stable_ts = 41,
                        .duration = 60000},
      vr::BackupReadMsg{.group = 3,
                        .uid = "item7",
                        .horizon = Viewstamp{{5, 1}, 40},
                        .corr = 99,
                        .reply_to = 12},
      vr::BackupReadReplyMsg{.corr = 99,
                             .status = vr::ReadStatus::kTooNew,
                             .value = {'v'},
                             .served_vs = Viewstamp{{5, 1}, 38},
                             .primary_hint = 1});
}

// One record of every EventType, in tag order. The completed call carries
// one effect with a tentative version and one without.
std::vector<vr::EventRecord> SampleEvents() {
  std::vector<vr::EventRecord> out = {
      vr::EventRecord::CompletedCall(
          {kAid, 2},
          {vr::ObjectEffect{"x", vr::LockMode::kWrite, "42"},
           vr::ObjectEffect{"y", vr::LockMode::kRead, std::nullopt}},
          (2ull << 32) | 17, {5}, SamplePset()),
      vr::EventRecord::Committing(kAid, {3, 7}),
      vr::EventRecord::Committed(kAid),
      vr::EventRecord::Aborted(kAid),
      vr::EventRecord::Done(kAid),
      vr::EventRecord::AbortedSub({kAid, 2}),
      vr::EventRecord::NewView(kView, SampleHistory(), {1, 2, 3}),
      vr::EventRecord::ShardInstall({'a', 'm'}),
      vr::EventRecord::ShardDrop({'m'}),
  };
  for (std::size_t i = 0; i < out.size(); ++i) out[i].ts = 20 + i;
  return out;
}

std::string Hex(const std::vector<std::uint8_t>& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : bytes) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0xf];
  }
  return s;
}

std::vector<std::uint8_t> Unhex(std::string_view hex) {
  std::vector<std::uint8_t> out;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<std::uint8_t>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

struct GoldenFrame {
  vr::MsgType type;
  const char* hex;
};

// The encodings of SampleFrames(), in the same order. Changing one is a
// wire-format change.
const GoldenFrame kGoldenFrames[] = {
    {vr::MsgType::kPing,
     "030000000000000002000000"},
    {vr::MsgType::kInvite,
     "030000000000000005000000000000000100000001000000"},
    {vr::MsgType::kAccept,
     "0300000000000000050000000000000001000000020000000104000000000000"
     "000100000011000000000000000104000000000000000200000001"},
    {vr::MsgType::kInitView,
     "0300000000000000050000000000000001000000010000000200000002000000"
     "0300000001000000"},
    {vr::MsgType::kBufferBatch,
     "0300000000000000050000000000000001000000010000000100000001000000"
     "0000000000010000000000000002000000000000000200000009000000000000"
     "0000000000000000000000000000000000000000000000000001000000030000"
     "000000000000000000000000000000000000000000"},
    {vr::MsgType::kBufferAck,
     "0300000000000000050000000000000001000000020000002900000000000000"
     "012c00000000000000010700000000000000"},
    {vr::MsgType::kSnapshotChunk,
     "0300000000000000050000000000000001000000010000000500000000000000"
     "0100000028000000000000000a00000000000000efbeadde0400000000000000"
     "03000000070809"},
    {vr::MsgType::kSnapshotAck,
     "0300000000000000050000000000000001000000020000000500000000000000"
     "0100000028000000000000000700000000000000"},
    {vr::MsgType::kCall,
     "0300000000000000050000000000000001000000630000000000000011000000"
     "020000000b000000010000000000000002000000000000000200000009000000"
     "0000000002000000010000000100000003000000707574030000006b3d31"},
    {vr::MsgType::kReply,
     "6300000000000000010200000004020200000007000000000000000300000000"
     "000000020000000e000000000000000100000009000000000000000500000000"
     "0000000100000002000000000000000000000001060000000000000002000000"
     "01000000020000000200000003000000"},
    {vr::MsgType::kPrepare,
     "0300000000000000010000000000000002000000000000000200000009000000"
     "000000000200000007000000000000000300000000000000020000000e000000"
     "0000000001000000090000000000000005000000000000000100000002000000"
     "00000000000000000b000000"},
    {vr::MsgType::kPrepareReply,
     "0100000000000000020000000000000002000000090000000000000003000000"
     "0000000000010106000000000000000200000001000000020000000200000003"
     "000000"},
    {vr::MsgType::kCommit,
     "0300000000000000010000000000000002000000000000000200000009000000"
     "000000000b000000"},
    {vr::MsgType::kCommitDone,
     "0100000000000000020000000000000002000000090000000000000003000000"
     "0000000001010600000000000000020000000100000002000000020000000300"
     "0000"},
    {vr::MsgType::kAbort,
     "0300000000000000010000000000000002000000000000000200000009000000"
     "00000000"},
    {vr::MsgType::kAbortSub,
     "0300000000000000010000000000000002000000000000000200000009000000"
     "0000000002000000"},
    {vr::MsgType::kQuery,
     "010000000000000002000000000000000200000009000000000000000b000000"
     "0700000000000000"},
    {vr::MsgType::kQueryReply,
     "0100000000000000020000000000000002000000090000000000000002"},
    {vr::MsgType::kProbe,
     "03000000000000004d000000000000000b000000"},
    {vr::MsgType::kProbeReply,
     "03000000000000004d0000000000000001010500000000000000010000000100"
     "0000020000000200000003000000"},
    {vr::MsgType::kBeginTxn,
     "03000000000000000500000000000000010000004d000000000000000b000000"},
    {vr::MsgType::kBeginTxnReply,
     "4d00000000000000020100000000000000020000000000000002000000090000"
     "0000000000010600000000000000020000000100000002000000020000000300"
     "0000"},
    {vr::MsgType::kCommitReq,
     "03000000000000000500000000000000010000004e0000000000000001000000"
     "0000000002000000000000000200000009000000000000000200000007000000"
     "000000000300000000000000020000000e000000000000000100000009000000"
     "000000000500000000000000010000000200000000000000000000000b000000"},
    {vr::MsgType::kCommitReqReply,
     "4e0000000000000003"},
    {vr::MsgType::kAbortReq,
     "0300000000000000010000000000000002000000000000000200000009000000"
     "000000000200000007000000000000000300000000000000020000000e000000"
     "0000000001000000090000000000000005000000000000000100000002000000"
     "0000000000000000"},
    {vr::MsgType::kShardPull,
     "03000000000000000100000007000000000000000100000061010000006d"},
    {vr::MsgType::kLeaseGrant,
     "0300000000000000050000000000000001000000010000000600000000000000"
     "290000000000000060ea000000000000"},
    {vr::MsgType::kBackupRead,
     "0300000000000000050000006974656d37050000000000000001000000280000"
     "000000000063000000000000000c000000"},
    {vr::MsgType::kBackupReadReply,
     "6300000000000000030100000076050000000000000001000000260000000000"
     "000001000000"},
};

// The encodings of SampleEvents(), indexed by EventType.
const char* const kGoldenEvents[] = {
    // completed-call
    "0014000000000000000100000000000000020000000000000002000000090000"
    "0000000000020000000200000001000000780101020000003432010000007900"
    "0011000000020000000100000005020000000700000000000000030000000000"
    "0000020000000e00000000000000010000000900000000000000050000000000"
    "0000010000000200000000000000000000000000000000000000000000000000"
    "000000000000",
    // committing
    "0115000000000000000100000000000000020000000000000002000000090000"
    "0000000000000000000000000000000000000000000000000000000000020000"
    "0003000000000000000700000000000000000000000000000000000000000000"
    "00",
    // committed
    "0216000000000000000100000000000000020000000000000002000000090000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000",
    // aborted
    "0317000000000000000100000000000000020000000000000002000000090000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000",
    // done
    "0418000000000000000100000000000000020000000000000002000000090000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000",
    // aborted-sub
    "0519000000000000000100000000000000020000000000000002000000090000"
    "0000000000020000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000",
    // newview
    "061a000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0001000000020000000200000003000000020000000100000000000000030000"
    "000a000000000000000200000000000000010000000400000000000000030000"
    "00010203",
    // shard-install
    "071b000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000002000000616d",
    // shard-drop
    "081c000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000010000006d",
};

// Calls fn(sample, golden_hex) for every frame type, in tag order.
template <typename Fn>
void ForEachFrame(Fn&& fn) {
  std::size_t i = 0;
  std::apply([&](const auto&... m) { (fn(m, kGoldenFrames[i++]), ...); },
             SampleFrames());
}

TEST(Messages, GoldenBytesEveryFrameType) {
  std::set<vr::MsgType> covered;
  ForEachFrame([&](const auto& m, const GoldenFrame& golden) {
    using M = std::decay_t<decltype(m)>;
    EXPECT_EQ(M::kType, golden.type);
    EXPECT_EQ(Hex(vr::EncodeMsg(m)), golden.hex)
        << vr::MsgTypeName(M::kType);
    covered.insert(M::kType);
  });
  // Every tag with a name is pinned.
  for (int t = 0; t < 256; ++t) {
    const auto type = static_cast<vr::MsgType>(t);
    if (std::string(vr::MsgTypeName(type)) == "?") continue;
    EXPECT_EQ(covered.count(type), 1u) << vr::MsgTypeName(type);
  }
  EXPECT_EQ(covered.size(), 29u);
}

TEST(Messages, GoldenBytesEveryEventType) {
  const std::vector<vr::EventRecord> events = SampleEvents();
  ASSERT_EQ(events.size(), std::size(kGoldenEvents));
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(events[i].type), i);
    EXPECT_EQ(Hex(vr::EncodeMsg(events[i])), kGoldenEvents[i])
        << vr::EventTypeName(events[i].type);
  }
}

TEST(Messages, GoldenFramesDecodeAndReencodeByteForByte) {
  ForEachFrame([](const auto& m, const GoldenFrame& golden) {
    using M = std::decay_t<decltype(m)>;
    const std::vector<std::uint8_t> bytes = Unhex(golden.hex);
    wire::Reader r(bytes);
    const M out = M::Decode(r);
    EXPECT_TRUE(r.ok()) << vr::MsgTypeName(M::kType);
    EXPECT_TRUE(r.AtEnd()) << vr::MsgTypeName(M::kType);
    EXPECT_EQ(vr::EncodeMsg(out), bytes) << vr::MsgTypeName(M::kType);
  });
}

TEST(Messages, GoldenEventsDecodeAndReencodeByteForByte) {
  for (const char* hex : kGoldenEvents) {
    const std::vector<std::uint8_t> bytes = Unhex(hex);
    wire::Reader r(bytes);
    const auto rec = r.Read<vr::EventRecord>();
    EXPECT_TRUE(r.ok()) << hex;
    EXPECT_TRUE(r.AtEnd()) << hex;
    EXPECT_EQ(vr::EncodeMsg(rec), bytes) << hex;
  }
}

// A frame is accepted only whole: one byte past the layout and it is not the
// message. (A CommitMsg still carrying the removed decision trailer is one
// such frame.)
TEST(Messages, DecodeFrameRejectsTrailingBytes) {
  ForEachFrame([](const auto& m, const GoldenFrame& golden) {
    using M = std::decay_t<decltype(m)>;
    std::vector<std::uint8_t> bytes = Unhex(golden.hex);
    EXPECT_TRUE(vr::DecodeFrame<M>(bytes).has_value())
        << vr::MsgTypeName(M::kType);
    bytes.push_back(0);
    EXPECT_FALSE(vr::DecodeFrame<M>(bytes).has_value())
        << vr::MsgTypeName(M::kType);
  });
}

// Truncation fuzz: every strict prefix of a valid message must decode with
// ok() == false (never crash, never silently succeed with short reads).
TEST(Messages, EveryTruncationIsDetected) {
  ForEachFrame([](const auto& m, const GoldenFrame&) {
    ExpectEveryTruncationDetected(m);
  });
  vr::BufferBatchMsg b = std::get<vr::BufferBatchMsg>(SampleFrames());
  b.events = SampleEvents();
  ExpectEveryTruncationDetected(b);
}

// Fuzz: decoding random bytes, or a valid frame with one byte changed, must
// never crash.
TEST(Messages, FuzzDecodeIsMemorySafe) {
  sim::Rng rng(99);
  ForEachFrame([&](const auto& m, const GoldenFrame&) {
    using M = std::decay_t<decltype(m)>;
    const std::vector<std::uint8_t> valid = vr::EncodeMsg(m);
    for (int iter = 0; iter < 250; ++iter) {
      std::vector<std::uint8_t> junk(rng.UniformInt(0, 64));
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.Next());
      wire::Reader r(junk);
      (void)M::Decode(r);

      std::vector<std::uint8_t> flipped = valid;
      flipped[rng.UniformInt(0, flipped.size() - 1)] ^=
          static_cast<std::uint8_t>(1 + rng.UniformInt(0, 254));
      wire::Reader fr(flipped);
      (void)M::Decode(fr);
    }
  });
  for (int iter = 0; iter < 250; ++iter) {
    std::vector<std::uint8_t> junk(rng.UniformInt(0, 64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.Next());
    wire::Reader r(junk);
    (void)r.Read<vr::EventRecord>();
  }
  SUCCEED();
}

// `set_tag(m, v)` stores raw tag v in one enum field of m. The decoder must
// accept the field's largest tag and reject anything above it.
template <typename M, typename SetTag>
void ExpectTagRangeChecked(M m, SetTag set_tag, std::uint8_t max) {
  for (const std::uint8_t tag :
       {max, static_cast<std::uint8_t>(max + 1), std::uint8_t{0xff}}) {
    set_tag(m, tag);
    const std::vector<std::uint8_t> bytes = vr::EncodeMsg(m);
    wire::Reader r(bytes);
    (void)M::Decode(r);
    EXPECT_EQ(r.ok(), tag <= max)
        << vr::MsgTypeName(M::kType) << " tag " << int{tag};
  }
}

TEST(Messages, DecodeRejectsBadEnumTags) {
  const auto frames = SampleFrames();
  ExpectTagRangeChecked(
      std::get<vr::ReplyMsg>(frames),
      [](auto& m, std::uint8_t v) { m.status = vr::ReplyStatus{v}; }, 2);
  ExpectTagRangeChecked(
      std::get<vr::BeginTxnReplyMsg>(frames),
      [](auto& m, std::uint8_t v) { m.status = vr::ReplyStatus{v}; }, 2);
  ExpectTagRangeChecked(
      std::get<vr::PrepareReplyMsg>(frames),
      [](auto& m, std::uint8_t v) { m.status = vr::PrepareStatus{v}; }, 2);
  ExpectTagRangeChecked(
      std::get<vr::QueryReplyMsg>(frames),
      [](auto& m, std::uint8_t v) { m.outcome = vr::TxnOutcome{v}; }, 3);
  ExpectTagRangeChecked(
      std::get<vr::CommitReqReplyMsg>(frames),
      [](auto& m, std::uint8_t v) { m.outcome = vr::TxnOutcome{v}; }, 3);
  ExpectTagRangeChecked(
      std::get<vr::BackupReadReplyMsg>(frames),
      [](auto& m, std::uint8_t v) { m.status = vr::ReadStatus{v}; }, 3);
  // Record tags travel inside a batch.
  vr::BufferBatchMsg batch = std::get<vr::BufferBatchMsg>(frames);
  batch.events = {SampleEvents()[0]};
  ExpectTagRangeChecked(
      batch,
      [](auto& m, std::uint8_t v) { m.events[0].type = vr::EventType{v}; }, 8);
  ExpectTagRangeChecked(
      batch,
      [](auto& m, std::uint8_t v) {
        m.events[0].effects[1].mode = vr::LockMode{v};
      },
      1);
}

}  // namespace
}  // namespace vsr
