// Unit tests for serialization: writer/reader primitives, every protocol
// message round-trip, golden bytes pinning the documented layouts
// (DESIGN.md §8), truncation/corruption robustness, CRC32.
#include <gtest/gtest.h>

#include <algorithm>

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
  auto v = r.Vector<std::uint64_t>([&] { return r.U64(); });
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(v.empty());
}

TEST(Buffer, EmptyVectorAndBytes) {
  Writer w;
  w.Vector(std::vector<int>{}, [&](int) {});
  w.Bytes({});
  auto bytes = w.Take();
  Reader r(bytes);
  auto v = r.Vector<int>([&] { return static_cast<int>(r.U32()); });
  auto b = r.Bytes();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(v.empty());
  EXPECT_TRUE(b.empty());
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

TEST(Messages, SnapshotChunkEveryTruncationIsDetected) {
  vr::SnapshotChunkMsg m;
  m.group = 6;
  m.viewid = {3, 1};
  m.from = 1;
  m.vs = {{3, 1}, 41};
  m.total_size = 5;
  m.checksum = 0xabad1dea;
  m.offset = 0;
  m.data = {1, 2, 3, 4, 5};
  ExpectEveryTruncationDetected(m);
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

TEST(Messages, LeaseAndReadEveryTruncationIsDetected) {
  vr::LeaseGrantMsg g;
  g.group = 3;
  g.viewid = {5, 1};
  g.from = 2;
  g.seq = 6;
  g.stable_ts = 41;
  g.duration = 60000;
  vr::BackupReadMsg m;
  m.group = 3;
  m.uid = "item7";
  m.horizon = vr::Viewstamp{{5, 1}, 40};
  m.corr = 99;
  m.reply_to = 12;
  vr::BackupReadReplyMsg rep;
  rep.corr = 99;
  rep.status = vr::ReadStatus::kOk;
  rep.value = {'v', '4'};
  rep.served_vs = vr::Viewstamp{{5, 1}, 38};
  rep.primary_hint = 7;
  ExpectEveryTruncationDetected(g);
  ExpectEveryTruncationDetected(m);
  ExpectEveryTruncationDetected(rep);
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

TEST(Messages, DecodeRejectsBadEnumTags) {
  vr::ReplyMsg m;
  m.status = vr::ReplyStatus::kOk;
  auto bytes = vr::EncodeMsg(m);
  bytes[8] = 0x77;  // status byte follows the u64 call_id
  wire::Reader r(bytes);
  (void)vr::ReplyMsg::Decode(r);
  EXPECT_FALSE(r.ok());
}

// Fuzz: decoding random bytes must never crash and must flag failure for
// truncated inputs.
TEST(Messages, FuzzDecodeIsMemorySafe) {
  sim::Rng rng(99);
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::uint8_t> junk(rng.UniformInt(0, 64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.Next());
    wire::Reader r(junk);
    switch (iter % 8) {
      case 0:
        (void)vr::CallMsg::Decode(r);
        break;
      case 1:
        (void)vr::ReplyMsg::Decode(r);
        break;
      case 2:
        (void)vr::BufferBatchMsg::Decode(r);
        break;
      case 3:
        (void)vr::EventRecord::Decode(r);
        break;
      case 4:
        (void)vr::AcceptMsg::Decode(r);
        break;
      case 5:
        (void)vr::PrepareMsg::Decode(r);
        break;
      case 6:
        (void)vr::BufferAckMsg::Decode(r);
        break;
      case 7:
        (void)vr::CommitMsg::Decode(r);
        break;
    }
  }
  SUCCEED();
}

// Truncation fuzz: every strict prefix of a valid message must decode with
// ok() == false (never crash, never silently succeed with short reads).
TEST(Messages, EveryTruncationIsDetected) {
  vr::BufferBatchMsg b;
  b.group = 6;
  b.viewid = {3, 1};
  b.from = 1;
  vr::EventRecord rec = vr::EventRecord::CompletedCall(
      {vr::Aid{6, {3, 1}, 2}, 1},
      {vr::ObjectEffect{"key", vr::LockMode::kWrite, "value"}});
  rec.ts = 5;
  b.events = {rec};
  ExpectEveryTruncationDetected(b);

  vr::BufferAckMsg a;
  a.group = 6;
  a.viewid = {3, 1};
  a.from = 2;
  a.ts = 41;
  a.gap = true;
  a.gap_hi = 44;
  ExpectEveryTruncationDetected(a);

  vr::CommitMsg c;
  c.group = 3;
  c.aid = {1, {2, 2}, 9};
  c.reply_to = 4;
  ExpectEveryTruncationDetected(c);
}

}  // namespace
}  // namespace vsr
