#include "wire_replay.h"

#include <map>
#include <span>

#include "vr/messages.h"
#include "wire/buffer.h"

namespace vsr::perfbench {
namespace {

using Payloads = std::vector<const std::vector<std::uint8_t>*>;

// Each pass over a type's sample is repeated until it has run this long, and
// the fastest pass is kept: the replay measures the code, not the host.
constexpr double kMinReplayNs = 2e6;
constexpr int kMaxPasses = 50;

// Every pass folds its results in here, so none can be optimised away.
volatile std::size_t g_sink = 0;

template <class Fn>
double FastestPassNs(Fn&& pass) {
  double best = 1e300;
  double spent = 0;
  for (int i = 0; i < kMaxPasses && (i < 3 || spent < kMinReplayNs); ++i) {
    const std::int64_t t0 = WallNs();
    pass();
    const double ns = static_cast<double>(WallNs() - t0);
    best = std::min(best, ns);
    spent += ns;
  }
  return best;
}

template <class M>
void ReplayType(std::uint16_t type, const Payloads& payloads,
                TraceSummary& out) {
  const double n = static_cast<double>(payloads.size());
  std::vector<M> msgs;
  msgs.reserve(payloads.size());
  for (const auto* p : payloads) {
    wire::Reader r(std::span<const std::uint8_t>(p->data(), p->size()));
    msgs.push_back(M::Decode(r));
    if (!r.ok() || vr::EncodeMsg(msgs.back()) != *p) ++out.replay_mismatches;
  }

  std::size_t sink = 0;
  out.decode_ns_per_frame[type] = FastestPassNs([&] {
    for (const auto* p : payloads) {
      wire::Reader r(std::span<const std::uint8_t>(p->data(), p->size()));
      [[maybe_unused]] const M m = M::Decode(r);
      sink += r.ok();
    }
  }) / n;
  out.encode_ns_per_frame[type] = FastestPassNs([&] {
    for (const M& m : msgs) sink += vr::EncodeMsg(m).size();
  }) / n;
  out.crc_ns_per_frame[type] = FastestPassNs([&] {
    for (const auto* p : payloads) sink += wire::Crc32(*p);
  }) / n;
  g_sink = g_sink + sink;
}

}  // namespace

void ReplayWire(const std::vector<const SpanLog*>& logs, TraceSummary& out) {
  std::map<std::uint16_t, Payloads> by_type;
  for (const SpanLog* log : logs) {
    for (const SpanLog::SampledFrame& f : log->frames()) {
      by_type[f.type].push_back(&f.payload);
      ++out.sampled_frames;
    }
  }
  using vr::MsgType;
  for (const auto& [type, payloads] : by_type) {
    switch (static_cast<MsgType>(type)) {
#define VSR_REPLAY(Msg)                          \
  case vr::Msg::kType:                           \
    ReplayType<vr::Msg>(type, payloads, out);    \
    break;
      VSR_REPLAY(PingMsg)
      VSR_REPLAY(InviteMsg)
      VSR_REPLAY(AcceptMsg)
      VSR_REPLAY(InitViewMsg)
      VSR_REPLAY(BufferBatchMsg)
      VSR_REPLAY(BufferAckMsg)
      VSR_REPLAY(SnapshotChunkMsg)
      VSR_REPLAY(SnapshotAckMsg)
      VSR_REPLAY(CallMsg)
      VSR_REPLAY(ReplyMsg)
      VSR_REPLAY(PrepareMsg)
      VSR_REPLAY(PrepareReplyMsg)
      VSR_REPLAY(CommitMsg)
      VSR_REPLAY(CommitDoneMsg)
      VSR_REPLAY(AbortMsg)
      VSR_REPLAY(AbortSubMsg)
      VSR_REPLAY(QueryMsg)
      VSR_REPLAY(QueryReplyMsg)
      VSR_REPLAY(ProbeMsg)
      VSR_REPLAY(ProbeReplyMsg)
      VSR_REPLAY(BeginTxnMsg)
      VSR_REPLAY(BeginTxnReplyMsg)
      VSR_REPLAY(CommitReqMsg)
      VSR_REPLAY(CommitReqReplyMsg)
      VSR_REPLAY(AbortReqMsg)
      VSR_REPLAY(ShardPullMsg)
      VSR_REPLAY(LeaseGrantMsg)
      VSR_REPLAY(BackupReadMsg)
      VSR_REPLAY(BackupReadReplyMsg)
#undef VSR_REPLAY
      default:
        out.replay_mismatches += payloads.size();  // a type nobody decodes
    }
  }
}

}  // namespace vsr::perfbench
