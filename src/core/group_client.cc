#include "core/group_client.h"

namespace vsr::core {

GroupClient::GroupClient(host::TimerService& timers, net::Transport& transport,
                         const Directory& directory, vr::Mid self,
                         OwnView own)
    : transport_(transport),
      directory_(directory),
      self_(self),
      own_(std::move(own)),
      probe_waiters_(timers),
      reply_waiters_(timers),
      query_waiters_(timers) {}

std::optional<GroupClient::Entry> GroupClient::Get(vr::GroupId g) const {
  if (own_) {
    if (auto e = own_(g)) return e;
  }
  auto it = cache_.find(g);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

void GroupClient::Update(vr::GroupId g, vr::ViewId vid, const vr::View& v) {
  auto it = cache_.find(g);
  if (it != cache_.end() && it->second.viewid >= vid) return;  // not newer
  cache_[g] = Entry{vid, v};
}

host::Task<std::optional<GroupClient::Entry>> GroupClient::Lookup(
    vr::GroupId g) {
  if (auto e = Get(g)) co_return e;
  const std::vector<vr::Mid>* config = directory_.Lookup(g);
  if (config == nullptr) co_return std::nullopt;
  // Each round probes every member at once; the first active answer wins
  // (OnProbeReply drops the others), so a dead member costs nothing.
  for (int round = 0; round < kProbeRounds; ++round) {
    if (auto e = Get(g)) co_return e;  // filled concurrently
    vr::ProbeMsg probe;
    probe.group = g;
    probe.req_id = NextId();
    probe.reply_to = self_;
    for (vr::Mid target : *config) Send(target, probe);
    auto r = co_await probe_waiters_.Await(probe.req_id, kProbeTimeout);
    if (r) {
      Update(g, r->viewid, r->view);
      co_return Get(g);
    }
  }
  co_return std::nullopt;
}

void GroupClient::OnProbeReply(const vr::ProbeReplyMsg& m) {
  if (m.known && m.active) probe_waiters_.Fulfill(m.req_id, m);
}

host::Task<std::optional<vr::ReplyMsg>> GroupClient::Call(vr::CallMsg msg,
                                                         bool* sent) {
  // One duplicate-suppression key for every transmission of this attempt.
  msg.call_seq = NextCallSeq();
  msg.reply_to = self_;
  for (int attempt = 1; attempt <= kCallAttempts; ++attempt) {
    auto entry = co_await Lookup(msg.group);
    if (!entry) co_return std::nullopt;  // "If a more recent view cannot be
                                         //  discovered, abort" (Fig. 2)
    msg.viewid = entry->viewid;
    msg.call_id = NextId();
    Send(entry->view.primary, msg);
    if (sent != nullptr) *sent = true;

    auto r = co_await reply_waiters_.Await(msg.call_id, kCallTimeout);
    if (!r) {
      // Retransmit to the same primary; the server's dedup table makes this
      // safe within a view. (Retrying at a *different* primary would risk
      // double execution, which is why no-reply ultimately aborts — Fig. 2.)
      if (attempt == kCallAttempts) {
        // "we also attempt to update the cache, so that the next use of the
        //  server will not cause an abort."
        Invalidate(msg.group);
      }
      continue;
    }
    if (Redirected(*r)) {
      // Fig. 2 step 4 would "update the cache, if possible, and go to step
      // 1", but a duplicate of this transmission may have executed in the
      // old view: "If duplicate messages are possible, we must abort the
      // transaction in this case too" (§3.1) — or retry as a fresh subaction
      // when nested transactions are on (§3.6). The redirect still serves
      // the next call.
      Follow(msg.group, *r);
      co_return std::nullopt;
    }
    co_return r;  // kOk or kFailed
  }
  co_return std::nullopt;
}

host::Task<vr::TxnOutcome> GroupClient::AskOutcome(vr::GroupId g,
                                                   vr::Aid aid, bool settle,
                                                   int attempts,
                                                   std::uint64_t* sent) {
  const auto send = [&](const Entry& entry) {
    vr::QueryMsg q;
    q.aid = aid;
    q.reply_to = self_;
    q.settle = settle;
    Send(entry.view.primary, q);
    if (sent != nullptr) ++*sent;
    return std::pair{aid, g};
  };
  auto r = co_await Request(g, attempts, kProbeTimeout, query_waiters_, send);
  co_return r ? r->outcome : vr::TxnOutcome::kUnknown;
}

}  // namespace vsr::core
