#include "core/group_client.h"

#include <vector>

namespace vsr::core {

GroupClient::GroupClient(host::TimerService& timers, net::Transport& transport,
                         const Directory& directory, vr::Mid self,
                         OwnView own)
    : transport_(transport),
      directory_(directory),
      self_(self),
      own_(std::move(own)),
      waiters_(timers) {}

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

void GroupClient::EndWatch(vr::GroupId g, vr::ViewId vid, const vr::View& v) {
  watches_.erase(g);
  Update(g, vid, v);
  // Fig. 2: a call got no reply, so "we need to discover a more recent
  // view". Now one is known, and the old view's primary can only answer a
  // call sent to that view with a wrong-view rejection: every call that
  // joined the watch is answered so now, and takes its redirect branch.
  vr::ReplyMsg reject;
  reject.status = vr::ReplyStatus::kWrongView;
  reject.view_known = true;
  reject.new_viewid = vid;
  reject.new_view = v;
  std::vector<std::uint64_t> ended;
  for (const auto& [seq, call] : calls_) {
    if (call.group == g && call.watching && call.viewid < vid) {
      ended.push_back(call.call_id);
    }
  }
  // Each resumed call runs on at once, so the ids are collected first.
  for (std::uint64_t id : ended) {
    reject.call_id = id;
    Waiters<vr::ReplyMsg>().Fulfill(id, reject);
  }
}

host::Task<std::optional<GroupClient::Entry>> GroupClient::Lookup(
    vr::GroupId g) {
  if (auto e = Get(g)) co_return e;
  const std::vector<vr::Mid>* config = directory_.Lookup(g);
  if (config == nullptr) co_return std::nullopt;
  // Each round probes every member at once; only active cohorts answer, and
  // the first answer wins, so a dead member costs nothing. A cohort in a
  // view change parks the probe and answers once the view forms.
  for (int round = 0; round < kProbeRounds; ++round) {
    if (auto e = Get(g)) co_return e;  // filled concurrently
    vr::ProbeMsg probe;
    probe.group = g;
    probe.req_id = NextId();
    probe.reply_to = self_;
    for (vr::Mid target : *config) Send(target, probe);
    auto r = co_await Waiters<vr::ProbeReplyMsg>().Await(probe.req_id,
                                                         kProbeTimeout);
    if (r) {
      Update(g, r->viewid, r->view);
      co_return Get(g);
    }
  }
  co_return std::nullopt;
}

void GroupClient::Watch(vr::GroupId g, vr::ViewId floor) {
  if (watches_.count(g) != 0) return;
  const std::vector<vr::Mid>* config = directory_.Lookup(g);
  if (config == nullptr) return;
  watches_[g] = floor;
  vr::ProbeMsg probe;
  probe.group = g;
  probe.req_id = NextId();
  probe.reply_to = self_;
  probe.newer_than = floor;
  for (vr::Mid target : *config) Send(target, probe);
}

void GroupClient::Leave(std::uint64_t call_seq, vr::GroupId g) {
  calls_.erase(call_seq);
  if (watches_.count(g) == 0) return;
  for (const auto& [seq, call] : calls_) {
    if (call.group == g) return;
  }
  watches_.erase(g);
}

void GroupClient::OnReply(vr::ProbeReplyMsg r) {
  // Any answer past a running watch's floor ends it, whichever probe it
  // answers: a cohort parks one probe per requester, so a lookup's probe
  // may have replaced the watch's.
  auto w = watches_.find(r.group);
  if (w != watches_.end() && w->second < r.viewid) {
    EndWatch(r.group, r.viewid, r.view);
  }
  Waiters<vr::ProbeReplyMsg>().Fulfill(r.req_id, std::move(r));
}

host::Task<std::optional<vr::ReplyMsg>> GroupClient::Call(vr::CallMsg msg,
                                                         bool* sent) {
  // One duplicate-suppression key for every transmission of this attempt.
  msg.call_seq = NextCallSeq();
  msg.reply_to = self_;
  std::optional<vr::ReplyMsg> r;
  for (int attempt = 1; attempt <= kCallAttempts && !r; ++attempt) {
    const auto entry = co_await Lookup(msg.group);
    // "If a more recent view cannot be discovered, abort" (Fig. 2). A view
    // other than the one the call went to ends it as a redirect would: the
    // call is never retransmitted to another primary.
    if (!entry || (attempt > 1 && entry->viewid != msg.viewid)) {
      Leave(msg.call_seq, msg.group);
      co_return std::nullopt;
    }
    msg.viewid = entry->viewid;
    msg.call_id = NextId();
    Send(entry->view.primary, msg);
    if (sent != nullptr) *sent = true;
    calls_[msg.call_seq] =
        PendingCall{msg.group, msg.viewid, msg.call_id, attempt > 1};
    r = co_await Waiters<vr::ReplyMsg>().Await(msg.call_id, kCallTimeout);
    // Retransmit to the same primary; the server's dedup table makes this
    // safe within a view. From now on the call waits on the group's watch
    // too, whose newer view ends it as a redirect: retrying at a
    // *different* primary would risk double execution (Fig. 2).
    if (!r && attempt < kCallAttempts) Watch(msg.group, msg.viewid);
  }
  Leave(msg.call_seq, msg.group);
  if (!r) {
    // "we also attempt to update the cache, so that the next use of the
    //  server will not cause an abort."
    Invalidate(msg.group);
    co_return std::nullopt;
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
  auto r = co_await Request<vr::QueryReplyMsg>(g, attempts, kProbeTimeout,
                                               send);
  co_return r ? r->outcome : vr::TxnOutcome::kUnknown;
}

}  // namespace vsr::core
