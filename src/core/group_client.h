// Reaching a group's current primary (§3, Fig. 2; DESIGN.md §16.1).
//
// "To find a server it has not used before, a cohort fetches the
//  configuration from the location server and communicates with members of
//  the configuration to determine the current primary and viewid. It stores
//  this information in a local cache." GroupClient is that client role, once:
// the cohort's coordinator (core::Cohort) and the §3.5 client
// (client::UnreplicatedClient) each own one. It holds
//   * the primary cache: get, monotone update, invalidate, and the lookup
//     that probes every configuration member at once on a miss;
//   * the redirect rule: a wrong-primary reply's hint updates the cache when
//     it names a view, and otherwise invalidates the entry;
//   * the call attempt (Fig. 2 "Making a remote call"): one duplicate-
//     suppression key, retransmitted to the primary it was first sent to,
//     never retried at another primary after a wrong-view rejection;
//   * the watch (DESIGN.md §16 rule 4): once a call transmission goes
//     silent, one probe round asks the group for a view newer than the
//     call's; the cohorts park it until such a view is active. The cache
//     takes the answer, and every call that went silent on an older view
//     of the group ends as if that view's primary had rejected it;
//   * the retried request loop for idempotent requests (prepare, commit,
//     begin, commit-request): look up, send, await, follow a redirect,
//     invalidate after silence, for a bounded number of transmissions;
//   * the outcome request (§3.4 queries, DESIGN.md §13.6 settles) on that
//     loop, with the query replies' waiter table.
//
// Host-agnostic: built over host::TimerService, net::Transport and the
// Directory, like every protocol module.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/directory.h"
#include "core/wait_table.h"
#include "host/task.h"
#include "host/timer.h"
#include "net/transport.h"
#include "vr/messages.h"
#include "vr/types.h"

namespace vsr::core {

// Fixed timing of the client role.
// One call transmission waits this long for its reply.
inline constexpr host::Duration kCallTimeout = 60 * host::kMillisecond;
// Transmissions of one call (and of a §3.5 begin) before "no reply".
inline constexpr int kCallAttempts = 3;
// Probe rounds of one cache lookup before the group counts as unreachable.
inline constexpr int kProbeRounds = 4;
// One probe round, or one outcome-request transmission, waits this long.
inline constexpr host::Duration kProbeTimeout = 50 * host::kMillisecond;
// A prepare transmission waits this long, plus the participant's force, for
// its vote; a participant gets kPrepareAttempts transmissions.
inline constexpr host::Duration kPrepareTimeout = 80 * host::kMillisecond;
inline constexpr int kPrepareAttempts = 3;
// A commit (or commit-request) transmission waits this long, plus the
// participant's force, for its acknowledgement.
inline constexpr host::Duration kCommitAckTimeout = 80 * host::kMillisecond;

// Whether a reply is a wrong-primary rejection carrying a redirect hint.
inline bool Redirected(const vr::ReplyMsg& r) {
  return r.status == vr::ReplyStatus::kWrongView;
}
inline bool Redirected(const vr::PrepareReplyMsg& r) {
  return r.status == vr::PrepareStatus::kWrongPrimary;
}
inline bool Redirected(const vr::CommitDoneMsg& r) { return r.wrong_primary; }
inline bool Redirected(const vr::BeginTxnReplyMsg& r) {
  return r.status == vr::ReplyStatus::kWrongView;
}
inline bool Redirected(const vr::QueryReplyMsg& r) { return r.wrong_primary; }
// Replies that can carry one. Only the coordinator-server's primary answers
// a commit request, so its reply carries none.
template <typename R>
concept CarriesRedirect = requires(const R& r) { Redirected(r); };

class GroupClient {
 public:
  // A group's primary as last learned: its view and viewid.
  struct Entry {
    vr::ViewId viewid;
    vr::View view;
  };
  // The owner's own group, answered without the cache (a cohort knows its
  // own view while active); nullopt defers to the cache.
  using OwnView = std::function<std::optional<Entry>(vr::GroupId)>;

  GroupClient(host::TimerService& timers, net::Transport& transport,
              const Directory& directory, vr::Mid self, OwnView own = nullptr);
  GroupClient(const GroupClient&) = delete;
  GroupClient& operator=(const GroupClient&) = delete;

  // The owner's correlation ids: probes, calls and requests draw from the
  // same counter as the owner's other waits.
  std::uint64_t NextId() { return next_id_++; }

  template <typename M>
  void Send(vr::Mid to, const M& m) {
    transport_.Send(self_, to, static_cast<std::uint16_t>(M::kType),
                    vr::EncodeMsg(m));
  }

  // ---- the primary cache ----
  std::optional<Entry> Get(vr::GroupId g) const;
  // Takes the view only if it is newer than the cached one.
  void Update(vr::GroupId g, vr::ViewId vid, const vr::View& v);
  void Invalidate(vr::GroupId g) { cache_.erase(g); }
  // Forgets the cache, the calls and the watches; the owner has destroyed
  // every coroutine that waited on them.
  void Clear() {
    cache_.clear();
    calls_.clear();
    watches_.clear();
  }
  // The cached entry, or the first active answer to a round of probes sent
  // to every member of the configuration; nullopt after kProbeRounds silent
  // rounds or for a group the directory does not know.
  host::Task<std::optional<Entry>> Lookup(vr::GroupId g);

  // The redirect rule, for a reply that Redirected().
  template <typename R>
  void Follow(vr::GroupId g, const R& r) {
    if (r.view_known) {
      Update(g, r.new_viewid, r.new_view);
    } else {
      Invalidate(g);
    }
  }

  // ---- reply intake (the owner's frame dispatch) ----
  void OnProbeReply(const vr::ProbeReplyMsg& m);
  void OnReply(vr::ReplyMsg m) {
    reply_waiters_.Fulfill(m.call_id, std::move(m));
  }
  void OnQueryReply(vr::QueryReplyMsg m) {
    query_waiters_.Fulfill({m.aid, m.from_group}, std::move(m));
  }
  // Outcome requests waiting for their reply (DESIGN.md §15).
  std::size_t PendingOutcomeRequests() const {
    return query_waiters_.pending();
  }

  // ---- the call attempt (Fig. 2) ----
  // Sends `msg` (group, subaction, procedure and arguments filled in) to the
  // group's primary under one duplicate-suppression key, up to
  // kCallAttempts transmissions to that one primary, and returns a kOk or
  // kFailed reply. nullopt when no primary was found, none answered (the
  // entry is then invalidated), or the call's view was rejected, by its
  // primary, by a newer view the watch found, or by a newer view in the
  // cache at a retransmission: a duplicate may have run in the old view,
  // so the call is never retried at another primary. A silent transmission
  // other than the last joins the group's watch, starting it if needed.
  // `sent` reports whether any transmission left.
  host::Task<std::optional<vr::ReplyMsg>> Call(vr::CallMsg msg,
                                              bool* sent = nullptr);

  // ---- the retried request loop ----
  // Sends an idempotent request to g's primary until it answers with
  // anything but a redirect, for up to `attempts` transmissions: `send`
  // builds and sends one transmission to the given primary and returns the
  // key its reply arrives under in `replies`. A redirect is followed and a
  // silent transmission invalidates the entry before the next attempt.
  // nullopt when no primary was found or the attempts ran out.
  template <typename Reply, typename Key>
  host::Task<std::optional<Reply>> Request(
      vr::GroupId g, int attempts, host::Duration timeout,
      WaitTable<Reply, Key>& replies,
      std::type_identity_t<std::function<Key(const Entry&)>> send) {
    for (int attempt = 0; attempt < attempts; ++attempt) {
      auto entry = co_await Lookup(g);
      if (!entry) co_return std::nullopt;
      const Key key = send(*entry);
      auto r = co_await replies.Await(key, timeout);
      if (!r) {
        Invalidate(g);
        continue;
      }
      if constexpr (CarriesRedirect<Reply>) {
        if (Redirected(*r)) {
          Follow(g, *r);
          continue;
        }
      }
      co_return r;
    }
    co_return std::nullopt;
  }

  // ---- the outcome request (§3.4; DESIGN.md §13.6, §13.7) ----
  // Asks g's primary for the outcome of `aid` on the retried request loop,
  // up to `attempts` transmissions of kProbeTimeout each; with `settle` the
  // primary decides an undecided transaction (aborted) first. Only the
  // active primary answers, and only a stable outcome: kCommitted,
  // kAborted, kActive (the coordinator is still deciding) or kUnknown (it
  // has no record). kUnknown too when no primary answered. `sent`, when
  // given, counts the transmissions.
  host::Task<vr::TxnOutcome> AskOutcome(vr::GroupId g, vr::Aid aid,
                                        bool settle, int attempts,
                                        std::uint64_t* sent = nullptr);

 private:
  std::uint64_t NextCallSeq() {
    return (static_cast<std::uint64_t>(self_) << 32) | next_call_seq_++;
  }
  // Starts g's watch unless one is running: one probe to every member of
  // the configuration, answered once a view newer than `floor` is active.
  void Watch(vr::GroupId g, vr::ViewId floor);
  // The call under `call_seq` has its answer; the group's watch ends with
  // the group's last waiting call.
  void Leave(std::uint64_t call_seq, vr::GroupId g);
  // The watch found view `vid` of g: the cache takes it, and every call
  // that joined the watch gets the wrong-view rejection the old view's
  // primary would send, with the new view as its hint.
  void EndWatch(vr::GroupId g, vr::ViewId vid, const vr::View& v);

  net::Transport& transport_;
  const Directory& directory_;
  const vr::Mid self_;
  const OwnView own_;

  std::uint64_t next_id_ = 1;
  std::uint32_t next_call_seq_ = 1;
  std::map<vr::GroupId, Entry> cache_;
  // Calls awaiting a reply, by duplicate-suppression key: the group and
  // view they were sent to, the correlation id of their latest
  // transmission, and whether an earlier one went silent (the call then
  // waits on the group's watch).
  struct PendingCall {
    vr::GroupId group;
    vr::ViewId viewid;
    std::uint64_t call_id;
    bool watching;
  };
  std::map<std::uint64_t, PendingCall> calls_;
  // Running watches, by group: the viewid their probes must pass.
  std::map<vr::GroupId, vr::ViewId> watches_;
  WaitTable<vr::ProbeReplyMsg> probe_waiters_;
  WaitTable<vr::ReplyMsg> reply_waiters_;
  // Keyed by aid and answering group: the reply names no correlation id,
  // and one aid may be asked of several groups in turn.
  WaitTable<vr::QueryReplyMsg, std::pair<vr::Aid, vr::GroupId>>
      query_waiters_;
};

}  // namespace vsr::core
