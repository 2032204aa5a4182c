// Unit tests for core::GroupClient (§3, Fig. 2; DESIGN.md §16.1): the
// primary cache, the redirect rule, the call attempt and its watch, driven
// on the simulator's clock over a transport that records what it is asked
// to send. Replies are handed to the client directly, at chosen instants.
// The last test drives the server side of a probe, one cohort, the same
// way.
#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/cohort.h"
#include "core/group_client.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace vsr {
namespace {

using core::GroupClient;

constexpr vr::GroupId kGroup = 7;
constexpr vr::Mid kSelf = 100;

class RecordingTransport : public net::Transport {
 public:
  void Register(net::NodeId, net::FrameHandler*) override {}
  void Unregister(net::NodeId) override {}
  void SetNodeUp(net::NodeId, bool) override {}
  void Send(net::NodeId from, net::NodeId to, std::uint16_t type,
            std::vector<std::uint8_t> payload) override {
    sent.push_back(net::Frame{from, to, type, std::move(payload)});
  }

  // Every frame of type M sent so far, with its destination.
  template <typename M>
  std::vector<std::pair<vr::Mid, M>> Sent() const {
    std::vector<std::pair<vr::Mid, M>> out;
    for (const net::Frame& f : sent) {
      if (f.type != static_cast<std::uint16_t>(M::kType)) continue;
      auto m = vr::DecodeFrame<M>(f.payload);
      if (m) out.emplace_back(f.to, std::move(*m));
    }
    return out;
  }

  std::vector<net::Frame> sent;
};

vr::View ViewWithPrimary(vr::Mid primary) {
  vr::View v;
  v.primary = primary;
  for (vr::Mid m : {1u, 2u, 3u}) {
    if (m != primary) v.backups.push_back(m);
  }
  return v;
}

struct World {
  World() { directory.RegisterGroup(kGroup, {1, 2, 3}); }

  void RunFor(sim::Duration d) {
    sim.scheduler().RunUntil(sim.Now() + d);
  }

  sim::Simulation sim{1};
  RecordingTransport net;
  core::Directory directory;
  GroupClient client{sim.scheduler(), net, directory, kSelf};
  // Declared last: tears suspended coroutines down before the client.
  host::TaskRegistry tasks;
};

vr::ProbeReplyMsg ProbeReply(std::uint64_t req_id, vr::ViewId vid,
                             vr::Mid primary) {
  vr::ProbeReplyMsg r;
  r.group = kGroup;
  r.req_id = req_id;
  r.viewid = vid;
  r.view = ViewWithPrimary(primary);
  return r;
}

// One probe round goes to every member with the zero floor (any active
// view), and the first answer settles the lookup even when a later one
// names a newer view.
TEST(GroupClient, FirstActiveProbeAnswerWins) {
  World w;
  std::optional<GroupClient::Entry> found;
  bool done = false;
  w.tasks.Spawn([](World& w, std::optional<GroupClient::Entry>& found,
                   bool& done) -> host::Task<void> {
    found = co_await w.client.Lookup(kGroup);
    done = true;
  }(w, found, done));

  const auto probes = w.net.Sent<vr::ProbeMsg>();
  ASSERT_EQ(probes.size(), 3u);
  EXPECT_EQ(probes[0].first, 1u);
  EXPECT_EQ(probes[1].first, 2u);
  EXPECT_EQ(probes[2].first, 3u);
  EXPECT_EQ(probes[0].second.newer_than, vr::ViewId{});
  const std::uint64_t req = probes[0].second.req_id;

  w.client.OnReply(ProbeReply(req + 1, {9, 1}, 1));  // another probe's
  EXPECT_FALSE(done);
  w.client.OnReply(ProbeReply(req, {4, 2}, 2));
  ASSERT_TRUE(done);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->viewid, (vr::ViewId{4, 2}));
  EXPECT_EQ(found->view.primary, 2u);

  w.client.OnReply(ProbeReply(req, {6, 3}, 3));
  auto cached = w.client.Get(kGroup);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->viewid, (vr::ViewId{4, 2}));
  EXPECT_EQ(w.net.Sent<vr::ProbeMsg>().size(), 3u);  // no second round
}

// The cache only moves forward: a redirect naming an older view than the
// cached one leaves the entry alone, a newer one replaces it.
TEST(GroupClient, OlderRedirectNeverReplacesNewerView) {
  World w;
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));

  vr::ReplyMsg stale;
  stale.status = vr::ReplyStatus::kWrongView;
  stale.view_known = true;
  stale.new_viewid = {3, 2};
  stale.new_view = ViewWithPrimary(2);
  ASSERT_TRUE(core::Redirected(stale));
  w.client.Follow(kGroup, stale);
  ASSERT_TRUE(w.client.Get(kGroup).has_value());
  EXPECT_EQ(w.client.Get(kGroup)->viewid, (vr::ViewId{5, 1}));
  EXPECT_EQ(w.client.Get(kGroup)->view.primary, 1u);

  w.client.Update(kGroup, {4, 3}, ViewWithPrimary(3));  // probe answer
  EXPECT_EQ(w.client.Get(kGroup)->viewid, (vr::ViewId{5, 1}));

  vr::ReplyMsg fresh = stale;
  fresh.new_viewid = {6, 2};
  w.client.Follow(kGroup, fresh);
  EXPECT_EQ(w.client.Get(kGroup)->viewid, (vr::ViewId{6, 2}));
  EXPECT_EQ(w.client.Get(kGroup)->view.primary, 2u);
}

// A wrong-primary answer from a cohort with no active view carries no hint:
// the retried request loop drops the entry, so its next attempt probes.
TEST(GroupClient, RedirectWithoutKnownViewInvalidates) {
  World w;
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));
  const vr::Aid aid{kGroup, {5, 1}, 1};
  std::optional<vr::PrepareReplyMsg> got;
  bool done = false;
  w.tasks.Spawn([](World& w, vr::Aid aid,
                   std::optional<vr::PrepareReplyMsg>& got,
                   bool& done) -> host::Task<void> {
    const auto send = [&](const GroupClient::Entry& e) {
      vr::PrepareMsg m;
      m.group = kGroup;
      m.aid = aid;
      m.reply_to = kSelf;
      w.client.Send(e.view.primary, m);
      return std::pair{aid, kGroup};
    };
    got = co_await w.client.Request<vr::PrepareReplyMsg>(
        kGroup, 1, 100 * sim::kMillisecond, send);
    done = true;
  }(w, aid, got, done));
  ASSERT_EQ(w.net.Sent<vr::PrepareMsg>().size(), 1u);
  EXPECT_EQ(w.net.Sent<vr::PrepareMsg>()[0].first, 1u);

  vr::PrepareReplyMsg r;
  r.aid = aid;
  r.from_group = kGroup;
  r.status = vr::PrepareStatus::kWrongPrimary;  // view_known stays false
  w.client.OnReply(r);
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.has_value());  // its one attempt was spent
  EXPECT_FALSE(w.client.Get(kGroup).has_value());
}

// Fig. 2: retransmissions go to the same primary under one duplicate-
// suppression key, and only after the last of them goes unanswered is the
// entry invalidated, so the next call probes instead of reusing it.
TEST(GroupClient, CallInvalidatesAfterItsLastSilentTransmission) {
  World w;
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));
  std::optional<vr::ReplyMsg> got;
  bool done = false;
  bool sent = false;
  w.tasks.Spawn([](World& w, std::optional<vr::ReplyMsg>& got, bool& done,
                   bool& sent) -> host::Task<void> {
    vr::CallMsg m;
    m.group = kGroup;
    m.proc = "put";
    got = co_await w.client.Call(std::move(m), &sent);
    done = true;
  }(w, got, done, sent));
  EXPECT_TRUE(sent);

  w.RunFor((core::kCallAttempts - 1) * core::kCallTimeout +
           core::kCallTimeout / 2);
  EXPECT_FALSE(done);
  EXPECT_TRUE(w.client.Get(kGroup).has_value());  // not before the last

  w.RunFor(core::kCallTimeout);
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.has_value());
  EXPECT_FALSE(w.client.Get(kGroup).has_value());

  const auto calls = w.net.Sent<vr::CallMsg>();
  ASSERT_EQ(calls.size(), static_cast<std::size_t>(core::kCallAttempts));
  for (const auto& [to, m] : calls) {
    EXPECT_EQ(to, 1u);
    EXPECT_EQ(m.call_seq, calls[0].second.call_seq);
    EXPECT_EQ(m.viewid, (vr::ViewId{5, 1}));
    EXPECT_EQ(m.reply_to, kSelf);
  }
  EXPECT_NE(calls[0].second.call_id, calls[1].second.call_id);
}

// A wrong-view rejection ends the attempt: a duplicate may have run in the
// old view, so the call is not sent to the new primary, whose view the
// cache keeps for the next call.
TEST(GroupClient, CallNeverRetriesAtAnotherPrimaryAfterWrongView) {
  World w;
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));
  std::optional<vr::ReplyMsg> got;
  bool done = false;
  w.tasks.Spawn([](World& w, std::optional<vr::ReplyMsg>& got,
                   bool& done) -> host::Task<void> {
    vr::CallMsg m;
    m.group = kGroup;
    m.proc = "put";
    got = co_await w.client.Call(std::move(m));
    done = true;
  }(w, got, done));
  auto calls = w.net.Sent<vr::CallMsg>();
  ASSERT_EQ(calls.size(), 1u);

  vr::ReplyMsg reject;
  reject.call_id = calls[0].second.call_id;
  reject.status = vr::ReplyStatus::kWrongView;
  reject.view_known = true;
  reject.new_viewid = {6, 2};
  reject.new_view = ViewWithPrimary(2);
  w.client.OnReply(reject);
  ASSERT_TRUE(done);
  EXPECT_FALSE(got.has_value());

  w.RunFor(1 * sim::kSecond);
  calls = w.net.Sent<vr::CallMsg>();
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0].first, 1u);
  ASSERT_TRUE(w.client.Get(kGroup).has_value());
  EXPECT_EQ(w.client.Get(kGroup)->view.primary, 2u);
}

// -- the watch (DESIGN.md §16 rule 4) ---------------------------------------

// Starts a call to kGroup; `done` flips and `got` holds its result once it
// returns.
struct CallProbe {
  std::optional<vr::ReplyMsg> got;
  bool done = false;
};
void StartCall(World& w, CallProbe& c) {
  w.tasks.Spawn([](World& w, CallProbe& c) -> host::Task<void> {
    vr::CallMsg m;
    m.group = kGroup;
    m.proc = "put";
    c.got = co_await w.client.Call(std::move(m));
    c.done = true;
  }(w, c));
}

// A call that is answered in time sends no probe; the first silent
// transmission starts the watch, which asks every member for a view newer
// than the call's.
TEST(GroupClient, WatchStartsOnlyAfterASilentTransmission) {
  World w;
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));
  CallProbe answered;
  StartCall(w, answered);
  w.RunFor(core::kCallTimeout / 2);
  vr::ReplyMsg ok;
  ok.call_id = w.net.Sent<vr::CallMsg>()[0].second.call_id;
  w.client.OnReply(ok);
  ASSERT_TRUE(answered.done);
  w.RunFor(1 * sim::kSecond);
  EXPECT_TRUE(w.net.Sent<vr::ProbeMsg>().empty());

  CallProbe silent;
  StartCall(w, silent);
  w.RunFor(core::kCallTimeout - 1);
  EXPECT_TRUE(w.net.Sent<vr::ProbeMsg>().empty());
  w.RunFor(1);
  const auto probes = w.net.Sent<vr::ProbeMsg>();
  ASSERT_EQ(probes.size(), 3u);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(probes[i].first, i + 1);
    EXPECT_EQ(probes[i].second.newer_than, (vr::ViewId{5, 1}));
    EXPECT_EQ(probes[i].second.reply_to, kSelf);
  }
  EXPECT_FALSE(silent.done);
}

// Calls that go silent on one group share one watch, however many of their
// transmissions go unanswered; a call's end leaves the watch to the others.
TEST(GroupClient, AtMostOneWatchRunsPerGroup) {
  World w;
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));
  CallProbe a, b;
  StartCall(w, a);
  w.RunFor(core::kCallTimeout / 2);
  StartCall(w, b);
  w.RunFor(2 * core::kCallTimeout);
  EXPECT_EQ(w.net.Sent<vr::ProbeMsg>().size(), 3u);
  w.RunFor(1 * sim::kSecond);
  ASSERT_TRUE(a.done);
  ASSERT_TRUE(b.done);
  EXPECT_EQ(w.net.Sent<vr::ProbeMsg>().size(), 3u);
  EXPECT_EQ(w.net.Sent<vr::CallMsg>().size(),
            static_cast<std::size_t>(2 * core::kCallAttempts));
}

// Only a view newer than the call's ends it: an answer at the floor, or
// below it, leaves the call retransmitting to its primary and the cache
// where it was.
TEST(GroupClient, WatchAnswerAtOrBelowTheFloorEndsNothing) {
  World w;
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));
  CallProbe c;
  StartCall(w, c);
  w.RunFor(core::kCallTimeout);
  const auto probes = w.net.Sent<vr::ProbeMsg>();
  ASSERT_EQ(probes.size(), 3u);
  const std::uint64_t req = probes[0].second.req_id;
  w.client.OnReply(ProbeReply(req, {5, 1}, 1));
  w.client.OnReply(ProbeReply(req, {4, 3}, 3));
  EXPECT_FALSE(c.done);
  EXPECT_EQ(w.client.Get(kGroup)->viewid, (vr::ViewId{5, 1}));
  w.RunFor(core::kCallTimeout);
  EXPECT_FALSE(c.done);
  for (const auto& [to, m] : w.net.Sent<vr::CallMsg>()) EXPECT_EQ(to, 1u);
  EXPECT_EQ(w.net.Sent<vr::CallMsg>().size(), 3u);
}

// The watch's answer of a newer view updates the cache and ends every call
// waiting on it as a wrong-view redirect naming the new view. A call whose
// first transmission is still out is not on the watch: it ends at its first
// silence, when the cache names a view other than its own. None of them is
// sent to the new primary, and a call to another group is left alone.
TEST(GroupClient, NewerViewEndsEveryWaitingCallAsARedirect) {
  World w;
  constexpr vr::GroupId kOther = 8;
  w.directory.RegisterGroup(kOther, {4, 5, 6});
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));
  w.client.Update(kOther, {2, 4}, ViewWithPrimary(4));
  CallProbe first, second, fresh;
  StartCall(w, first);
  std::optional<vr::ReplyMsg> other;
  bool other_done = false;
  w.tasks.Spawn([](World& w, std::optional<vr::ReplyMsg>& got,
                   bool& done) -> host::Task<void> {
    vr::CallMsg m;
    m.group = kOther;
    m.proc = "put";
    got = co_await w.client.Call(std::move(m));
    done = true;
  }(w, other, other_done));
  w.RunFor(core::kCallTimeout / 2);
  StartCall(w, second);
  w.RunFor(core::kCallTimeout);  // both silent once: both on the watch
  StartCall(w, fresh);
  w.RunFor(1);
  EXPECT_FALSE(first.done);
  EXPECT_FALSE(second.done);

  std::uint64_t req = 0;
  for (const auto& [to, m] : w.net.Sent<vr::ProbeMsg>()) {
    if (m.group == kGroup) req = m.req_id;
  }
  ASSERT_NE(req, 0u);
  w.client.OnReply(ProbeReply(req, {6, 2}, 2));
  ASSERT_TRUE(first.done);
  ASSERT_TRUE(second.done);
  EXPECT_FALSE(first.got.has_value());
  EXPECT_FALSE(second.got.has_value());
  EXPECT_FALSE(fresh.done);
  EXPECT_FALSE(other_done);
  ASSERT_TRUE(w.client.Get(kGroup).has_value());
  EXPECT_EQ(w.client.Get(kGroup)->viewid, (vr::ViewId{6, 2}));
  EXPECT_EQ(w.client.Get(kGroup)->view.primary, 2u);

  w.RunFor(core::kCallTimeout);
  ASSERT_TRUE(fresh.done);
  EXPECT_FALSE(fresh.got.has_value());
  w.RunFor(1 * sim::kSecond);
  for (const auto& [to, m] : w.net.Sent<vr::CallMsg>()) {
    if (m.group != kGroup) continue;
    EXPECT_EQ(to, 1u);
    EXPECT_EQ(m.viewid, (vr::ViewId{5, 1}));
  }
  EXPECT_EQ(w.client.Get(kGroup)->viewid, (vr::ViewId{6, 2}));
  // The other group's call ran its ladder to the end.
  EXPECT_TRUE(other_done);
  EXPECT_EQ(w.client.Get(kOther), std::nullopt);
}

// The server side: a cohort that is not active parks a probe, keeps only
// the latest one per requester, and answers it when it becomes active; an
// active cohort parks a probe whose floor is its own view until a newer
// view is active.
TEST(GroupClient, ParkedProbeIsAnsweredOnActivation) {
  sim::Simulation sim{1};
  RecordingTransport net;
  core::Directory directory;
  directory.RegisterGroup(kGroup, {1});
  storage::StableStore stable{sim.host(), {}};
  core::Cohort cohort{sim.host(), net, directory, stable, kGroup, 1, {1},
                      core::CohortOptions{}};
  const auto deliver = [&](vr::Mid from, const auto& m) {
    cohort.OnFrame(net::Frame{from, 1, static_cast<std::uint16_t>(m.kType),
                              vr::EncodeMsg(m)});
  };
  const auto probe = [&](std::uint64_t req_id, vr::ViewId floor) {
    vr::ProbeMsg p;
    p.group = kGroup;
    p.req_id = req_id;
    p.reply_to = kSelf;
    p.newer_than = floor;
    deliver(kSelf, p);
  };
  const auto run_until_active = [&] {
    const sim::Time deadline = sim.Now() + 2 * sim::kSecond;
    while (cohort.status() != core::Status::kActive && sim.Now() < deadline) {
      sim.scheduler().RunUntil(sim.Now() + 1 * sim::kMillisecond);
    }
    return cohort.status() == core::Status::kActive;
  };

  cohort.Start();
  probe(1, {});
  probe(2, {});  // replaces the first
  ASSERT_NE(cohort.status(), core::Status::kActive);
  EXPECT_TRUE(net.Sent<vr::ProbeReplyMsg>().empty());
  ASSERT_TRUE(run_until_active());
  auto replies = net.Sent<vr::ProbeReplyMsg>();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].first, kSelf);
  EXPECT_EQ(replies[0].second.req_id, 2u);
  EXPECT_EQ(replies[0].second.viewid, cohort.cur_viewid());
  EXPECT_EQ(replies[0].second.view.primary, 1u);

  const vr::ViewId first_view = cohort.cur_viewid();
  probe(3, first_view);  // parked: not past the floor
  probe(4, {});          // answered at once; the parked one stays
  replies = net.Sent<vr::ProbeReplyMsg>();
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[1].second.req_id, 4u);

  // A view change: the cohort accepts an invitation and, hearing nothing
  // more, forms the next view itself.
  vr::InviteMsg invite;
  invite.group = kGroup;
  invite.new_viewid = {first_view.counter + 1, 1};
  invite.from = 1;
  deliver(1, invite);
  ASSERT_NE(cohort.status(), core::Status::kActive);
  ASSERT_TRUE(run_until_active());
  ASSERT_GT(cohort.cur_viewid(), first_view);
  replies = net.Sent<vr::ProbeReplyMsg>();
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[2].second.req_id, 3u);
  EXPECT_EQ(replies[2].second.viewid, cohort.cur_viewid());
}

// One aid is asked of several groups in turn (§3.6), so a query reply is
// matched by aid and answering group: a late redirect from another group
// must neither end this request nor move this group's cache entry.
TEST(GroupClient, OutcomeRequestIgnoresAnotherGroupsReply) {
  World w;
  constexpr vr::GroupId kOther = 8;
  w.client.Update(kGroup, {5, 1}, ViewWithPrimary(1));
  const vr::Aid aid{kOther, {2, 4}, 1};
  std::optional<vr::TxnOutcome> got;
  w.tasks.Spawn([](World& w, vr::Aid aid,
                   std::optional<vr::TxnOutcome>& got) -> host::Task<void> {
    got = co_await w.client.AskOutcome(kGroup, aid, /*settle=*/false, 1);
  }(w, aid, got));
  const auto queries = w.net.Sent<vr::QueryMsg>();
  ASSERT_EQ(queries.size(), 1u);
  EXPECT_EQ(queries[0].first, 1u);

  vr::QueryReplyMsg stale;
  stale.aid = aid;
  stale.from_group = kOther;
  stale.wrong_primary = true;
  stale.view_known = true;
  stale.new_viewid = {9, 2};
  stale.new_view = ViewWithPrimary(2);
  w.client.OnReply(stale);
  EXPECT_FALSE(got.has_value());
  ASSERT_TRUE(w.client.Get(kGroup).has_value());
  EXPECT_EQ(w.client.Get(kGroup)->viewid, (vr::ViewId{5, 1}));
  EXPECT_EQ(w.client.Get(kGroup)->view.primary, 1u);

  vr::QueryReplyMsg answer;
  answer.aid = aid;
  answer.from_group = kGroup;
  answer.outcome = vr::TxnOutcome::kCommitted;
  w.client.OnReply(answer);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, vr::TxnOutcome::kCommitted);
  EXPECT_EQ(w.net.Sent<vr::QueryMsg>().size(), 1u);
}

}  // namespace
}  // namespace vsr
