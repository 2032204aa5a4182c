// The view change algorithm (Fig. 5, §4).
//
// Manager:  pick viewid <max_viewid.cnt + 1, mymid>, invite everyone, collect
//           normal/crashed acceptances, form the view if the §4 conditions
//           hold, and hand off to the cohort with the largest viewstamp.
// Underling: accept invitations with higher viewids; wait for either an
//           init-view message (becoming primary) or the newview record
//           (becoming a backup); time out into managing.
#include "core/cohort.h"

namespace vsr::core {

void Cohort::ArmUnderlingTimer() {
  std::size_t rank = 0;
  for (std::size_t i = 0; i < configuration_.size(); ++i) {
    if (configuration_[i] == self_) rank = i;
  }
  host_.timers().Cancel(underling_timer_);
  underling_timer_ = host_.timers().After(
      kUnderlingTimeout + static_cast<host::Duration>(rank) * kManagerStagger,
      [this] {
        underling_timer_ = host::kNoTimer;
        if (status_ == Status::kUnderling) BecomeViewManager();
      });
}

void Cohort::BecomeViewManager() {
  if (status_ == Status::kCrashed) return;
  if (status_ == Status::kActive || view_change_began_ == 0) {
    view_change_began_ = host_.Now();
    stats_.last_view_change_started = host_.Now();
  }
  Trace("becoming view manager");
  ++stats_.view_changes_started;
  status_ = Status::kViewManager;
  buffer_.Stop();  // no longer operating as a primary
  RevokeLease();  // leaving the active state revokes read service too
  host_.timers().Cancel(underling_timer_);
  underling_timer_ = host::kNoTimer;
  MakeInvitations();
}

void Cohort::MakeInvitations() {
  // "make_invitations creates a new viewid by pairing mymid with a number
  //  greater than max_viewid.cnt and stores it in max_viewid."
  ViewId vid{max_viewid_.counter + 1, self_};
  max_viewid_ = vid;
  accepts_.clear();
  batch_stash_.clear();  // it holds records of max_viewid_ only
  // Record our own response.
  vr::Acceptance self;
  self.from = self_;
  // Log-recovered state only counts as crashed-with-state (DESIGN.md §10),
  // just like DoAccept reports to other managers: the write-behind log may
  // miss acknowledgements, so the replayed viewstamp is a lower bound.
  self.crashed = !up_to_date_ || log_recovered_;
  self.recovered = log_recovered_ && up_to_date_;
  self.last_vs = history_.Latest();
  self.was_primary =
      (!self.crashed || self.recovered) && cur_view_.primary == self_;
  self.crash_viewid =
      self.recovered ? recovered_crash_viewid_ : cur_viewid_;
  accepts_[self_] = self;

  vr::InviteMsg invite;
  invite.group = group_;
  invite.new_viewid = vid;
  invite.from = self_;
  for (Mid peer : configuration_) {
    if (peer != self_) SendMsg(peer, invite);
  }

  host_.timers().Cancel(invite_timer_);
  invite_timer_ = host_.timers().After(kInviteResponseWait, [this] {
    invite_timer_ = host::kNoTimer;
    TryFormView();
  });
}

void Cohort::DoAccept(ViewId vid, Mid inviter) {
  max_viewid_ = vid;
  vr::AcceptMsg accept;
  accept.group = group_;
  accept.invite_viewid = vid;
  accept.from = self_;
  if (up_to_date_ && log_recovered_) {
    // Crashed-with-state (DESIGN.md §10): the replayed viewstamp counts
    // toward forced-event survival (condition 4) but never as a normal
    // acceptance — the write-behind log may trail what we acknowledged.
    accept.crashed = true;
    accept.recovered = true;
    accept.last_vs = history_.Latest();
    accept.was_primary = cur_view_.primary == self_ && !history_.Empty();
    accept.crash_viewid = recovered_crash_viewid_;
  } else if (up_to_date_) {
    accept.crashed = false;
    accept.last_vs = history_.Latest();
    accept.was_primary = cur_view_.primary == self_ && !history_.Empty();
  } else {
    // "crash-accept" — state forgotten; report the stable-storage viewid.
    accept.crashed = true;
    accept.crash_viewid = cur_viewid_;
  }
  SendMsg(inviter, accept);
}

void Cohort::OnInvite(const vr::InviteMsg& m) {
  if (m.new_viewid < max_viewid_) return;  // "ignore the msg"
  if (m.new_viewid == max_viewid_) {
    // Duplicate of an invitation we already accepted: re-send the
    // acceptance (the original may have been lost).
    if (status_ == Status::kUnderling) DoAccept(m.new_viewid, m.from);
    return;
  }
  if (status_ == Status::kActive) {
    view_change_began_ = host_.Now();
    stats_.last_view_change_started = host_.Now();
  }
  Trace("accepting invitation %s from %u", m.new_viewid.ToString().c_str(),
        m.from);
  DoAccept(m.new_viewid, m.from);
  status_ = Status::kUnderling;
  batch_stash_.clear();  // an underling stashes records of max_viewid_ only
  host_.timers().Cancel(invite_timer_);
  invite_timer_ = host::kNoTimer;
  buffer_.Stop();
  // Accepting an invitation is the revocation point of DESIGN.md §14: from
  // here on this cohort might be excluded from the next view, so it must
  // stop serving lease reads immediately.
  RevokeLease();
  ClearRejoin();  // the replayed view is being superseded
  ++start_view_epoch_;  // cancel any in-flight StartView for an older viewid
  adopting_ = false;
  ArmUnderlingTimer();
}

void Cohort::OnAccept(const vr::AcceptMsg& m) {
  if (status_ != Status::kViewManager) return;
  if (m.invite_viewid != max_viewid_) return;
  vr::Acceptance& a = accepts_[m.from];
  a.from = m.from;
  a.crashed = m.crashed;
  a.recovered = m.recovered;
  a.last_vs = m.last_vs;
  a.was_primary = m.was_primary;
  a.crash_viewid = m.crash_viewid;
  // Everyone answered, or everyone still silent is a cohort the failure
  // detector reports dead and the acceptances in hand already form a view:
  // the rest of the invite wait buys nothing (DESIGN.md §16). A formation
  // that would fail keeps waiting for the timer.
  if (accepts_.size() == configuration_.size() ||
      (OnlySuspectsSilent() &&
       vr::TryFormView(Acceptances(), configuration_.size()))) {
    host_.timers().Cancel(invite_timer_);
    invite_timer_ = host::kNoTimer;
    TryFormView();
  }
}

bool Cohort::OnlySuspectsSilent() const {
  const host::Time now = host_.Now();
  for (Mid m : configuration_) {
    if (accepts_.count(m) != 0) continue;
    // Never heard from counts as alive: a just-recovered manager knows
    // nothing yet and waits out the timer.
    auto it = last_heard_.find(m);
    if (it == last_heard_.end() ||
        now - it->second <= options_.liveness_timeout) {
      return false;
    }
  }
  return true;
}

std::vector<vr::Acceptance> Cohort::Acceptances() const {
  std::vector<vr::Acceptance> responses;
  responses.reserve(accepts_.size());
  for (const auto& [mid, a] : accepts_) responses.push_back(a);
  return responses;
}

void Cohort::TryFormView() {
  if (status_ != Status::kViewManager) return;

  // The §4 formation rule lives in vr::TryFormView (pure, unit-tested);
  // here we act on its outcome.
  const std::vector<vr::Acceptance> responses = Acceptances();
  auto formed = vr::TryFormView(responses, configuration_.size());

  if (!formed) {
    // "If the attempt fails, the cohort attempts another view formation
    //  later."
    ++stats_.view_formation_failures;
    std::size_t normal_count = 0;
    for (const auto& r : responses) normal_count += r.crashed ? 0 : 1;
    Trace("view formation failed (%zu accepts, %zu normal)", accepts_.size(),
          normal_count);
    invite_timer_ = host_.timers().After(kViewFormRetry, [this] {
      invite_timer_ = host::kNoTimer;
      if (status_ == Status::kViewManager) MakeInvitations();
    });
    return;
  }

  const View v = formed->view;
  ++stats_.views_formed_as_manager;
  Trace("formed view %s %s (condition %d)", max_viewid_.ToString().c_str(),
        v.ToString().c_str(), formed->condition);

  if (v.primary == self_) {
    StartViewAsPrimary(v, max_viewid_);
  } else {
    vr::InitViewMsg init;
    init.group = group_;
    init.viewid = max_viewid_;
    init.view = v;
    init.from = self_;
    SendMsg(v.primary, init);
    status_ = Status::kUnderling;
    ArmUnderlingTimer();
  }
}

void Cohort::OnInitView(const vr::InitViewMsg& m) {
  // await_view: "If an 'init-view' message containing a viewid equal to
  // max_viewid arrives, ... the cohort initializes itself to be a primary."
  if (m.viewid != max_viewid_) return;
  if (m.view.primary != self_ || !up_to_date_) return;
  if (status_ == Status::kActive) return;  // duplicate; already started
  StartViewAsPrimary(m.view, m.viewid);
}

void Cohort::StartViewAsPrimary(View v, ViewId vid) {
  // Duplicate init-view messages (the network may duplicate, and a manager
  // may retransmit) must not start the same view twice: the history already
  // has an entry for `vid` once the first start is underway.
  if (!history_.Empty() && !(history_.Latest().view < vid)) return;
  Trace("starting view %s as primary", vid.ToString().c_str());
  host_.timers().Cancel(underling_timer_);
  host_.timers().Cancel(invite_timer_);
  underling_timer_ = invite_timer_ = host::kNoTimer;
  // Until the new view is durable and its buffer running, this cohort must
  // not process transactions: a unilateral tweak arrives here while still
  // "active" in the old view, and records must never mix buffers.
  buffer_.Stop();
  // A cross-group shard pull does not survive the view transition: the new
  // view's buffer is a different stream, so the rebalancer must re-issue.
  ResetShardPull(false);
  status_ = Status::kUnderling;
  ArmUnderlingTimer();  // safety net if the stable write never completes

  // Lazy-apply ablation (§3.3): a backup being promoted must first fold the
  // records it merely stored into its gstate.
  for (const vr::EventRecord& rec : pending_records_) ApplyToStore(rec);
  pending_records_.clear();
  batch_stash_.clear();  // stale-view records; never applicable again

  cur_view_ = v;
  cur_viewid_ = vid;
  // "it updates cur_view and cur_viewid, stores zero in timestamp and
  //  appends <cur_viewid, 0> to the history, and writes cur_viewid to
  //  stable storage."
  history_.OpenView(vid);

  const std::uint64_t epoch = ++start_view_epoch_;
  if (options_.write_viewid_durably) {
    stable_.ForceWrite("viewid/" + std::to_string(self_), wire::Encode(vid),
                       [this, epoch, v, vid] {
                         if (start_view_epoch_ != epoch) return;
                         if (status_ == Status::kCrashed) return;
                         FinishStartViewAsPrimary(v, vid);
                       },
                       self_);
  } else {
    FinishStartViewAsPrimary(v, vid);
  }
}

void Cohort::FinishStartViewAsPrimary(View v, ViewId vid) {
  buffer_.StartView(vid, v.backups, configuration_.size(), group_, self_,
                    &history_);
  // Per-object commit provenance does not cross views; ts 0 means "at or
  // before this view opened", which every later stable watermark covers.
  RevokeLease();
  ResetCommitStamps(Viewstamp{vid, 0});
  // "it initializes the buffer to contain a single 'newview' event record;
  //  this record contains cur_view, history, and gstate."
  vr::EventRecord newview =
      vr::EventRecord::NewView(v, history_, SnapshotGstate());
  buffer_.Add(std::move(newview));
  up_to_date_ = true;
  // Entering a formed view re-validates our state: it is no longer merely
  // log-replayed, and the log restarts from a checkpoint of it. The viewid
  // is already durable here, so a crash before this checkpoint lands leaves
  // crash_viewid > the replayed view — condition 4 then refuses formation
  // until someone else surfaces this view's state (conservative, safe).
  log_recovered_ = false;
  recovered_crash_viewid_ = ViewId{};
  ClearRejoin();
  LogCheckpoint(history_.Latest().ts);
  EnterActive();
}

void Cohort::AdoptNewView(const vr::EventRecord& newview, ViewId vid,
                          std::uint64_t newview_ts) {
  Trace("adopting view %s as backup", vid.ToString().c_str());
  host_.timers().Cancel(underling_timer_);
  host_.timers().Cancel(invite_timer_);
  underling_timer_ = invite_timer_ = host::kNoTimer;

  cur_view_ = newview.view;
  cur_viewid_ = vid;
  if (vid > max_viewid_) max_viewid_ = vid;
  // The newview record carries no prepared set; the history advances past
  // the record itself.
  InstallState(newview.history, newview.gstate, std::nullopt, newview_ts);
  ResetShardPull(false);  // a backup cannot be mid-pull; clear stragglers
  // The restored gstate's per-object provenance is gone: treat everything
  // as committed at the newview record and wait for a fresh lease grant.
  RevokeLease();
  ResetCommitStamps(Viewstamp{vid, newview_ts});

  // Adopting the newview record re-validates our state; the log restarts
  // from a checkpoint of it. Issued BEFORE the viewid force: completions
  // are FIFO, so whenever the durable viewid says we entered this view, the
  // checkpoint anchoring its log generation is durable too.
  log_recovered_ = false;
  recovered_crash_viewid_ = ViewId{};
  ClearRejoin();
  LogCheckpoint(newview_ts);

  const std::uint64_t epoch = ++start_view_epoch_;
  auto finish = [this, epoch] {
    if (start_view_epoch_ != epoch) return;
    if (status_ == Status::kCrashed) return;
    up_to_date_ = true;
    EnterActive();
    DrainBatchStash();
    SendBufferAck();
  };
  if (options_.write_viewid_durably) {
    stable_.ForceWrite("viewid/" + std::to_string(self_), wire::Encode(vid),
                       finish, self_);
  } else {
    finish();
  }
}

void Cohort::EnterActive() {
  SetActive();
  adopting_ = false;
  ++stats_.view_changes_completed;
  stats_.last_view_change_completed = host_.Now();
  view_change_began_ = 0;
  // NOTE: call_dedup_ deliberately survives view changes — completed-call
  // replies are replicated state (they arrive via newview gstate and
  // completed-call records), so a retransmitted call is re-answered instead
  // of re-executed. Re-execution would let the retry read the original
  // attempt's tentative versions.
  Trace("active in view %s %s", cur_viewid_.ToString().c_str(),
        cur_view_.ToString().c_str());
  if (on_view_started) on_view_started(cur_view_, cur_viewid_);
  if (IsActivePrimary() && on_became_primary) on_became_primary();
}

void Cohort::MaybeUnilateralTweak(const std::vector<Mid>& alive) {
  // §4.1: "an active primary ... can unilaterally exclude the inaccessible
  // backup from the view. Similarly, an active primary can unilaterally add
  // a backup to its view." Only legal while the result still holds a
  // majority of the configuration.
  if (alive.size() < vr::MajorityOf(configuration_.size())) {
    // The view lost its majority; a real view change (or going inactive) is
    // required.
    BecomeViewManager();
    return;
  }
  View v;
  v.primary = self_;
  for (Mid m : alive) {
    if (m != self_) v.backups.push_back(m);
  }
  if (v == cur_view_) return;
  ++stats_.unilateral_tweaks;
  Trace("unilateral view tweak: %s", v.ToString().c_str());
  ViewId vid{max_viewid_.counter + 1, self_};
  max_viewid_ = vid;
  StartViewAsPrimary(v, vid);
}

}  // namespace vsr::core
