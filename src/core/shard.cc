// Shard rebalancing (DESIGN.md §11): the cross-group bulk-move primitive.
//
// The §9 snapshot machinery already solves chunked, resumable, checksummed
// state transfer between a serving primary and a receiver; a shard move
// reuses it verbatim with the receiver in ANOTHER group. The pulling
// primary sends a kShardPull to the range's current owner; the owner
// serializes the committed base versions of [lo, hi) and streams them as
// ordinary SnapshotChunkMsgs (stamped with the SOURCE group's id and
// viewid, which is how the puller tells them from its own intra-group
// transfers). The assembled image is replicated inside the pulling group as
// a kShardInstall event record and forced to a sub-majority before the pull
// reports success, so the new owner's whole cohort — including any future
// primary — has the range before routing flips.
//
// Locks, waiters, and tentative versions never cross groups: the rebalance
// protocol drains them at the old owner (the handoff window) and takes a
// final delta pull, so an image only ever carries committed bases.
#include "core/cohort.h"

namespace vsr::core {
namespace {

// The head of a shard image: the range it covers and the group it was pulled
// from. The range's committed bases follow it (ObjectStore::SnapshotRange).
struct ShardImageHeader {
  std::string lo;
  std::string hi;
  GroupId source = 0;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.lo, m.hi, m.source);
  }
};

}  // namespace

GroupId ProcContext::group() const { return cohort_.group(); }

// ---------------------------------------------------------------------------
// Source side
// ---------------------------------------------------------------------------

void Cohort::OnShardPull(const vr::ShardPullMsg& m) {
  if (!IsActivePrimary() || !buffer_.active()) return;
  wire::Writer w;
  w(ShardImageHeader{m.lo, m.hi, group_});
  store_.SnapshotRange(w, m.lo, m.hi);
  ++stats_.shard_pulls_served;
  // Identified by our newest buffered viewstamp: a later re-pull of the
  // same range (the settle pass) carries a newer vs and replaces any
  // transfer still in flight to the same puller.
  const Viewstamp vs{cur_viewid_, buffer_.last_ts()};
  snap_server_.Serve(m.from, vs,
                     std::make_shared<const std::vector<std::uint8_t>>(
                         w.Take()));
  Trace("serving shard [%s, %s) to g%llu/%u", m.lo.c_str(), m.hi.c_str(),
        static_cast<unsigned long long>(m.from_group), m.from);
}

// ---------------------------------------------------------------------------
// Puller side
// ---------------------------------------------------------------------------

void Cohort::PullShard(GroupId from_group, std::string lo, std::string hi,
                       std::function<void(bool)> done) {
  if (!IsActivePrimary()) {
    if (done) done(false);
    return;
  }
  ResetShardPull(false);  // supersede any previous pull
  shard_pull_ = std::make_unique<ShardPull>();
  shard_pull_->id = next_shard_pull_id_++;
  shard_pull_->from_group = from_group;
  shard_pull_->lo = std::move(lo);
  shard_pull_->hi = std::move(hi);
  shard_pull_->done = std::move(done);
  tasks_.Spawn(SendShardPull());
}

host::Task<void> Cohort::SendShardPull() {
  if (!shard_pull_) co_return;
  const std::uint64_t id = shard_pull_->id;
  // Resolve the source group's current primary (probing if the cache is
  // cold/stale) — the pull must reach a primary to be served.
  auto entry = co_await group_client_.Lookup(shard_pull_->from_group);
  if (!shard_pull_ || shard_pull_->id != id) co_return;
  if (!IsActivePrimary()) {
    ResetShardPull(false);
    co_return;
  }
  if (entry) {
    vr::ShardPullMsg m;
    m.group = shard_pull_->from_group;
    m.from = self_;
    m.from_group = group_;
    m.lo = shard_pull_->lo;
    m.hi = shard_pull_->hi;
    SendMsg(entry->view.primary, m);
  }
  // Retry net: if the transfer has not completed by then (source primary
  // crashed, stood down, or the request was lost), re-resolve and re-send.
  // A completed transfer resets shard_pull_, which voids the timer via id.
  shard_pull_->retry_timer = host_.timers().After(kShardPullRetry, [this, id] {
    if (!shard_pull_ || shard_pull_->id != id) return;
    shard_pull_->retry_timer = host::kNoTimer;
    group_client_.Invalidate(shard_pull_->from_group);
    shard_pull_->sink.Reset();
    tasks_.Spawn(SendShardPull());
  });
}

void Cohort::OnShardChunk(const vr::SnapshotChunkMsg& m) {
  if (!shard_pull_ || m.group != shard_pull_->from_group ||
      !IsActivePrimary()) {
    return;
  }
  if (!shard_pull_->sink.OnChunk(m)) return;  // stray/stale chunk: no ack
  // Ack with the chunk's group/viewid so the SOURCE's SnapshotServer (which
  // validates both) accepts it.
  vr::SnapshotAckMsg ack;
  ack.group = m.group;
  ack.viewid = m.viewid;
  ack.from = self_;
  ack.vs = shard_pull_->sink.vs();
  ack.offset = shard_pull_->sink.offset();
  SendMsg(m.from, ack);
  if (shard_pull_->sink.complete()) {
    std::vector<std::uint8_t> payload = shard_pull_->sink.payload();
    shard_pull_->sink.Reset();
    tasks_.Spawn(FinishShardInstall(shard_pull_->id, std::move(payload)));
  }
}

host::Task<void> Cohort::FinishShardInstall(std::uint64_t pull_id,
                                           std::vector<std::uint8_t> payload) {
  if (!shard_pull_ || shard_pull_->id != pull_id || !IsActivePrimary()) {
    co_return;
  }
  // The image must answer exactly the pull we issued.
  {
    wire::Reader r(payload);
    const auto head = r.Read<ShardImageHeader>();
    if (!r.ok() || head.lo != shard_pull_->lo || head.hi != shard_pull_->hi ||
        head.source != shard_pull_->from_group) {
      ResetShardPull(false);
      co_return;
    }
  }
  Trace("installing shard [%s, %s) from g%llu (%zu bytes)",
        shard_pull_->lo.c_str(), shard_pull_->hi.c_str(),
        static_cast<unsigned long long>(shard_pull_->from_group),
        payload.size());
  vr::EventRecord rec = vr::EventRecord::ShardInstall(std::move(payload));
  // Primary applies its own record at add time, like call effects; backups
  // see it through the ordinary record stream (ApplyRecord).
  ApplyShardRecord(rec);
  const Viewstamp vs = AddRecord(std::move(rec));
  const bool ok = co_await Force(vs);
  if (!shard_pull_ || shard_pull_->id != pull_id) co_return;
  ResetShardPull(ok);
}

void Cohort::ResetShardPull(bool ok) {
  if (!shard_pull_) return;
  host_.timers().Cancel(shard_pull_->retry_timer);
  auto done = std::move(shard_pull_->done);
  shard_pull_.reset();
  if (done) done(ok);
}

// ---------------------------------------------------------------------------
// Record application & drop
// ---------------------------------------------------------------------------

void Cohort::ApplyShardRecord(const vr::EventRecord& rec) {
  wire::Reader r(rec.gstate);
  if (rec.type == vr::EventType::kShardInstall) {
    (void)r.Read<ShardImageHeader>();  // checked before it was replicated
    if (!r.ok()) return;
    store_.InstallRange(r);
    ++stats_.shard_images_installed;
  } else {
    std::string lo;
    std::string hi;
    r(lo, hi);
    if (!r.ok()) return;
    store_.DropRange(lo, hi);
    ++stats_.shard_ranges_dropped;
  }
}

void Cohort::DropShard(std::string lo, std::string hi) {
  if (!IsActivePrimary() || !buffer_.active()) return;
  wire::Writer w;
  w(lo, hi);
  vr::EventRecord rec = vr::EventRecord::ShardDrop(w.Take());
  // Garbage collection: applied here and replicated lazily (no force —
  // losing a drop record to a view change merely delays the GC until the
  // rebalancer, or a later move, drops the range again).
  ApplyShardRecord(rec);
  AddRecord(std::move(rec));
}

}  // namespace vsr::core
