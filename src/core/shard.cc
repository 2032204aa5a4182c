// Shard rebalancing (DESIGN.md §11): the cross-group bulk-move primitive.
//
// A shard image travels like a §9 state image: one checksummed
// SnapshotChunkMsg from the serving primary, with the receiver in ANOTHER
// group. The pulling primary sends a kShardPull to the range's current
// owner; the owner serializes the committed base versions of [lo, hi) and
// sends them as one image frame (stamped with the SOURCE group's id, which
// is how the puller tells it from its own group's images).
// The source keeps nothing per pull: a lost image, or one whose puller
// crashed, is re-requested only by the puller's kShardPullRetry. The image
// is replicated inside the pulling group as a kShardInstall event record
// and forced to a sub-majority before the pull reports success, so the new
// owner's whole cohort — including any future primary — has the range
// before routing flips.
//
// Locks, waiters, and tentative versions never cross groups: the rebalance
// protocol drains them at the old owner (the handoff window) and takes a
// final delta pull, so an image only ever carries committed bases.
#include "core/cohort.h"

namespace vsr::core {
namespace {

// The head of a shard image: the range it covers (the image frame's group
// names the group it was pulled from). The range's committed bases follow
// it (ObjectStore::SnapshotRange).
struct ShardImageHeader {
  std::string lo;
  std::string hi;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.lo, m.hi);
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
  w(ShardImageHeader{m.lo, m.hi});
  store_.SnapshotRange(w, m.lo, m.hi);
  ++stats_.shard_pulls_served;
  snap_server_.Serve(m.from, group_, self_,
                     Viewstamp{cur_viewid_, buffer_.last_ts()}, w.Take());
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
  // The only retry: if the pull has not completed by then (the source
  // primary crashed or stood down, or the request or the image was lost),
  // re-resolve and re-send. A completed pull resets shard_pull_, which voids
  // the timer via id.
  shard_pull_->retry_timer = host_.timers().After(kShardPullRetry, [this, id] {
    if (!shard_pull_ || shard_pull_->id != id) return;
    shard_pull_->retry_timer = host::kNoTimer;
    group_client_.Invalidate(shard_pull_->from_group);
    tasks_.Spawn(SendShardPull());
  });
}

void Cohort::OnShardChunk(const vr::SnapshotChunkMsg& m) {
  if (!shard_pull_ || m.group != shard_pull_->from_group ||
      !IsActivePrimary() || !vr::WholeImage(m)) {
    return;
  }
  SendMsg(m.from, vr::InstallAck(m, self_));
  // A duplicated frame, or the image of a retry, while one is installing.
  if (shard_pull_->installing) return;
  shard_pull_->installing = true;
  tasks_.Spawn(FinishShardInstall(shard_pull_->id, m.data));
}

host::Task<void> Cohort::FinishShardInstall(std::uint64_t pull_id,
                                           std::vector<std::uint8_t> payload) {
  if (!shard_pull_ || shard_pull_->id != pull_id || !IsActivePrimary()) {
    co_return;
  }
  // The image must answer exactly the pull we issued (OnShardChunk matched
  // its source group).
  {
    wire::Reader r(payload);
    const auto head = r.Read<ShardImageHeader>();
    if (!r.ok() || head.lo != shard_pull_->lo || head.hi != shard_pull_->hi) {
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
