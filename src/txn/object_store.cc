#include "txn/object_store.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace vsr::txn {

bool ObjectStore::LockCompatible(const Object& obj, Aid aid,
                                 LockMode mode) const {
  for (const LockHolder& h : obj.holders) {
    if (h.aid == aid) continue;  // own locks never conflict
    if (mode == LockMode::kWrite || h.mode == LockMode::kWrite) return false;
  }
  return true;
}

void ObjectStore::GrantLock(Object& obj, Aid aid, LockMode mode) {
  for (LockHolder& h : obj.holders) {
    if (h.aid == aid) {
      // Upgrade read → write; never downgrade.
      if (mode == LockMode::kWrite) h.mode = LockMode::kWrite;
      return;
    }
  }
  obj.holders.push_back(LockHolder{aid, mode});
}

bool ObjectStore::TryAcquire(const std::string& uid, Aid aid, LockMode mode) {
  Object& obj = objects_[uid];
  if (!LockCompatible(obj, aid, mode)) return false;
  GrantLock(obj, aid, mode);
  touched_[aid].insert(uid);
  ++stats_.acquisitions;
  return true;
}

void ObjectStore::Acquire(const std::string& uid, Aid aid, LockMode mode,
                          host::Duration timeout,
                          std::function<void(bool)> done) {
  if (TryAcquire(uid, aid, mode)) {
    done(true);
    return;
  }
  ++stats_.waits;
  const std::uint64_t id = next_waiter_id_++;
  host::TimerId timer = host_.timers().After(timeout, [this, uid, id] {
    auto qit = waiters_.find(uid);
    if (qit == waiters_.end()) return;
    auto& q = qit->second;
    auto wit = std::find_if(q.begin(), q.end(),
                            [&](const Waiter& w) { return w.id == id; });
    if (wit == q.end()) return;
    auto cb = std::move(wit->done);
    q.erase(wit);
    if (q.empty()) waiters_.erase(qit);
    ++stats_.wait_timeouts;
    cb(false);
  });
  waiters_[uid].push_back(Waiter{id, aid, mode, std::move(done), timer});
}

bool ObjectStore::HoldsLock(const std::string& uid, Aid aid,
                            LockMode at_least) const {
  auto it = objects_.find(uid);
  if (it == objects_.end()) return false;
  for (const LockHolder& h : it->second.holders) {
    if (h.aid != aid) continue;
    return at_least == LockMode::kRead || h.mode == LockMode::kWrite;
  }
  return false;
}

std::optional<std::string> ObjectStore::Read(const std::string& uid,
                                             Aid aid) const {
  auto it = objects_.find(uid);
  if (it == objects_.end()) return std::nullopt;
  const Object& obj = it->second;
  // Latest tentative version created by this transaction, if any.
  for (auto rit = obj.tentatives.rbegin(); rit != obj.tentatives.rend();
       ++rit) {
    if (rit->owner.aid == aid) return rit->value;
  }
  return obj.base;
}

std::optional<std::string> ObjectStore::ReadCommitted(
    const std::string& uid) const {
  auto it = objects_.find(uid);
  if (it == objects_.end()) return std::nullopt;
  return it->second.base;
}

bool ObjectStore::WriteTentative(const std::string& uid, SubAid sub,
                                 std::string value) {
  if (!HoldsLock(uid, sub.aid, LockMode::kWrite)) return false;
  Object& obj = objects_[uid];
  // One tentative version per subaction: overwrite in place.
  for (auto rit = obj.tentatives.rbegin(); rit != obj.tentatives.rend();
       ++rit) {
    if (rit->owner == sub) {
      rit->value = std::move(value);
      return true;
    }
  }
  obj.tentatives.push_back(TentativeVersion{sub, std::move(value)});
  return true;
}

void ObjectStore::ReleaseAllLocks(const std::string& uid, Object& obj,
                                  Aid aid) {
  std::erase_if(obj.holders, [&](const LockHolder& h) { return h.aid == aid; });
  (void)uid;
}

void ObjectStore::ReleaseReadLocks(Aid aid) {
  auto it = touched_.find(aid);
  if (it == touched_.end()) return;
  std::vector<std::string> released;
  for (const std::string& uid : it->second) {
    auto oit = objects_.find(uid);
    if (oit == objects_.end()) continue;
    const std::size_t before = oit->second.holders.size();
    std::erase_if(oit->second.holders, [&](const LockHolder& h) {
      return h.aid == aid && h.mode == LockMode::kRead;
    });
    if (oit->second.holders.size() != before) released.push_back(uid);
  }
  for (const std::string& uid : released) {
    it->second.erase(uid);
    PumpWaiters(uid);
  }
  if (it->second.empty()) touched_.erase(it);
}

std::vector<std::string> ObjectStore::Commit(Aid aid) {
  std::vector<std::string> installed;
  auto it = touched_.find(aid);
  ++stats_.commits;
  if (it == touched_.end()) return installed;
  std::set<std::string> uids = std::move(it->second);
  touched_.erase(it);
  for (const std::string& uid : uids) {
    auto oit = objects_.find(uid);
    if (oit == objects_.end()) continue;
    Object& obj = oit->second;
    // Install the latest tentative version of this transaction, if any.
    for (auto rit = obj.tentatives.rbegin(); rit != obj.tentatives.rend();
         ++rit) {
      if (rit->owner.aid == aid) {
        obj.base = rit->value;
        installed.push_back(uid);
        break;
      }
    }
    std::erase_if(obj.tentatives, [&](const TentativeVersion& t) {
      return t.owner.aid == aid;
    });
    ReleaseAllLocks(uid, obj, aid);
    PumpWaiters(uid);
  }
  return installed;
}

void ObjectStore::Abort(Aid aid) {
  ++stats_.aborts;
  // Fail any queued lock waits of this transaction first — even a
  // transaction holding no locks yet can be waiting for its first one.
  std::vector<std::function<void(bool)>> failed;
  for (auto& [wuid, q] : waiters_) {
    std::erase_if(q, [&](Waiter& w) {
      if (w.aid != aid) return false;
      host_.timers().Cancel(w.timer);
      failed.push_back(std::move(w.done));
      return true;
    });
  }
  std::erase_if(waiters_, [](const auto& kv) { return kv.second.empty(); });
  for (auto& cb : failed) cb(false);

  auto it = touched_.find(aid);
  if (it == touched_.end()) return;
  std::set<std::string> uids = std::move(it->second);
  touched_.erase(it);
  for (const std::string& uid : uids) {
    auto oit = objects_.find(uid);
    if (oit == objects_.end()) continue;
    Object& obj = oit->second;
    std::erase_if(obj.tentatives, [&](const TentativeVersion& t) {
      return t.owner.aid == aid;
    });
    ReleaseAllLocks(uid, obj, aid);
    PumpWaiters(uid);
  }
}

void ObjectStore::AbortSub(SubAid sub) {
  auto it = touched_.find(sub.aid);
  if (it == touched_.end()) return;
  for (const std::string& uid : it->second) {
    auto oit = objects_.find(uid);
    if (oit == objects_.end()) continue;
    std::erase_if(oit->second.tentatives,
                  [&](const TentativeVersion& t) { return t.owner == sub; });
  }
}

void ObjectStore::DiscardSubsExcept(Aid aid,
                                    const std::set<std::uint32_t>& live_subs) {
  auto it = touched_.find(aid);
  if (it == touched_.end()) return;
  for (const std::string& uid : it->second) {
    auto oit = objects_.find(uid);
    if (oit == objects_.end()) continue;
    std::erase_if(oit->second.tentatives, [&](const TentativeVersion& t) {
      return t.owner.aid == aid && live_subs.count(t.owner.sub) == 0;
    });
  }
}

bool ObjectStore::HasWriteLocks(Aid aid) const {
  auto it = touched_.find(aid);
  if (it == touched_.end()) return false;
  for (const std::string& uid : it->second) {
    auto oit = objects_.find(uid);
    if (oit == objects_.end()) continue;
    for (const LockHolder& h : oit->second.holders) {
      if (h.aid == aid && h.mode == LockMode::kWrite) return true;
    }
  }
  return false;
}

void ObjectStore::ApplyEffects(SubAid sub,
                               const std::vector<ObjectEffect>& effects) {
  for (const ObjectEffect& e : effects) {
    Object& obj = objects_[e.uid];
    GrantLock(obj, sub.aid, e.mode);
    touched_[sub.aid].insert(e.uid);
    if (e.tentative) {
      bool replaced = false;
      for (auto rit = obj.tentatives.rbegin(); rit != obj.tentatives.rend();
           ++rit) {
        if (rit->owner == sub) {
          rit->value = *e.tentative;
          replaced = true;
          break;
        }
      }
      if (!replaced) obj.tentatives.push_back(TentativeVersion{sub, *e.tentative});
    }
  }
}

void ObjectStore::PumpWaiters(const std::string& uid) {
  auto qit = waiters_.find(uid);
  if (qit == waiters_.end()) return;
  std::vector<std::function<void(bool)>> granted;
  auto& q = qit->second;
  while (!q.empty()) {
    Waiter& w = q.front();
    Object& obj = objects_[uid];
    if (!LockCompatible(obj, w.aid, w.mode)) break;  // FIFO: head blocks rest
    GrantLock(obj, w.aid, w.mode);
    touched_[w.aid].insert(uid);
    ++stats_.acquisitions;
    host_.timers().Cancel(w.timer);
    granted.push_back(std::move(w.done));
    q.pop_front();
  }
  if (q.empty()) waiters_.erase(qit);
  for (auto& cb : granted) cb(true);
}

std::size_t ObjectStore::lock_count() const {
  std::size_t n = 0;
  for (const auto& [uid, obj] : objects_) n += obj.holders.size();
  return n;
}

std::size_t ObjectStore::tentative_count() const {
  std::size_t n = 0;
  for (const auto& [uid, obj] : objects_) n += obj.tentatives.size();
  return n;
}

std::size_t ObjectStore::waiter_count() const {
  std::size_t n = 0;
  for (const auto& [uid, q] : waiters_) n += q.size();
  return n;
}

std::vector<std::string> ObjectStore::ObjectIds() const {
  std::vector<std::string> out;
  out.reserve(objects_.size());
  for (const auto& [uid, obj] : objects_) out.push_back(uid);
  return out;
}

std::vector<std::string> ObjectStore::TouchedBy(Aid aid) const {
  auto it = touched_.find(aid);
  if (it == touched_.end()) return {};
  return {it->second.begin(), it->second.end()};
}

std::vector<Aid> ObjectStore::ActiveTxns() const {
  std::vector<Aid> out;
  out.reserve(touched_.size());
  for (const auto& [aid, uids] : touched_) out.push_back(aid);
  return out;
}

void ObjectStore::Clear() {
  for (auto& [uid, q] : waiters_) {
    for (Waiter& w : q) host_.timers().Cancel(w.timer);
  }
  waiters_.clear();
  objects_.clear();
  touched_.clear();
}

void ObjectStore::Snapshot(wire::Writer& w) const {
  w.U32(static_cast<std::uint32_t>(objects_.size()));
  for (const auto& [uid, obj] : objects_) w(uid, obj);
}

void ObjectStore::Restore(wire::Reader& r) {
  Clear();
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string uid;
    Object obj;
    r(uid, obj);
    for (const LockHolder& h : obj.holders) touched_[h.aid].insert(uid);
    objects_[std::move(uid)] = std::move(obj);
  }
}

namespace {
bool InRange(const std::string& uid, const std::string& lo,
             const std::string& hi) {
  return lo <= uid && (hi.empty() || uid < hi);
}
}  // namespace

void ObjectStore::SnapshotRange(wire::Writer& w, const std::string& lo,
                                const std::string& hi) const {
  std::uint32_t count = 0;
  auto end = hi.empty() ? objects_.end() : objects_.lower_bound(hi);
  for (auto it = objects_.lower_bound(lo); it != end; ++it) {
    if (it->second.base) ++count;
  }
  w.U32(count);
  for (auto it = objects_.lower_bound(lo); it != end; ++it) {
    if (!it->second.base) continue;
    w.String(it->first);
    w.String(*it->second.base);
  }
}

void ObjectStore::InstallRange(wire::Reader& r) {
  const std::uint32_t n = r.U32();
  for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
    std::string uid = r.String();
    std::string value = r.String();
    if (!r.ok()) return;
    objects_[std::move(uid)].base = std::move(value);
  }
}

std::size_t ObjectStore::DropRange(const std::string& lo,
                                   const std::string& hi) {
  std::size_t dropped = 0;
  auto it = objects_.lower_bound(lo);
  while (it != objects_.end() && InRange(it->first, lo, hi)) {
    const Object& obj = it->second;
    if (obj.holders.empty() && obj.tentatives.empty() &&
        waiters_.find(it->first) == waiters_.end()) {
      it = objects_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

bool ObjectStore::RangeQuiescent(const std::string& lo,
                                 const std::string& hi) const {
  auto end = hi.empty() ? objects_.end() : objects_.lower_bound(hi);
  for (auto it = objects_.lower_bound(lo); it != end; ++it) {
    if (!it->second.holders.empty() || !it->second.tentatives.empty()) {
      return false;
    }
  }
  auto wend = hi.empty() ? waiters_.end() : waiters_.lower_bound(hi);
  for (auto it = waiters_.lower_bound(lo); it != wend; ++it) {
    if (!it->second.empty()) return false;
  }
  return true;
}

}  // namespace vsr::txn
