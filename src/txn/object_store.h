// The group state (`gstate`, Fig. 1): named atomic objects, each with a base
// version, a set of lockers, and tentative versions.
//
// "Each object has a base version of some type T ... A transaction modifies
//  a tentative version, which is discarded if the transaction aborts and
//  becomes the base version if it commits. Thus, in addition to its name and
//  base version, an object contains a set of lockers that identifies
//  transactions holding locks on the objects, the kinds of locks held, and
//  any tentative versions created for them."
//
// Transactions are synchronized by strict two-phase locking (§3) with read
// and write locks. Lock waits are asynchronous (the waiting procedure call
// is a suspended coroutine); a wait that exceeds its timeout fails, which
// the engine turns into a failed call — the paper-level resolution for
// deadlocks, which the paper itself leaves to the implementation.
//
// Tentative versions are keyed by SubAid so that aborting one subaction
// (a retried call attempt, §3.6) discards only that attempt's writes. Locks
// are keyed by the top-level Aid and — being strict 2PL — are held until the
// transaction commits or aborts (read locks may be released at prepare,
// Fig. 3 step 1).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "host/host.h"
#include "vr/events.h"
#include "vr/types.h"
#include "wire/buffer.h"

namespace vsr::txn {

using vr::Aid;
using vr::LockMode;
using vr::ObjectEffect;
using vr::SubAid;

class ObjectStore {
 public:
  explicit ObjectStore(host::Host& hst) : host_(hst) {}
  ObjectStore(const ObjectStore&) = delete;
  ObjectStore& operator=(const ObjectStore&) = delete;
  ~ObjectStore() { Clear(); }

  // -- Locking -----------------------------------------------------------

  // Acquires `mode` on `uid` for transaction `aid`, waiting up to `timeout`
  // behind conflicting holders. `done(granted)` runs synchronously if the
  // lock is free, else when granted or timed out. FIFO fairness with read
  // sharing; upgrades (read→write by the same transaction) wait for other
  // readers to drain.
  void Acquire(const std::string& uid, Aid aid, LockMode mode,
               host::Duration timeout, std::function<void(bool)> done);

  // Non-waiting acquisition; returns whether granted.
  bool TryAcquire(const std::string& uid, Aid aid, LockMode mode);

  bool HoldsLock(const std::string& uid, Aid aid, LockMode at_least) const;

  // -- Versions ----------------------------------------------------------

  // Value visible to `aid`: its own latest live tentative version, else the
  // base version. nullopt means the object does not exist (yet).
  std::optional<std::string> Read(const std::string& uid, Aid aid) const;

  // The committed base version, ignoring tentatives (for audits/examples).
  std::optional<std::string> ReadCommitted(const std::string& uid) const;

  // Creates/overwrites the tentative version owned by `sub`. Requires the
  // write lock (checked; returns false if not held).
  bool WriteTentative(const std::string& uid, SubAid sub, std::string value);

  // -- Transaction completion --------------------------------------------

  // Releases the read locks held by `aid` (done when the participant agrees
  // to prepare, Fig. 3).
  void ReleaseReadLocks(Aid aid);

  // Installs `aid`'s tentative versions as base and releases its locks.
  // Returns the uids whose base value actually changed (objects the
  // transaction wrote, not merely read) — the cohort stamps these with the
  // committing record's viewstamp for backup-read admission (DESIGN.md §14).
  std::vector<std::string> Commit(Aid aid);

  // Discards `aid`'s tentative versions and releases its locks.
  void Abort(Aid aid);

  // Discards only subaction `sub`'s tentative versions (§3.6). Locks stay
  // with the transaction (strict 2PL never requires early release).
  void AbortSub(SubAid sub);

  // Discards every tentative version of `aid` whose subaction number is not
  // in `live_subs`. Run by a participant when it prepares: the pset names
  // exactly the call attempts that are part of the committing transaction,
  // so versions from aborted attempts (whose abort-sub message may have been
  // lost) must not be installed at commit.
  void DiscardSubsExcept(Aid aid, const std::set<std::uint32_t>& live_subs);

  // True iff `aid` holds at least one write lock here — i.e. this
  // participant is not read-only for the transaction (Fig. 2/3).
  bool HasWriteLocks(Aid aid) const;

  // -- Backup-side application -------------------------------------------

  // Re-applies the effects of a completed call exactly as the primary
  // recorded them: grants locks unconditionally (the primary already
  // serialized them) and installs tentative versions.
  void ApplyEffects(SubAid sub, const std::vector<ObjectEffect>& effects);

  // -- Snapshot (the gstate payload of a newview record, §4) ---------------

  void Snapshot(wire::Writer& w) const;
  void Restore(wire::Reader& r);

  // -- Shard range operations (DESIGN.md §11) ------------------------------
  //
  // A shard image covers only the COMMITTED base versions of a key range
  // [lo, hi) (hi == "" means +infinity). Locks, waiters, and tentative
  // versions never move between groups: the rebalance handoff drains them at
  // the old owner instead (RangeQuiescent is the drain test).

  // Writes the committed base versions in [lo, hi): U32 count, then per
  // object its uid and value.
  void SnapshotRange(wire::Writer& w, const std::string& lo,
                     const std::string& hi) const;

  // Installs a shard image produced by SnapshotRange, overwriting base
  // versions. Idempotent: re-installing the same image is a no-op, and a
  // later image of the same range simply rewrites the bases.
  void InstallRange(wire::Reader& r);

  // Erases every object in [lo, hi) that carries no locks, tentatives, or
  // waiters; returns how many were dropped.
  std::size_t DropRange(const std::string& lo, const std::string& hi);

  // True iff no object in [lo, hi) has lock holders, tentative versions, or
  // queued waiters — i.e. no in-flight transaction still touches the range.
  bool RangeQuiescent(const std::string& lo, const std::string& hi) const;

  // -- Introspection -----------------------------------------------------

  std::size_t object_count() const { return objects_.size(); }
  std::size_t lock_count() const;
  std::size_t tentative_count() const;
  std::size_t waiter_count() const;
  std::vector<std::string> ObjectIds() const;

  // Objects on which `aid` holds any lock.
  std::vector<std::string> TouchedBy(Aid aid) const;

  // Transactions currently holding locks here (the janitor's scan set).
  std::vector<Aid> ActiveTxns() const;

  // Fails all waiters and clears all state (crash).
  void Clear();

  struct Stats {
    std::uint64_t acquisitions = 0;
    std::uint64_t waits = 0;
    std::uint64_t wait_timeouts = 0;
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  // An object travels in Snapshot by these field walks.
  struct TentativeVersion {
    SubAid owner;
    std::string value;

    template <class Ar, class M>
    static void Fields(Ar& ar, M& m) {
      ar(m.owner, m.value);
    }
  };
  struct LockHolder {
    Aid aid;
    LockMode mode;

    template <class Ar, class M>
    static void Fields(Ar& ar, M& m) {
      ar(m.aid);
      ar.Enum(m.mode, LockMode::kWrite);
    }
  };
  struct Object {
    std::optional<std::string> base;
    std::vector<LockHolder> holders;
    std::vector<TentativeVersion> tentatives;  // in creation order

    template <class Ar, class M>
    static void Fields(Ar& ar, M& m) {
      ar(m.base, m.holders, m.tentatives);
    }
  };
  struct Waiter {
    std::uint64_t id;
    Aid aid;
    LockMode mode;
    std::function<void(bool)> done;
    host::TimerId timer;
  };

  bool LockCompatible(const Object& obj, Aid aid, LockMode mode) const;
  void GrantLock(Object& obj, Aid aid, LockMode mode);
  void ReleaseAllLocks(const std::string& uid, Object& obj, Aid aid);
  void PumpWaiters(const std::string& uid);
  void ForgetTouched(Aid aid, const std::string& uid);

  host::Host& host_;
  std::map<std::string, Object> objects_;
  std::map<std::string, std::deque<Waiter>> waiters_;
  std::map<Aid, std::set<std::string>> touched_;
  std::uint64_t next_waiter_id_ = 1;
  Stats stats_;
};

}  // namespace vsr::txn
