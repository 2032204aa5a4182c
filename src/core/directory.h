// The location server (§3), grown into a placement service.
//
// The paper assumes "a highly-available location server that maps groupids
// to configurations" and notes it defines the limit of availability
// (footnote 2). Following that assumption we model it as an always-available
// in-process registry; cohorts then probe configuration members to discover
// the current primary and viewid, exactly as §3 describes, and cache the
// answer.
//
// Two tables live here (DESIGN.md §11):
//
//   * groupid -> configuration, with a per-entry epoch. Registration is
//     write-once: re-registering a group with a DIFFERENT configuration is a
//     logic error unless done through ReRegisterGroup, which bumps the epoch
//     so stale cached configurations become detectable instead of silently
//     wrong.
//
//   * key-range -> owning group (the shard map): a sorted list of
//     half-open lexicographic ranges [lo, hi) covering the whole key space,
//     stamped with a single placement epoch that increases on every routing
//     change. Clients (ShardRouter) cache a copy and revalidate against the
//     epoch when a call is rejected with a wrong-shard error. A range being
//     rebalanced moves through kMigrating (old owner still serves while the
//     bulk copy streams) and kHandoff (old owner rejects, new owner not yet
//     authoritative) before the final epoch bump flips ownership atomically.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "vr/types.h"

namespace vsr::core {

// Lifecycle of one shard range during a live rebalance (DESIGN.md §11.3).
enum class ShardState : std::uint8_t {
  kSettled = 0,    // one authoritative owner
  kMigrating = 1,  // bulk copy in flight; old owner still serves traffic
  kHandoff = 2,    // old owner rejects range traffic; move about to commit
};

// One half-open key range [lo, hi); hi == "" means +infinity. Keys compare
// lexicographically (workloads use fixed-width names, e.g. "a017").
struct ShardRange {
  std::string lo;
  std::string hi;
  vr::GroupId owner = 0;
  vr::GroupId moving_to = 0;  // valid while state != kSettled
  ShardState state = ShardState::kSettled;

  bool Contains(const std::string& key) const {
    return lo <= key && (hi.empty() || key < hi);
  }
  bool operator==(const ShardRange&) const = default;
};

class Directory {
 public:
  // -- group registry ------------------------------------------------------

  // Registers a group's configuration. Idempotent for an identical
  // configuration; a DIFFERENT configuration under the same groupid throws —
  // silently clobbering the entry would invalidate every cached copy with no
  // way to detect it. Use ReRegisterGroup for a deliberate change.
  void RegisterGroup(vr::GroupId group, std::vector<vr::Mid> configuration) {
    auto it = groups_.find(group);
    if (it != groups_.end()) {
      if (it->second.config != configuration) {
        throw std::logic_error(
            "Directory::RegisterGroup: group " + std::to_string(group) +
            " already registered with a different configuration; use "
            "ReRegisterGroup to replace it");
      }
      return;  // same configuration: nothing changed, epoch keeps
    }
    groups_.emplace(group, GroupEntry{std::move(configuration), 1});
  }

  // Deliberate configuration replacement: bumps the entry's epoch so cached
  // copies (keyed by epoch) know they are stale.
  std::uint64_t ReRegisterGroup(vr::GroupId group,
                                std::vector<vr::Mid> configuration) {
    auto it = groups_.find(group);
    if (it == groups_.end()) {
      groups_.emplace(group, GroupEntry{std::move(configuration), 1});
      return 1;
    }
    it->second.config = std::move(configuration);
    return ++it->second.epoch;
  }

  // nullptr if the group is unknown.
  const std::vector<vr::Mid>* Lookup(vr::GroupId group) const {
    auto it = groups_.find(group);
    if (it == groups_.end()) return nullptr;
    return &it->second.config;
  }

  // 0 if the group is unknown.
  std::uint64_t GroupEpoch(vr::GroupId group) const {
    auto it = groups_.find(group);
    return it == groups_.end() ? 0 : it->second.epoch;
  }

  std::size_t group_count() const { return groups_.size(); }

  // -- shard placement -----------------------------------------------------

  // Assigns [lo, hi) to `owner`. Ranges must be appended in key order and
  // tile the key space: the first call must start at "", each subsequent lo
  // must equal the previous hi, and only the final range may be unbounded
  // (hi == ""). Throws on a violation. Each call bumps the placement epoch.
  std::uint64_t AssignRange(std::string lo, std::string hi,
                            vr::GroupId owner) {
    if (Lookup(owner) == nullptr) {
      throw std::logic_error("AssignRange: unknown owner group " +
                             std::to_string(owner));
    }
    if (ranges_.empty()) {
      if (!lo.empty()) {
        throw std::logic_error("AssignRange: first range must start at \"\"");
      }
    } else {
      const ShardRange& last = ranges_.back();
      if (last.hi.empty() || last.hi != lo) {
        throw std::logic_error("AssignRange: ranges must tile the key space");
      }
    }
    if (!hi.empty() && hi <= lo) {
      throw std::logic_error("AssignRange: empty range");
    }
    ranges_.push_back(ShardRange{std::move(lo), std::move(hi), owner, 0,
                                 ShardState::kSettled});
    return ++placement_epoch_;
  }

  // The range owning `key`, or nullptr when no placement covers it (no
  // ranges assigned, or the table does not reach the key).
  const ShardRange* Route(const std::string& key) const {
    for (const ShardRange& r : ranges_) {
      if (r.Contains(key)) return &r;
    }
    return nullptr;
  }

  // -- live rebalance (DESIGN.md §11.3) ------------------------------------
  //
  // Phase transitions each bump the placement epoch; routing flips
  // atomically at CommitMove. [lo, hi) must lie inside a single settled
  // range for BeginMove (which splits it as needed) and match an existing
  // range exactly afterwards.

  // Marks [lo, hi) as migrating from its current owner to `to`. The owner
  // keeps serving the range while the bulk copy streams.
  std::uint64_t BeginMove(const std::string& lo, const std::string& hi,
                          vr::GroupId to) {
    if (Lookup(to) == nullptr) {
      throw std::logic_error("BeginMove: unknown target group " +
                             std::to_string(to));
    }
    const std::size_t i = SplitOut(lo, hi);
    ShardRange& r = ranges_[i];
    if (r.state != ShardState::kSettled) {
      throw std::logic_error("BeginMove: range already moving");
    }
    if (r.owner == to) throw std::logic_error("BeginMove: already owned");
    r.state = ShardState::kMigrating;
    r.moving_to = to;
    return ++placement_epoch_;
  }

  // Opens the handoff window: the old owner stops serving [lo, hi) (its
  // procs reject with a wrong-shard error naming the new epoch) so in-flight
  // transactions drain and the final delta copy can be taken.
  std::uint64_t BeginHandoff(const std::string& lo, const std::string& hi) {
    ShardRange& r = Exact(lo, hi);
    if (r.state != ShardState::kMigrating) {
      throw std::logic_error("BeginHandoff: range is not migrating");
    }
    r.state = ShardState::kHandoff;
    return ++placement_epoch_;
  }

  // Atomically flips routing: the new group owns [lo, hi) from this epoch
  // on. The old owner may then garbage-collect its copy (kShardDrop).
  std::uint64_t CommitMove(const std::string& lo, const std::string& hi) {
    ShardRange& r = Exact(lo, hi);
    if (r.state != ShardState::kHandoff) {
      throw std::logic_error("CommitMove: range is not in handoff");
    }
    r.owner = r.moving_to;
    r.moving_to = 0;
    r.state = ShardState::kSettled;
    return ++placement_epoch_;
  }

  // Aborts a move before CommitMove: routing reverts to the old owner.
  std::uint64_t CancelMove(const std::string& lo, const std::string& hi) {
    ShardRange& r = Exact(lo, hi);
    if (r.state == ShardState::kSettled) {
      throw std::logic_error("CancelMove: range is not moving");
    }
    r.moving_to = 0;
    r.state = ShardState::kSettled;
    return ++placement_epoch_;
  }

  // Monotone version of the routing table; bumped by every placement change.
  // Clients cache {epoch, ranges} and revalidate on wrong-shard rejections.
  std::uint64_t placement_epoch() const { return placement_epoch_; }
  const std::vector<ShardRange>& ranges() const { return ranges_; }

 private:
  struct GroupEntry {
    std::vector<vr::Mid> config;
    std::uint64_t epoch = 1;
  };

  ShardRange& Exact(const std::string& lo, const std::string& hi) {
    for (ShardRange& r : ranges_) {
      if (r.lo == lo && r.hi == hi) return r;
    }
    throw std::logic_error("Directory: no range [" + lo + ", " + hi + ")");
  }

  // Ensures [lo, hi) exists as its own range, splitting the settled range
  // containing it; returns its index.
  std::size_t SplitOut(const std::string& lo, const std::string& hi) {
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      ShardRange& r = ranges_[i];
      if (r.lo == lo && r.hi == hi) return i;
      const bool covers_lo = r.Contains(lo);
      const bool covers_hi =
          hi.empty() ? r.hi.empty() : (r.hi.empty() || hi <= r.hi);
      if (!covers_lo || !covers_hi) continue;
      if (r.state != ShardState::kSettled) {
        throw std::logic_error("SplitOut: enclosing range is moving");
      }
      // Split into [r.lo, lo) [lo, hi) [hi, r.hi); drop empty outer pieces.
      std::vector<ShardRange> out;
      out.reserve(ranges_.size() + 2);
      for (std::size_t j = 0; j < i; ++j) out.push_back(ranges_[j]);
      if (r.lo < lo) {
        out.push_back(ShardRange{r.lo, lo, r.owner, 0, ShardState::kSettled});
      }
      const std::size_t idx = out.size();
      out.push_back(ShardRange{lo, hi, r.owner, 0, ShardState::kSettled});
      if (!hi.empty() && (r.hi.empty() || hi < r.hi)) {
        out.push_back(ShardRange{hi, r.hi, r.owner, 0, ShardState::kSettled});
      }
      for (std::size_t j = i + 1; j < ranges_.size(); ++j) {
        out.push_back(ranges_[j]);
      }
      ranges_ = std::move(out);
      return idx;
    }
    throw std::logic_error("SplitOut: [" + lo + ", " + hi +
                           ") not inside any range");
  }

  std::map<vr::GroupId, GroupEntry> groups_;
  std::vector<ShardRange> ranges_;  // sorted by lo, tiling the key space
  std::uint64_t placement_epoch_ = 0;
};

}  // namespace vsr::core
