// The cohort history (§2, Fig. 1): a sequence of viewstamps, one per view the
// cohort has participated in, with strictly increasing viewids.
//
// Invariant (the paper's key property): for each viewstamp v in the history,
// the cohort's state reflects event e from view v.id iff e's timestamp is
// <= v.ts. Because the primary streams event records in timestamp order, a
// cohort with a later viewstamp for some view knows everything a cohort with
// an earlier viewstamp for that view knows.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "vr/types.h"

namespace vsr::vr {

class History {
 public:
  History() = default;

  // Opens a new view. Requires vid greater than every viewid already present
  // (viewids are totally ordered and views are entered in order).
  void OpenView(ViewId vid) {
    entries_.push_back(Viewstamp{vid, 0});
  }

  // Advances the timestamp of the current (last) view to `ts`.
  void Advance(std::uint64_t ts) {
    entries_.back().ts = ts;
  }

  bool Empty() const { return entries_.empty(); }

  // The cohort's current viewstamp: the entry for the latest view. A fresh
  // cohort that has never joined a view reports the zero viewstamp, which is
  // smaller than any real one.
  Viewstamp Latest() const {
    if (entries_.empty()) return Viewstamp{};
    return entries_.back();
  }

  // True iff this history covers event viewstamp v — i.e. the state reflects
  // the event v names. This is the paper's `compatible` test for one entry:
  // ∃ h in history: h.id = v.id ∧ v.ts <= h.ts.
  bool Knows(const Viewstamp& v) const {
    for (const Viewstamp& h : entries_) {
      if (h.view == v.view) return v.ts <= h.ts;
    }
    return false;
  }

  std::optional<std::uint64_t> TsOfView(ViewId vid) const {
    for (const Viewstamp& h : entries_) {
      if (h.view == vid) return h.ts;
    }
    return std::nullopt;
  }

  const std::vector<Viewstamp>& entries() const { return entries_; }
  void Clear() { entries_.clear(); }

  static History FromEntries(std::vector<Viewstamp> entries) {
    History h;
    h.entries_ = std::move(entries);
    return h;
  }

  bool operator==(const History&) const = default;

  template <class Ar, class M>
  static void Fields(Ar& ar, M& m) {
    ar(m.entries_);
  }

  std::string ToString() const {
    std::string s = "[";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (i) s += " ";
      s += entries_[i].ToString();
    }
    return s + "]";
  }

 private:
  std::vector<Viewstamp> entries_;
};

// The paper's compatible(ps, g, vh) predicate (§3.2): every pset entry for
// group g must be covered by the history vh. A transaction may prepare at a
// participant only if all calls it ran at that group survived into the
// participant's current view.
inline bool Compatible(const Pset& ps, GroupId g, const History& vh) {
  for (const PsetEntry& p : ps) {
    if (p.groupid != g) continue;
    if (!vh.Knows(p.vs)) return false;
  }
  return true;
}

// The paper's vs_max(ps, g) (§3.2): the largest viewstamp among the pset
// entries for group g — the latest "completed-call" event that must be known
// to a sub-majority of backups before the participant may agree to prepare.
// Returns nullopt if the pset has no entry for g.
inline std::optional<Viewstamp> VsMax(const Pset& ps, GroupId g) {
  std::optional<Viewstamp> best;
  for (const PsetEntry& p : ps) {
    if (p.groupid != g) continue;
    if (!best || *best < p.vs) best = p.vs;
  }
  return best;
}

// Merges the entries of `from` into `into`, deduplicating. Order-preserving
// (new entries append in `from` order), but membership is tested against a
// sorted index instead of a pairwise scan — the coordinator merges a reply
// pset on every call, so large cross-group psets would otherwise make the
// hot path O(n·m).
inline void MergePset(Pset& into, const Pset& from) {
  if (from.empty()) return;
  std::set<PsetEntry> seen(into.begin(), into.end());
  for (const PsetEntry& e : from) {
    if (seen.insert(e).second) into.push_back(e);
  }
}

// Removes the entries a discarded subaction contributed (§3.6): when a call
// attempt is aborted, its completed-call events no longer gate the commit.
// Nested calls made on behalf of the attempt inherit its subaction number,
// so erasing by `sub` covers every group the attempt touched.
inline void ErasePsetSub(Pset& ps, std::uint32_t sub) {
  std::erase_if(ps, [&](const PsetEntry& e) { return e.sub == sub; });
}

// The distinct groups named by a pset — the participant set for two-phase
// commit (§3.1: "It determines who the participants are from the pset").
inline std::vector<GroupId> PsetGroups(const Pset& ps) {
  std::vector<GroupId> out;
  for (const PsetEntry& e : ps) {
    if (std::find(out.begin(), out.end(), e.groupid) == out.end()) {
      out.push_back(e.groupid);
    }
  }
  return out;
}

}  // namespace vsr::vr
