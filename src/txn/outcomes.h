// Transaction outcome bookkeeping, backing §3.4's query processing.
//
// Every cohort — primary or backup — records the outcomes it learns from
// event records, so that "any cohort [can] respond to a query whenever it
// knows the answer". The table travels in the gstate snapshot of a newview
// record so the knowledge survives view changes.
//
// A coordinator numbers its transactions 1, 2, 3, ... within each view
// (Aid::seq), and nearly all of them commit, so the table stores maximal
// runs: per coordinator (group, view), consecutive seqs with one outcome
// are one entry. It costs one run per coordinator view, plus a run for each
// stretch after a gap (a seq this group never heard of, or one forgotten
// by its done record) and two for each aborted seq inside a committed
// stretch. Participants still never forget (DESIGN.md §15).
#pragma once

#include <cstdint>
#include <iterator>
#include <map>
#include <utility>

#include "vr/messages.h"
#include "vr/types.h"
#include "wire/buffer.h"

namespace vsr::txn {

class OutcomeTable {
 public:
  void RecordCommitted(vr::Aid aid) { Set(aid, vr::TxnOutcome::kCommitted); }
  void RecordAborted(vr::Aid aid) {
    // A commit decision is final; a late/duplicate abort must not overwrite.
    if (Lookup(aid) == vr::TxnOutcome::kUnknown) {
      Set(aid, vr::TxnOutcome::kAborted);
    }
  }

  // §3.1: the "done" record marks that every participant acknowledged the
  // commit; nobody will ever query this transaction again, so its outcome
  // entry can be garbage-collected. It splits the run that held it.
  void RecordDone(vr::Aid aid) {
    auto coord = coords_.find(Coordinator(aid));
    if (coord == coords_.end()) return;
    Runs& runs = coord->second;
    auto it = Containing(runs, aid.seq);
    if (it == runs.end()) return;
    Cut(runs, it, aid.seq);
    if (runs.empty()) coords_.erase(coord);
  }

  vr::TxnOutcome Lookup(vr::Aid aid) const {
    auto coord = coords_.find(Coordinator(aid));
    if (coord == coords_.end()) return vr::TxnOutcome::kUnknown;
    auto it = Containing(coord->second, aid.seq);
    if (it == coord->second.end()) return vr::TxnOutcome::kUnknown;
    return it->second.outcome;
  }

  std::size_t run_count() const {
    std::size_t n = 0;
    for (const auto& [coord, runs] : coords_) n += runs.size();
    return n;
  }
  void Clear() { coords_.clear(); }

  // One row per run, in Aid order: the run's first aid, its last seq and
  // its outcome.
  void Snapshot(wire::Writer& w) const {
    w.U32(static_cast<std::uint32_t>(run_count()));
    for (const auto& [coord, runs] : coords_) {
      for (const auto& [first, run] : runs) {
        w(Row{{coord.first, coord.second, first}, run.last, run.outcome});
      }
    }
  }
  void Restore(wire::Reader& r) {
    coords_.clear();
    const std::uint32_t n = r.U32();
    for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
      const Row row = r.Read<Row>();
      if (!r.ok()) break;
      coords_[Coordinator(row.first)].emplace(row.first.seq,
                                              Run{row.last, row.outcome});
    }
  }

 private:
  struct Run {
    std::uint64_t last = 0;
    vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  };
  // First seq of each run -> the run; runs never overlap.
  using Runs = std::map<std::uint64_t, Run>;
  using CoordinatorKey = std::pair<vr::GroupId, vr::ViewId>;

  struct Row {
    vr::Aid first;
    std::uint64_t last = 0;
    vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;

    template <class Ar, class M>
    static void Fields(Ar& ar, M& m) {
      ar(m.first, m.last);
      ar.Enum(m.outcome, vr::TxnOutcome::kAborted);
    }
    bool Valid() const { return last >= first.seq; }
  };

  static CoordinatorKey Coordinator(const vr::Aid& aid) {
    return {aid.coordinator_group, aid.view};
  }

  template <class M>
  static auto Containing(M& runs, std::uint64_t seq) -> decltype(runs.end()) {
    auto it = runs.upper_bound(seq);
    if (it == runs.begin()) return runs.end();
    --it;
    return it->second.last >= seq ? it : runs.end();
  }

  // Removes `seq` from the run `it` that holds it, leaving the parts on
  // either side.
  static void Cut(Runs& runs, Runs::iterator it, std::uint64_t seq) {
    const Run run = it->second;
    if (it->first < seq) {
      it->second.last = seq - 1;
    } else {
      runs.erase(it);
    }
    if (seq < run.last) runs.emplace(seq + 1, run);
  }

  // Gives `aid` the outcome `o`, merging it into an adjacent run with the
  // same outcome so that runs stay maximal.
  void Set(vr::Aid aid, vr::TxnOutcome o) {
    Runs& runs = coords_[Coordinator(aid)];
    const std::uint64_t seq = aid.seq;
    if (auto it = Containing(runs, seq); it != runs.end()) {
      if (it->second.outcome == o) return;
      Cut(runs, it, seq);
    }
    std::uint64_t last = seq;
    auto next = runs.upper_bound(seq);
    if (next != runs.end() && next->first == seq + 1 &&
        next->second.outcome == o) {
      last = next->second.last;
      next = runs.erase(next);
    }
    if (next != runs.begin()) {
      auto prev = std::prev(next);
      if (prev->second.last + 1 == seq && prev->second.outcome == o) {
        prev->second.last = last;
        return;
      }
    }
    runs.emplace_hint(next, seq, Run{last, o});
  }

  std::map<CoordinatorKey, Runs> coords_;
};

}  // namespace vsr::txn
