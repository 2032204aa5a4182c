// Protocol invariant checkers used by the property/stress test suites and
// the availability benchmarks.
//
// What we check (and where the paper claims it):
//   * At most one active primary per viewid — a view has exactly one primary
//     (§2); several active primaries may coexist transiently, but only in
//     DIFFERENT views, and only the latest can commit (§4.1).
//   * Views contain a majority of the configuration (§2).
//   * Committed transactions survive view changes: "events known to a
//     majority of cohorts survive into subsequent views. Thus, events of
//     committed transactions will survive view changes" (§2).
//   * One-copy serializability (§1) — validated through commit accounting on
//     read-modify-write counters (a lost update or phantom double-execution
//     changes the final counter) and through replica-state digests.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "client/cluster.h"

namespace vsr::check {

// Commit accounting: client-observed outcomes by kind. An unknown-outcome
// transaction may or may not have applied.
struct CommitAccounting {
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  std::uint64_t unknown = 0;

  void Note(vr::TxnOutcome o) {
    switch (o) {
      case vr::TxnOutcome::kCommitted:
        ++committed;
        break;
      case vr::TxnOutcome::kAborted:
        ++aborted;
        break;
      default:
        ++unknown;
        break;
    }
  }
};

// A digest of a cohort's committed state (base versions only).
std::string StateDigest(const txn::ObjectStore& store);

// Structural invariants that must hold at any instant.
std::vector<std::string> CheckInstant(client::Cluster& cluster,
                                      vr::GroupId group);

// Additional invariants that must hold once the group is quiescent (no
// in-flight transactions, buffer drained): all cohorts active in the
// primary's view hold identical committed state.
std::vector<std::string> CheckQuiescent(client::Cluster& cluster,
                                        vr::GroupId group);

// Sharded-deployment invariants over the placement directory (DESIGN.md
// §11): ranges tile the key space (first lo == "", contiguous, last hi ==
// ""), every owner / move target is a registered group, and move state is
// internally consistent (moving_to set iff mid-move, and never the owner).
std::vector<std::string> CheckPlacement(const core::Directory& dir);

// Cross-group conservation: sums each listed account's committed balance at
// its directory-owner's primary and compares to `expected_total`. Valid once
// the shard groups are quiescent. Appends violations (unreadable accounts
// count as violations — an unreachable primary makes the audit impossible).
std::vector<std::string> CheckConservation(
    client::Cluster& cluster, const std::vector<std::string>& accounts,
    long long expected_total);

}  // namespace vsr::check
