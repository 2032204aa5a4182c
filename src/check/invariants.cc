#include "check/invariants.h"

#include <map>

#include "wire/buffer.h"

namespace vsr::check {

std::string StateDigest(const txn::ObjectStore& store) {
  wire::Writer w;
  for (const std::string& uid : store.ObjectIds()) {
    auto v = store.ReadCommitted(uid);
    if (!v) continue;  // objects created but never committed don't count
    w.String(uid);
    w.String(*v);
  }
  const auto bytes = w.Take();
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", wire::Crc32(bytes));
  return buf;
}

std::vector<std::string> CheckInstant(client::Cluster& cluster,
                                      vr::GroupId group) {
  std::vector<std::string> violations;
  auto cohorts = cluster.Cohorts(group);
  const std::size_t n = cohorts.size();

  // At most one active primary per viewid.
  std::map<vr::ViewId, int> primaries_per_view;
  for (auto* c : cohorts) {
    if (c->IsActivePrimary()) ++primaries_per_view[c->cur_viewid()];
  }
  for (const auto& [vid, count] : primaries_per_view) {
    if (count > 1) {
      violations.push_back("view " + vid.ToString() + " has " +
                           std::to_string(count) + " active primaries");
    }
  }

  for (auto* c : cohorts) {
    if (c->status() == core::Status::kCrashed) continue;
    // Views contain a majority of the configuration.
    if (c->status() == core::Status::kActive &&
        c->cur_view().Size() < vr::MajorityOf(n)) {
      violations.push_back("cohort " + std::to_string(c->mid()) +
                           " active in minority view " +
                           c->cur_viewid().ToString());
    }
    // max_viewid never lags cur_viewid.
    if (c->max_viewid() < c->cur_viewid()) {
      violations.push_back("cohort " + std::to_string(c->mid()) +
                           " max_viewid < cur_viewid");
    }
    // Histories carry strictly increasing viewids.
    const auto& entries = c->history().entries();
    for (std::size_t i = 1; i < entries.size(); ++i) {
      if (!(entries[i - 1].view < entries[i].view)) {
        violations.push_back("cohort " + std::to_string(c->mid()) +
                             " history viewids not increasing");
      }
    }
  }
  return violations;
}

std::vector<std::string> CheckQuiescent(client::Cluster& cluster,
                                        vr::GroupId group) {
  std::vector<std::string> violations = CheckInstant(cluster, group);
  auto cohorts = cluster.Cohorts(group);

  // Per-transaction state is temporary (DESIGN.md §15): once a cohort knows
  // a transaction's outcome it holds nothing more for it, and no coroutine
  // still waits on a 2PC or query reply.
  for (auto* c : cohorts) {
    if (c->status() != core::Status::kActive) continue;
    const std::string who = "cohort " + std::to_string(c->mid());
    for (const vr::Aid& aid : c->LiveTxnAids()) {
      const vr::TxnOutcome o = c->outcomes().Lookup(aid);
      if (o == vr::TxnOutcome::kCommitted || o == vr::TxnOutcome::kAborted) {
        violations.push_back(who + " still holds state for settled txn " +
                             aid.ToString());
      }
    }
    if (c->PendingTxnReplies() != 0) {
      violations.push_back(who + " has " +
                           std::to_string(c->PendingTxnReplies()) +
                           " coroutines waiting on 2PC/query replies");
    }
  }

  core::Cohort* primary = cluster.AnyPrimary(group);
  if (primary == nullptr) return violations;  // nothing more to compare

  const std::string expect = StateDigest(primary->objects());
  for (auto* c : cohorts) {
    if (c == primary) continue;
    if (c->status() != core::Status::kActive) continue;
    if (c->cur_viewid() != primary->cur_viewid()) continue;
    // Lazy-apply backups (§3.3 trade-off) intentionally defer folding
    // records into their gstate until promotion; their base state lags the
    // primary's by design, so the digest comparison only applies to eager
    // backups.
    if (!c->options().eager_backup_apply) continue;
    const std::string got = StateDigest(c->objects());
    if (got != expect) {
      violations.push_back("cohort " + std::to_string(c->mid()) +
                           " committed-state digest " + got +
                           " != primary's " + expect);
    }
  }
  return violations;
}

std::vector<std::string> CheckPlacement(const core::Directory& dir) {
  std::vector<std::string> violations;
  const auto& ranges = dir.ranges();
  if (ranges.empty()) {
    violations.push_back("placement: no ranges assigned");
    return violations;
  }
  if (!ranges.front().lo.empty()) {
    violations.push_back("placement: first range starts at \"" +
                         ranges.front().lo + "\", not \"\"");
  }
  if (!ranges.back().hi.empty()) {
    violations.push_back("placement: last range ends at \"" +
                         ranges.back().hi + "\", not +inf");
  }
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    const core::ShardRange& r = ranges[i];
    const std::string where = "[" + r.lo + ", " + r.hi + ")";
    if (i > 0 && ranges[i - 1].hi != r.lo) {
      violations.push_back("placement: gap/overlap between [" +
                           ranges[i - 1].lo + ", " + ranges[i - 1].hi +
                           ") and " + where);
    }
    if (dir.Lookup(r.owner) == nullptr) {
      violations.push_back("placement: " + where + " owned by unknown group " +
                           std::to_string(r.owner));
    }
    const bool moving = r.state != core::ShardState::kSettled;
    if (moving && dir.Lookup(r.moving_to) == nullptr) {
      violations.push_back("placement: " + where +
                           " moving to unknown group " +
                           std::to_string(r.moving_to));
    }
    if (moving && r.moving_to == r.owner) {
      violations.push_back("placement: " + where + " moving to its owner");
    }
    if (!moving && r.moving_to != 0) {
      violations.push_back("placement: settled " + where +
                           " has moving_to set");
    }
  }
  return violations;
}

std::vector<std::string> CheckConservation(
    client::Cluster& cluster, const std::vector<std::string>& accounts,
    long long expected_total) {
  std::vector<std::string> violations;
  long long total = 0;
  for (const std::string& acct : accounts) {
    const core::ShardRange* r = cluster.directory().Route(acct);
    if (r == nullptr) {
      violations.push_back("conservation: account " + acct + " unplaced");
      return violations;
    }
    core::Cohort* primary = cluster.AnyPrimary(r->owner);
    if (primary == nullptr) {
      violations.push_back("conservation: group " + std::to_string(r->owner) +
                           " (owner of " + acct + ") has no primary");
      return violations;
    }
    auto v = primary->objects().ReadCommitted(acct);
    if (v && !v->empty()) total += std::stoll(*v);
  }
  if (total != expected_total) {
    violations.push_back("conservation: cluster-wide total " +
                         std::to_string(total) + " != expected " +
                         std::to_string(expected_total));
  }
  return violations;
}

}  // namespace vsr::check
