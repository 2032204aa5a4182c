// E4 — §4.1: "The protocol requires relatively little message-passing in the
// simple case ... One round of messages is all that is needed when the
// manager is also the primary in the last active view; otherwise, one round
// plus one message is needed."  And the §4.1 special case: "the primary can
// unilaterally exclude the inaccessible backup from the view."
//
// Measured: protocol messages (invite/accept/init-view) and wall-clock
// duration of a view change for (a) a backup crash — the surviving primary
// manages, one round; (b) a primary crash — a backup manages and hands off,
// one round + one message; (c) a backup crash with unilateral tweaks on —
// zero protocol messages. Swept over group sizes, plus the §3.3 eager/lazy
// backup-apply ablation's effect on handoff time, and how long a call that
// was in flight to a crashed primary takes to resolve (DESIGN.md §16 rule
// 4: it ends when the new view forms, not after the call ladder).
#include "baseline/models.h"
#include "bench/bench_common.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

struct ChangeCost {
  std::uint64_t protocol_msgs = 0;  // invite + accept + init-view
  sim::Duration duration = 0;       // trigger .. new view active at primary
  bool ok = false;
};

ChangeCost MeasureChange(std::size_t n, bool crash_primary, bool unilateral,
                         bool eager_apply, int preload_txns = 0) {
  ClusterOptions opts;
  opts.seed = 4000 + n * 17 + (crash_primary ? 1 : 0) + (unilateral ? 2 : 0) +
              (eager_apply ? 4 : 0);
  opts.cohort.unilateral_view_tweaks = unilateral;
  opts.cohort.eager_backup_apply = eager_apply;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", n);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  ChangeCost cost;
  if (!cluster.RunUntilStable()) return cost;
  if (preload_txns > 0) {
    bench::MeasureTxnPhases(cluster, client_g, server, preload_txns);
    cluster.RunFor(500 * sim::kMillisecond);
  }

  auto cohorts = cluster.Cohorts(server);
  std::size_t victim = cohorts.size();
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    const bool is_primary = cohorts[i]->IsActivePrimary();
    if (crash_primary == is_primary) {
      victim = i;
      break;
    }
  }
  if (victim == cohorts.size()) return cost;

  cluster.network().ResetStats();
  const vr::Mid victim_mid = cohorts[victim]->mid();
  const sim::Time crash_at = cluster.sim().Now();
  cluster.Crash(server, victim);
  // Wait until a view EXCLUDING the victim is active at some primary (the
  // group can look "stable" in the old view until failure detection fires).
  core::Cohort* primary = nullptr;
  const sim::Time deadline = cluster.sim().Now() + 30 * sim::kSecond;
  while (cluster.sim().Now() < deadline) {
    primary = cluster.AnyPrimary(server);
    if (primary != nullptr && !primary->cur_view().Contains(victim_mid) &&
        primary->stats().last_view_change_completed >= crash_at) {
      break;
    }
    primary = nullptr;
    cluster.RunFor(10 * sim::kMillisecond);
  }
  if (primary == nullptr) return cost;

  const auto& st = cluster.network().stats();
  auto count = [&](vr::MsgType t) -> std::uint64_t {
    auto it = st.sent_by_type.find(static_cast<std::uint16_t>(t));
    return it == st.sent_by_type.end() ? 0 : it->second;
  };
  cost.protocol_msgs = count(vr::MsgType::kInvite) +
                       count(vr::MsgType::kAccept) +
                       count(vr::MsgType::kInitView);
  cost.duration = primary->stats().last_view_change_completed - crash_at;
  cost.ok = true;
  return cost;
}

// Crashes an n=3 group's primary with a call on the wire to it and returns
// the time from the crash until the call's transaction resolved (aborted:
// the call got no answer), or a negative duration if it never did.
sim::Duration MeasureCallResolve() {
  ClusterOptions opts;
  opts.seed = 4100;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  if (!cluster.RunUntilStable()) return -1;
  bench::MeasureTxnPhases(cluster, client_g, server, 10);
  cluster.RunFor(500 * sim::kMillisecond);
  core::Cohort* coord = cluster.AnyPrimary(client_g);
  auto cohorts = cluster.Cohorts(server);
  std::size_t victim = cohorts.size();
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) victim = i;
  }
  if (coord == nullptr || victim == cohorts.size()) return -1;

  bool done = false;
  sim::Time resolved = 0;
  const sim::Time crash_at = cluster.sim().Now();
  coord->SpawnTransaction(
      [server](core::TxnHandle& h) -> sim::Task<bool> {
        co_await h.Call(server, "put", std::string("k=v"));
        co_return true;
      },
      [&](vr::TxnOutcome) {
        done = true;
        resolved = cluster.sim().Now();
      });
  cluster.Crash(server, victim);  // the call is on the wire to it
  const sim::Time deadline = crash_at + 5 * sim::kSecond;
  while (!done && cluster.sim().Now() < deadline) {
    cluster.RunFor(1 * sim::kMillisecond);
  }
  return done ? resolved - crash_at : -1;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E4: view change cost (§4.1)",
      "one round when the manager was the primary; one round + one message "
      "otherwise; unilateral tweaks avoid the protocol entirely");

  bench::Row("  %-34s | protocol msgs (model) | duration", "scenario");
  for (std::size_t n : {3u, 5u, 7u}) {
    auto backup = MeasureChange(n, /*crash_primary=*/false, false, true);
    auto primary = MeasureChange(n, /*crash_primary=*/true, false, true);
    auto tweak = MeasureChange(n, /*crash_primary=*/false, true, true);
    const auto m_backup = baseline::VrViewChange(n, true, 300);
    const auto m_primary = baseline::VrViewChange(n, false, 300);
    bench::Row("  n=%zu backup crash (primary manages) | %4llu (%llu)          | %s",
               n, static_cast<unsigned long long>(backup.protocol_msgs),
               static_cast<unsigned long long>(m_backup.messages),
               sim::FormatDuration(backup.duration).c_str());
    bench::Row("  n=%zu primary crash (backup manages) | %4llu (%llu)          | %s",
               n, static_cast<unsigned long long>(primary.protocol_msgs),
               static_cast<unsigned long long>(m_primary.messages),
               sim::FormatDuration(primary.duration).c_str());
    bench::Row("  n=%zu backup crash, unilateral tweak | %4llu (0)          | %s",
               n, static_cast<unsigned long long>(tweak.protocol_msgs),
               sim::FormatDuration(tweak.duration).c_str());
    if (n == 3) {
      auto ms = [](const ChangeCost& c) {
        return static_cast<double>(c.duration) / sim::kMillisecond;
      };
      bench::Metric("n3_backup_crash_ms", ms(backup));
      bench::Metric("n3_primary_crash_ms", ms(primary));
      bench::Metric("n3_unilateral_tweak_ms", ms(tweak));
    }
  }

  bench::Row("\n  Handoff after 300 preloaded transactions (§3.3 trade-off):");
  for (bool eager : {true, false}) {
    auto c = MeasureChange(3, /*crash_primary=*/true, false, eager, 300);
    bench::Row("    %-22s: duration %s",
               eager ? "eager backup apply" : "lazy (replay on promote)",
               sim::FormatDuration(c.duration).c_str());
  }

  const sim::Duration resolve = MeasureCallResolve();
  bench::Row("\n  n=3 primary crash, call in flight to it: resolved after %s",
             sim::FormatDuration(resolve).c_str());
  bench::Metric("n3_call_resolve_ms",
                static_cast<double>(resolve) / sim::kMillisecond);

  bench::Row("\n  Expect: protocol messages ~= the model (2(n-1), +1 for the");
  bench::Row("  init-view handoff; slightly more under retransmission), 0");
  bench::Row("  for unilateral tweaks. Duration is the failure detector's");
  bench::Row("  reaction plus a round trip: the manager forms the view once");
  bench::Row("  every live cohort has answered, so a tweak saves messages,");
  bench::Row("  not time. A call in flight to the crashed primary resolves");
  bench::Row("  once the new view is active (DESIGN.md §16 rule 4), not after");
  bench::Row("  kCallAttempts x kCallTimeout (180 ms).");
  return 0;
}
