// The simulator workloads, on the deterministic discrete-event host with the
// default simulated network (one-way delay uniform over 100-500 µs, no
// loss). Latency, throughput and unavailability here are virtual time, and
// each world measures a fixed virtual interval, so those figures depend only
// on the code and the seed; set-up time and CPU are the scheduler thread's
// wall and CPU time.
//
//   sim-xshard    two bank groups of 3 replicas own accounts a000-a031 and
//                 a032-a063 (the sharded bank's key-range layout) and a
//                 3-replica client group runs transfers, 8 in flight, half
//                 of them across the two groups (two-participant 2PC);
//   sim-failover  one 3-replica bank group with the durable event log and a
//                 3-replica client group runs deposits, 4 in flight, while
//                 the bank primary is crashed and recovered on a schedule.
//
// Untraced runs use client::Cluster. Traced runs build the same nodes from
// the same classes (Simulation, Network, Directory, StableStore, Cohort) and
// add the seam decorators of trace.h around the transport and the timers.
#include <memory>

#include "client/cluster.h"
#include "common.h"
#include "trace.h"
#include "wire_replay.h"
#include "workload/bank.h"

namespace vsr::perfbench {
namespace {

constexpr int kProbeCrashes = 2;  // per world

// Virtual seconds measured per second of --seconds. The rates make a run
// take about --seconds of wall time on a 4-vCPU KVM guest (Xeon, Sapphire
// Rapids); a slower build takes longer but measures the same interval.
constexpr double kXshardVirtualPerSecond = 2;
constexpr double kFailoverVirtualPerSecond = 5;

// The failover schedule: from the start of the measured interval, crashes
// come kCrashEvery plus a seeded jitter below kCrashJitter apart, and each
// crashed primary recovers kRecoverAfter later.
constexpr double kCrashEvery = 2 * kSecondUs;
constexpr double kCrashJitter = 0.5 * kSecondUs;
constexpr double kRecoverAfter = 0.5 * kSecondUs;

constexpr std::size_t kSpans = 6'000'000;
constexpr std::size_t kFrames = 16384;

// ---------------------------------------------------------------------------
// The traced composition root (mirrors client::Cluster)
// ---------------------------------------------------------------------------

class TracedSim {
 public:
  TracedSim(std::uint64_t seed, core::CohortOptions options)
      : options_(std::move(options)), sim_(seed), net_(sim_, {}) {}
  TracedSim(const TracedSim&) = delete;
  TracedSim& operator=(const TracedSim&) = delete;

  sim::Simulation& sim() { return sim_; }
  net::Network& network() { return net_; }
  storage::StableStore& stable() { return stable_; }
  SpanLog& log() { return log_; }

  vr::GroupId AddGroup(const std::string& /*name*/, std::size_t replicas) {
    const vr::GroupId g = next_group_++;
    std::vector<vr::Mid> config;
    for (std::size_t i = 0; i < replicas; ++i) config.push_back(next_mid_++);
    directory_.RegisterGroup(g, config);
    for (vr::Mid mid : config) {
      groups_[g].push_back(std::make_unique<core::Cohort>(
          host_, transport_, directory_, stable_, g, mid, config, options_));
    }
    return g;
  }

  std::vector<core::Cohort*> Cohorts(vr::GroupId g) {
    std::vector<core::Cohort*> out;
    for (auto& c : groups_.at(g)) out.push_back(c.get());
    return out;
  }

  core::Cohort* AnyPrimary(vr::GroupId g) {
    for (auto& c : groups_.at(g)) {
      if (c->IsActivePrimary()) return c.get();
    }
    return nullptr;
  }

  void Start() {
    for (auto& [g, cohorts] : groups_) {
      for (auto& c : cohorts) c->Start();
    }
  }

 private:
  core::CohortOptions options_;
  sim::Simulation sim_;
  net::Network net_;
  SpanLog log_{kSpans, kFrames};
  TracingTimers timers_{sim_.scheduler(), log_};
  host::Host host_{timers_, sim_.tracer()};
  TracingTransport transport_{net_, log_};
  core::Directory directory_;
  storage::StableStore stable_{host_, storage::StableStoreOptions{}};
  vr::Mid next_mid_ = 1;
  vr::GroupId next_group_ = 1;
  std::map<vr::GroupId, std::vector<std::unique_ptr<core::Cohort>>> groups_;
};

// ---------------------------------------------------------------------------
// World-generic helpers (client::Cluster or TracedSim)
// ---------------------------------------------------------------------------

template <class W>
struct SimEnv {
  W& world;
  vr::GroupId client;
  core::Cohort* primary;

  double Now() { return static_cast<double>(world.sim().Now()); }
  std::function<double()> Stamp() {
    sim::Simulation* s = &world.sim();
    return [s] { return static_cast<double>(s->Now()); };
  }
  void Spawn(core::TxnBody body, std::function<void(core::TxnOutcome)> done) {
    if (primary == nullptr) {
      // No client primary: refuse a little later, as a real client would
      // time out, so the retry does not spin in zero virtual time.
      world.sim().scheduler().After(
          host::kMillisecond, [done] { done(core::TxnOutcome::kAborted); });
      return;
    }
    primary->SpawnTransaction(std::move(body), std::move(done));
  }
  void WaitFor(Inbox& in, double deadline_us) {
    sim::Scheduler& s = world.sim().scheduler();
    while (in.queue.empty() && Now() < deadline_us && s.Step()) {
    }
  }
  void Refresh() { primary = world.AnyPrimary(client); }
};

// client::Cluster::RunUntilStable's predicate, tightened from a majority to
// every member (see WaitStable in loopback_bench.cc), for the given groups.
template <class W>
bool RunUntilStable(W& w, const std::vector<vr::GroupId>& groups,
                    double timeout_us = 10 * kSecondUs) {
  const double deadline = static_cast<double>(w.sim().Now()) + timeout_us;
  while (static_cast<double>(w.sim().Now()) < deadline) {
    bool stable = true;
    for (vr::GroupId g : groups) {
      core::Cohort* p = w.AnyPrimary(g);
      std::size_t in_view = 0;
      const auto cohorts = w.Cohorts(g);
      for (core::Cohort* c : cohorts) {
        in_view += p != nullptr && c->status() == core::Status::kActive &&
                   c->cur_viewid() == p->cur_viewid();
      }
      stable = stable && in_view == cohorts.size();
    }
    if (stable) return true;
    w.sim().scheduler().RunUntil(w.sim().Now() + 10 * host::kMillisecond);
  }
  return false;
}

// Withdraw and deposit in account-name order, so every transfer takes its
// write locks in one global order, as the sharded bank's transfer does.
core::TxnBody Transfer(vr::GroupId ga, std::string a, vr::GroupId gb,
                       std::string b, long long amount) {
  return [ga, gb, a = std::move(a), b = std::move(b),
          amount](core::TxnHandle& h) -> host::Task<bool> {
    const std::string amt = "=" + std::to_string(amount);
    if (a <= b) {
      co_await h.Call(ga, "withdraw", a + amt);
      co_await h.Call(gb, "deposit", b + amt);
    } else {
      co_await h.Call(gb, "deposit", b + amt);
      co_await h.Call(ga, "withdraw", a + amt);
    }
    co_return true;
  };
}

// The groups a run needs, and where each account lives.
struct Layout {
  std::vector<vr::GroupId> banks;  // banks[i] owns accounts i*N/B..
  vr::GroupId client = 0;
  vr::GroupId Owner(int account) const {
    return banks[static_cast<std::size_t>(account) * banks.size() / kAccounts];
  }
};

core::TxnBody BodyOf(const Layout& l, const Op& op) {
  switch (op.kind) {
    case OpKind::kOpen:
      return SingleCall(l.Owner(op.a), "open",
                        Account(op.a) + "=" + std::to_string(op.amount));
    case OpKind::kTransfer:
      return Transfer(l.Owner(op.a), Account(op.a), l.Owner(op.b),
                      Account(op.b), op.amount);
    default:
      return workload::MakeDepositTxn(l.Owner(op.a), Account(op.a), op.amount);
  }
}

// sim-xshard: transfers between two accounts, across the two groups for
// half of them. sim-failover: deposits to one account.
std::function<Op()> Generator(bool xshard, std::uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng, xshard] {
    Op op;
    op.amount = 1 + rng->Below(100);
    if (!xshard) {
      op.kind = OpKind::kDeposit;
      op.a = rng->Below(kAccounts);
      return op;
    }
    constexpr int kHalf = kAccounts / 2;
    op.kind = OpKind::kTransfer;
    const int sa = rng->Below(2);
    const int sb = rng->Coin() ? 1 - sa : sa;
    op.a = sa * kHalf + rng->Below(kHalf);
    op.b = sb * kHalf + rng->Below(kHalf - 1);
    if (op.b >= op.a && sa == sb) ++op.b;  // never the same account
    return op;
  };
}

template <class W>
long long CommittedTotal(W& w, const Layout& l) {
  long long total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    core::Cohort* p = w.AnyPrimary(l.Owner(i));
    if (p == nullptr) return -1;
    const auto v = p->objects().ReadCommitted(Account(i));
    if (v && !v->empty()) total += std::stoll(*v);
  }
  return total;
}

template <class W>
Counters ReadCounters(W& w, const Layout& l) {
  Counters out;
  std::vector<vr::GroupId> groups = l.banks;
  groups.push_back(l.client);
  for (vr::GroupId g : groups) {
    for (core::Cohort* c : w.Cohorts(g)) out.AddCohort(*c);
  }
  out.AddStable(w.stable());
  const net::NetworkStats& n = w.network().stats();
  out.net_frames = static_cast<double>(n.frames_sent);
  out.net_bytes = static_cast<double>(n.bytes_sent);
  for (const auto& [t, v] : n.sent_by_type) out.net_frames_by_type[t] = v;
  for (const auto& [t, v] : n.bytes_by_type) out.net_bytes_by_type[t] = v;
  return out;
}

// One world's life: set up, the measured interval with the failover
// schedule (sim-failover) or followed by the failover probe (sim-xshard),
// and the audit.
template <class W>
void RunWorld(W& w, const RunOptions& o, RunResult& r) {
  const bool xshard = o.workload == "sim-xshard";
  const double setup_start = WallSeconds();
  Layout l;
  if (xshard) {
    l.banks = {w.AddGroup("shard0", 3), w.AddGroup("shard1", 3)};
  } else {
    l.banks = {w.AddGroup("bank", 3)};
  }
  l.client = w.AddGroup("client", 3);
  for (vr::GroupId g : l.banks) {
    for (core::Cohort* c : w.Cohorts(g)) workload::RegisterBankProcs(*c);
  }
  w.Start();
  std::vector<vr::GroupId> all = l.banks;
  all.push_back(l.client);
  if (!RunUntilStable(w, all)) {
    r.audit_error = "views did not form";
    return;
  }

  SimEnv<W> env{w, l.client, w.AnyPrimary(l.client)};
  ClosedLoop<SimEnv<W>> loop(env, xshard ? 8 : 4, Generator(xshard, o.seed),
                             [&l](const Op& op) { return BodyOf(l, op); });
  long long deposited = 0;
  // Failover bookkeeping: the last crash, and whether a transaction
  // submitted after it has committed yet.
  double crash_at = 1e300;
  bool awaiting = false;
  vr::GroupId crashed_group = l.banks[0];
  loop.on_commit = [&](const Op& op, double submit_us, double at_us) {
    if (op.kind == OpKind::kOpen || op.kind == OpKind::kDeposit) {
      deposited += op.amount;
    }
    const bool involved = l.Owner(op.a) == crashed_group ||
                          (op.kind == OpKind::kTransfer &&
                           l.Owner(op.b) == crashed_group);
    if (awaiting && involved && submit_us > crash_at) {
      r.unavailable_ms.push_back((at_us - crash_at) / 1000.0);
      awaiting = false;
    }
  };
  auto crash_primary = [&](vr::GroupId g) -> core::Cohort* {
    core::Cohort* p = w.AnyPrimary(g);
    if (p == nullptr) return nullptr;
    // Still no service since the last crash: count the outage up to now.
    if (awaiting) r.unavailable_ms.push_back((env.Now() - crash_at) / 1000.0);
    p->Crash();
    ++r.crashes;
    crash_at = env.Now();
    crashed_group = g;
    awaiting = true;
    return p;
  };

  std::vector<Op> funding;
  for (int i = 0; i < kAccounts; ++i) {
    funding.push_back({OpKind::kOpen, i, 0, kOpening});
  }
  if (!loop.RunOps(funding, Phase::kSetup, 30 * kSecondUs)) {
    r.audit_error = "funding did not finish";
    return;
  }
  int warm = 0;
  loop.RunWhile(Phase::kSetup, [&] { return warm++ < kWarmupOps; });
  loop.Drain(30 * kSecondUs);
  r.setup_s.push_back(WallSeconds() - setup_start);

  constexpr bool kTraced = std::is_same_v<W, TracedSim>;
  const Counters before = kTraced ? ReadCounters(w, l) : Counters{};
  if constexpr (kTraced) w.log().set_sampling(true);

  // sim-failover: crash whichever cohort is the bank primary on a seeded
  // schedule, and recover it a fixed time later.
  bool stop_crashing = false;
  Rng crash_rng(o.seed ^ 0x6661696c6f766572ULL);
  std::function<void()> schedule_crash = [&] {
    const double at = kCrashEvery + kCrashJitter *
        static_cast<double>(crash_rng.Below(1000)) / 1000.0;
    w.sim().scheduler().After(static_cast<host::Duration>(at), [&] {
      if (stop_crashing) return;
      if (core::Cohort* p = crash_primary(l.banks[0])) {
        w.sim().scheduler().After(static_cast<host::Duration>(kRecoverAfter),
                                  [p] { p->Recover(); });
      }
      schedule_crash();
    });
  };
  if (!xshard) schedule_crash();

  const CpuUsage cpu0 = CpuUsage::Now();
  const std::int64_t t0_ns = WallNs();
  const double t0 = env.Now();
  const double t_end = t0 + o.seconds * kSecondUs *
      (xshard ? kXshardVirtualPerSecond : kFailoverVirtualPerSecond);
  loop.RunWhile(Phase::kMeasured, [&] {
    if constexpr (kTraced) {
      if (w.log().full()) return false;
    }
    return env.Now() < t_end;
  });
  stop_crashing = true;
  loop.Drain(60 * kSecondUs);
  const std::int64_t t1_ns = WallNs();
  r.AddMeasured(loop.tally(Phase::kMeasured), CpuUsage::Now() - cpu0,
                (env.Now() - t0) / kSecondUs,
                static_cast<double>(t1_ns - t0_ns) / 1e9);
  r.loadavg = LoadAverage();
  if constexpr (kTraced) {
    w.log().set_sampling(false);
    r.layers = ReadCounters(w, l) - before;
  }
  awaiting = false;

  // sim-xshard: the failover probe crashes the first group's primary a few
  // times after the measured interval.
  if (xshard && o.failover_probe) {
    for (int k = 0; k < kProbeCrashes; ++k) {
      core::Cohort* p = crash_primary(l.banks[0]);
      if (p == nullptr) break;
      loop.RunWhile(Phase::kProbe, [&] {
        return awaiting && env.Now() < crash_at + 30 * kSecondUs;
      });
      if (awaiting) {
        r.audit_error = "no commit within 30 s of a primary crash";
        break;
      }
      p->Recover();
      if (!RunUntilStable(w, l.banks)) {
        r.audit_error = "the group did not re-form after a recovery";
        break;
      }
    }
    loop.Drain(60 * kSecondUs);
    r.probe.Merge(loop.tally(Phase::kProbe));
  }

  // Audit. sim-xshard: transfers conserve the opening total. sim-failover:
  // no committed deposit was lost across the crashes (and no aborted one
  // applied). Let pending recoveries and commit applications finish first.
  if (r.audit_error.empty()) {
    w.sim().scheduler().RunUntil(w.sim().Now() + 1 * host::kSecond);
    RunUntilStable(w, all);
    const long long want = xshard ? kAccounts * kOpening : deposited;
    long long total = -1;
    for (int i = 0; i < 50 && total != want; ++i) {
      total = CommittedTotal(w, l);
      w.sim().scheduler().RunUntil(w.sim().Now() + 100 * host::kMillisecond);
    }
    if (loop.unknown_outcomes() > 0) {
      r.audit_error = std::to_string(loop.unknown_outcomes()) +
                      " transactions ended kUnknown";
    } else if (total != want) {
      r.audit_error = "balance total " + std::to_string(total) + " != " +
                      std::to_string(want) +
                      (xshard ? " (opening total)"
                              : " (opening plus committed deposits)");
    }
  }

  if constexpr (kTraced) {
    const std::vector<const SpanLog*> logs = {&w.log()};
    Summarize(logs, t0_ns, t1_ns, false, r.trace);
    ReplayWire(logs, r.trace);
  }
}

}  // namespace

RunResult RunSim(const RunOptions& o) {
  core::CohortOptions cohort;
  cohort.event_log.enabled = o.workload == "sim-failover";
  // Each world draws its inputs from its own seed, derived from the run's.
  RunResult r;
  RunOptions share = o;
  share.seconds = o.seconds / o.setups;
  for (int i = 0; i < o.setups && r.audit_error.empty(); ++i) {
    share.seed = o.seed * 1000 + static_cast<std::uint64_t>(i);
    if (o.traced) {
      TracedSim w(share.seed, cohort);
      RunWorld(w, share, r);
    } else {
      client::Cluster w({.seed = share.seed, .cohort = cohort});
      RunWorld(w, share, r);
    }
  }
  return r;
}

}  // namespace vsr::perfbench
