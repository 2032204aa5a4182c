// loopback-seq: a 3-replica bank group and a 1-member client group on the
// real host (one event-loop thread per node, TCP over 127.0.0.1), over 64
// accounts, with one deposit in flight at a time.
//
// Untraced runs drive host::LoopbackCluster through its public API. Traced
// runs build the same nodes from the same classes LoopbackCluster wires
// together (EventLoop, Host, StableStore, SocketTransport, Cohort) and add
// the seam decorators of trace.h around each node's transport and timers.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>

#include "common.h"
#include "host/loopback.h"
#include "trace.h"
#include "wire_replay.h"
#include "workload/bank.h"

namespace vsr::perfbench {
namespace {

constexpr int kProbeCrashes = 1;  // per cluster

// Spans kept per node in a traced run, and frames sampled for the replay.
constexpr std::size_t kSpansPerNode = 1'500'000;
constexpr std::size_t kFramesPerNode = 4096;

// ---------------------------------------------------------------------------
// The traced composition root
// ---------------------------------------------------------------------------

class TracedLoopback {
 public:
  TracedLoopback() = default;
  ~TracedLoopback() { Shutdown(); }
  TracedLoopback(const TracedLoopback&) = delete;
  TracedLoopback& operator=(const TracedLoopback&) = delete;

  vr::GroupId AddGroup(const std::string& /*name*/, std::size_t replicas) {
    const vr::GroupId g = next_group_++;
    std::vector<vr::Mid> config;
    for (std::size_t i = 0; i < replicas; ++i) config.push_back(next_mid_++);
    directory_.RegisterGroup(g, config);
    for (vr::Mid mid : config) {
      auto n = std::make_unique<Node>();
      n->mid = mid;
      n->loop = std::make_unique<host::EventLoop>();
      n->log = std::make_unique<SpanLog>(kSpansPerNode, kFramesPerNode);
      n->timers = std::make_unique<TracingTimers>(*n->loop, *n->log);
      n->tracer = std::make_unique<host::Tracer>();
      n->host = std::make_unique<host::Host>(*n->timers, *n->tracer);
      n->stable = std::make_unique<storage::StableStore>(
          *n->host, storage::StableStoreOptions{});
      n->socket = std::make_unique<host::SocketTransport>(*n->loop, mid, addrs_);
      n->transport = std::make_unique<TracingTransport>(*n->socket, *n->log);
      n->cohort = std::make_unique<core::Cohort>(
          *n->host, *n->transport, directory_, *n->stable, g, mid, config,
          core::CohortOptions{});
      groups_[g].push_back(nodes_.size());
      nodes_.push_back(std::move(n));
    }
    return g;
  }

  std::vector<core::Cohort*> Cohorts(vr::GroupId g) {
    std::vector<core::Cohort*> out;
    for (std::size_t idx : groups_.at(g)) out.push_back(nodes_[idx]->cohort.get());
    return out;
  }
  const std::vector<std::size_t>& GroupNodes(vr::GroupId g) const {
    return groups_.at(g);
  }

  void Start() {
    for (auto& n : nodes_) {
      const std::uint16_t port = n->socket->Listen(0);
      if (port == 0) throw std::runtime_error("traced loopback: bind failed");
      addrs_[n->mid] = host::NodeAddress{"127.0.0.1", port};
    }
    for (auto& n : nodes_) n->loop->Start();
    for (auto& n : nodes_) {
      core::Cohort* c = n->cohort.get();
      n->loop->Post([c] { c->Start(); });
    }
    started_ = true;
  }

  void Shutdown() {
    if (!started_) return;
    started_ = false;
    for (auto& n : nodes_) n->socket->Shutdown();
    for (auto& n : nodes_) n->loop->Stop();
  }

  void RunOn(std::size_t idx, const std::function<void(core::Cohort&)>& fn) {
    Node& n = *nodes_.at(idx);
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    n.loop->Post([&] {
      fn(*n.cohort);
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
  }

  void SpawnTransactionOn(std::size_t idx, core::TxnBody body,
                          std::function<void(core::TxnOutcome)> on_done) {
    core::Cohort* c = nodes_.at(idx)->cohort.get();
    nodes_[idx]->loop->Post(
        [c, body = std::move(body), on_done = std::move(on_done)]() mutable {
          c->SpawnTransaction(std::move(body), std::move(on_done));
        });
  }

  void Crash(std::size_t idx) { RunOn(idx, [](core::Cohort& c) { c.Crash(); }); }
  void Recover(std::size_t idx) {
    RunOn(idx, [](core::Cohort& c) { c.Recover(); });
  }

  // Layer counters, each node's read on its own loop thread.
  Counters ReadCounters() {
    Counters out;
    for (std::size_t idx = 0; idx < nodes_.size(); ++idx) {
      Node& n = *nodes_[idx];
      RunOn(idx, [&](core::Cohort& c) {
        out.AddCohort(c);
        out.AddStable(*n.stable);
      });
      const host::SocketTransport::Stats t = n.socket->stats();
      out.host_frames += t.frames_sent;
      out.host_bytes += t.bytes_sent;
      out.host_send_failures += t.send_failures;
      out.host_dropped += t.dropped_corrupt + t.dropped_node_down;
    }
    return out;
  }

  void SetSampling(bool on) {
    for (auto& n : nodes_) n->log->set_sampling(on);
  }
  bool AnyLogFull() const {
    for (const auto& n : nodes_) {
      if (n->log->full()) return true;
    }
    return false;
  }
  // Only after Shutdown: the loop threads that write the logs are gone.
  std::vector<const SpanLog*> Logs() const {
    std::vector<const SpanLog*> out;
    for (const auto& n : nodes_) out.push_back(n->log.get());
    return out;
  }

 private:
  // Member order is construction order; destruction runs backwards, so the
  // cohort dies first and the loop last, as in LoopbackCluster.
  struct Node {
    vr::Mid mid = 0;
    std::unique_ptr<host::EventLoop> loop;
    std::unique_ptr<SpanLog> log;
    std::unique_ptr<TracingTimers> timers;
    std::unique_ptr<host::Tracer> tracer;
    std::unique_ptr<host::Host> host;
    std::unique_ptr<storage::StableStore> stable;
    std::unique_ptr<host::SocketTransport> socket;
    std::unique_ptr<TracingTransport> transport;
    std::unique_ptr<core::Cohort> cohort;
  };

  core::Directory directory_;
  host::AddressMap addrs_;
  vr::Mid next_mid_ = 1;
  vr::GroupId next_group_ = 1;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<vr::GroupId, std::vector<std::size_t>> groups_;
  bool started_ = false;
};

// ---------------------------------------------------------------------------
// Cluster-generic helpers (LoopbackCluster or TracedLoopback)
// ---------------------------------------------------------------------------

template <class C>
std::optional<std::size_t> PrimaryOf(C& c, vr::GroupId g) {
  for (std::size_t idx : c.GroupNodes(g)) {
    bool primary = false;
    c.RunOn(idx, [&](core::Cohort& k) { primary = k.IsActivePrimary(); });
    if (primary) return idx;
  }
  return std::nullopt;
}

// LoopbackCluster::WaitUntilStable's predicate, tightened from a majority to
// every member: an active primary whose view all members share, so every
// measurement starts from the same full view.
template <class C>
bool WaitStable(C& c, vr::GroupId g, double timeout_s = 10) {
  const double deadline = WallSeconds() + timeout_s;
  while (WallSeconds() < deadline) {
    struct View {
      bool active = false, primary = false;
      vr::ViewId viewid;
    };
    std::vector<View> views;
    for (std::size_t idx : c.GroupNodes(g)) {
      View v;
      c.RunOn(idx, [&](core::Cohort& k) {
        v.active = k.status() == core::Status::kActive;
        v.primary = k.IsActivePrimary();
        v.viewid = k.cur_viewid();
      });
      views.push_back(v);
    }
    for (const View& p : views) {
      if (!p.primary) continue;
      std::size_t in_view = 0;
      for (const View& v : views) in_view += v.active && v.viewid == p.viewid;
      if (in_view == views.size()) return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

template <class C>
struct LoopbackEnv {
  C& cluster;
  vr::GroupId client;
  std::size_t client_idx;

  static double Now() { return static_cast<double>(WallNs()) / 1000.0; }
  std::function<double()> Stamp() const { return &LoopbackEnv::Now; }
  void Spawn(core::TxnBody body, std::function<void(core::TxnOutcome)> done) {
    cluster.SpawnTransactionOn(client_idx, std::move(body), std::move(done));
  }
  void WaitFor(Inbox& in, double deadline_us) {
    const double until = std::min(deadline_us, Now() + kSecondUs);
    const Clock::time_point tp{std::chrono::nanoseconds(
        static_cast<std::int64_t>(until * 1000.0))};
    std::unique_lock<std::mutex> lock(in.mu);
    in.cv.wait_until(lock, tp, [&] { return !in.queue.empty(); });
  }
  void Refresh() {
    if (auto p = PrimaryOf(cluster, client)) client_idx = *p;
  }
};

core::TxnBody BodyOf(vr::GroupId bank, const Op& op) {
  const std::string arg = Account(op.a) + "=" + std::to_string(op.amount);
  return op.kind == OpKind::kOpen
             ? SingleCall(bank, "open", arg)
             : workload::MakeDepositTxn(bank, Account(op.a), op.amount);
}

// One deposit to a seeded-random account.
std::function<Op()> Generator(std::uint64_t seed) {
  auto rng = std::make_shared<Rng>(seed);
  return [rng] {
    Op op;
    op.a = rng->Below(kAccounts);
    op.amount = 1 + rng->Below(100);
    return op;
  };
}

template <class C>
long long CommittedTotal(C& c, vr::GroupId bank) {
  const auto p = PrimaryOf(c, bank);
  if (!p) return -1;
  long long total = 0;
  c.RunOn(*p, [&](core::Cohort& k) {
    for (int i = 0; i < kAccounts; ++i) {
      const auto v = k.objects().ReadCommitted(Account(i));
      if (v && !v->empty()) total += std::stoll(*v);
    }
  });
  return total;
}

// One cluster's life: set up, the measured interval, the failover probe and
// the audit.
template <class C>
void RunCluster(C& c, const RunOptions& o, RunResult& r) {
  const double setup_start = WallSeconds();
  const vr::GroupId bank = c.AddGroup("bank", 3);
  const vr::GroupId client = c.AddGroup("client", 1);
  for (core::Cohort* k : c.Cohorts(bank)) workload::RegisterBankProcs(*k);
  c.Start();
  if (!WaitStable(c, bank) || !WaitStable(c, client)) {
    r.audit_error = "views did not form";
    return;
  }
  LoopbackEnv<C> env{c, client, *PrimaryOf(c, client)};
  ClosedLoop<LoopbackEnv<C>> loop(
      env, 1, Generator(o.seed),
      [bank](const Op& op) { return BodyOf(bank, op); });
  long long expected = 0;
  double crash_at = 1e300, first_after = -1;
  loop.on_commit = [&](const Op& op, double submit_us, double at_us) {
    expected += op.amount;
    if (first_after < 0 && submit_us > crash_at) first_after = at_us;
  };

  std::vector<Op> funding;
  for (int i = 0; i < kAccounts; ++i) {
    funding.push_back({OpKind::kOpen, i, 0, kOpening});
  }
  int warm = 0;
  if (!loop.RunOps(funding, Phase::kSetup, 30 * kSecondUs)) {
    r.audit_error = "funding did not finish";
    return;
  }
  loop.RunWhile(Phase::kSetup, [&] { return warm++ < kWarmupOps; });
  loop.Drain(30 * kSecondUs);
  r.setup_s.push_back(WallSeconds() - setup_start);

  constexpr bool kTraced = std::is_same_v<C, TracedLoopback>;
  Counters before;
  if constexpr (kTraced) {
    before = c.ReadCounters();
    c.SetSampling(true);
  }
  const CpuUsage cpu0 = CpuUsage::Now();
  const std::int64_t t0_ns = WallNs();
  const double t0 = static_cast<double>(t0_ns) / 1000.0;
  const double t_end = t0 + o.seconds * kSecondUs;
  Windows windows;
  windows.Begin(t0, loop.tally(Phase::kMeasured));
  loop.RunWhile(Phase::kMeasured, [&] {
    const double now = env.Now();
    windows.Poll(now, loop.tally(Phase::kMeasured));
    if constexpr (kTraced) {
      if (c.AnyLogFull()) return false;
    }
    return now < t_end;
  });
  loop.Drain(30 * kSecondUs);
  const std::int64_t t1_ns = WallNs();
  const double wall = static_cast<double>(t1_ns - t0_ns) / 1e9;
  const std::vector<WindowStats> stats =
      windows.Stats(loop.tally(Phase::kMeasured));
  r.windows.insert(r.windows.end(), stats.begin(), stats.end());
  r.AddMeasured(loop.tally(Phase::kMeasured), CpuUsage::Now() - cpu0, wall,
                wall);
  r.loadavg = LoadAverage();
  if constexpr (kTraced) {
    c.SetSampling(false);
    r.layers = c.ReadCounters() - before;
  }

  if (o.failover_probe) {
    for (int k = 0; k < kProbeCrashes; ++k) {
      const auto p = PrimaryOf(c, bank);
      if (!p) break;
      c.Crash(*p);
      ++r.crashes;
      crash_at = env.Now();
      first_after = -1;
      loop.RunWhile(Phase::kProbe, [&] {
        return first_after < 0 && env.Now() < crash_at + 10 * kSecondUs;
      });
      if (first_after < 0) {
        r.audit_error = "no commit within 10 s of a primary crash";
        break;
      }
      r.unavailable_ms.push_back((first_after - crash_at) / 1000.0);
      c.Recover(*p);
      if (!WaitStable(c, bank)) {
        r.audit_error = "the bank group did not re-form after a recovery";
        break;
      }
    }
    loop.Drain(30 * kSecondUs);
    r.probe.Merge(loop.tally(Phase::kProbe));
  }

  // Audit: every committed open and deposit is in the committed balances.
  // Participants apply commits just after the client hears the outcome, so
  // poll briefly for the last ones to land.
  if (r.audit_error.empty()) {
    WaitStable(c, bank);
    long long total = -1;
    for (int i = 0; i < 200 && total != expected; ++i) {
      total = CommittedTotal(c, bank);
      if (total != expected) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    if (loop.unknown_outcomes() > 0) {
      r.audit_error = std::to_string(loop.unknown_outcomes()) +
                      " transactions ended kUnknown";
    } else if (total != expected) {
      r.audit_error = "balance total " + std::to_string(total) +
                      " != opening plus committed deposits " +
                      std::to_string(expected);
    }
  }

  if (o.idle_probe) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const CpuUsage a = CpuUsage::Now();
    const double w0 = WallSeconds();
    std::this_thread::sleep_for(std::chrono::seconds(1));
    r.idle_cpu_share = (CpuUsage::Now() - a).total_s() / (WallSeconds() - w0);
  }

  // Sends pair with deliveries by their order on each link only if no frame
  // was ever lost.
  bool lossless = false;
  if constexpr (kTraced) {
    const Counters total = c.ReadCounters();
    lossless = total.host_send_failures == 0 && total.host_dropped == 0;
  }
  c.Shutdown();
  if constexpr (kTraced) {
    const std::vector<const SpanLog*> logs = c.Logs();
    Summarize(logs, t0_ns, t1_ns, lossless, r.trace);
    ReplayWire(logs, r.trace);
  }
}

}  // namespace

RunResult RunLoopback(const RunOptions& o) {
  RunResult r;
  if (o.traced) {
    TracedLoopback c;
    RunCluster(c, o, r);
    return r;
  }
  RunOptions share = o;
  share.seconds = o.seconds / o.setups;
  for (int i = 0; i < o.setups && r.audit_error.empty(); ++i) {
    host::LoopbackCluster c;
    RunCluster(c, share, r);
  }
  return r;
}

}  // namespace vsr::perfbench
