// E14 — the host seam (DESIGN.md §12) made measurable: the same protocol
// stack every deterministic experiment runs, executed on real threads, TCP
// loopback sockets, and wall-clock timers.
//
// The paper's performance arguments (§3.7: calls run at the primary;
// commits need one force round, stable storage off the critical path) are
// regenerated in virtual time by E1/E2. E14 checks that nothing about them
// depended on the simulator: a 3-replica bank group plus a single-member
// client coordinator commits real distributed transactions end-to-end, and
// we report wall-clock latency percentiles and throughput.
//
// Latency is timed per transaction, from submission at the client primary
// to its outcome callback on that node's loop thread. The primary is found
// once and looked up again only after a transaction fails, so the timed
// path holds the transaction and nothing of the harness's own polling.
//
// Unlike E1..E13 this bench is nondeterministic (kernel scheduling, TCP
// timing); the JSON records measurements, not claims to diff against.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "host/loopback.h"
#include "workload/bank.h"

namespace vsr {
namespace {

using Clock = std::chrono::steady_clock;

double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(p * (v.size() - 1))];
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

// Transactions submitted from this thread and finished on a loop thread:
// outcomes and latencies, and a window of how many may be in flight.
class Inflight {
 public:
  // Blocks while `window` transactions are in flight, then submits one.
  void Submit(host::LoopbackCluster& cluster, std::size_t idx,
              core::TxnBody body, int window) {
    std::unique_lock<std::mutex> lock(s_->mu);
    s_->cv.wait(lock, [&] { return s_->in_flight < window; });
    ++s_->in_flight;
    lock.unlock();
    const Clock::time_point t0 = Clock::now();
    cluster.SpawnTransactionOn(
        idx, std::move(body), [s = s_, t0](core::TxnOutcome o) {
          const double us = Micros(Clock::now() - t0);
          std::lock_guard<std::mutex> lock(s->mu);
          --s->in_flight;
          s->last = o;
          if (o == core::TxnOutcome::kCommitted) s->latencies_us.push_back(us);
          s->cv.notify_all();
        });
  }

  // Waits until nothing is in flight; false if that took over `limit`.
  bool Drain(Clock::duration limit = std::chrono::seconds(30)) {
    std::unique_lock<std::mutex> lock(s_->mu);
    return s_->cv.wait_for(lock, limit, [&] { return s_->in_flight == 0; });
  }

  // Outcome of the most recent transaction to finish.
  std::optional<core::TxnOutcome> last() const {
    std::lock_guard<std::mutex> lock(s_->mu);
    return s_->last;
  }
  // Latencies of the committed transactions, in completion order.
  std::vector<double> latencies_us() const {
    std::lock_guard<std::mutex> lock(s_->mu);
    return s_->latencies_us;
  }

 private:
  // Shared with the callbacks, which may outlive a timed-out Drain.
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    int in_flight = 0;
    std::optional<core::TxnOutcome> last;
    std::vector<double> latencies_us;
  };
  std::shared_ptr<State> s_ = std::make_shared<State>();
};

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E14: wall-clock latency/throughput on the real host (DESIGN.md §12)",
      "the untouched protocol stack commits real transactions over TCP "
      "loopback; remote calls and commit forces behave as in §3.7 without "
      "the simulator underneath");

  const int kAccounts = 8;
  const int kSeqTxns = bench::Scaled(1000);
  const int kPipeTxns = bench::Scaled(2000);
  const int kWindows[] = {1, 4, 16, 64};

  host::LoopbackCluster cluster;
  const vr::GroupId bank = cluster.AddGroup("bank", 3);
  const vr::GroupId client = cluster.AddGroup("client", 1);
  for (core::Cohort* c : cluster.Cohorts(bank)) {
    workload::RegisterBankProcs(*c);
  }
  cluster.Start();
  if (!cluster.WaitUntilStable(bank) || !cluster.WaitUntilStable(client)) {
    bench::Row("  failed to form views");
    return 1;
  }
  for (int a = 0; a < kAccounts; ++a) {
    const std::string acct = "a" + std::to_string(a);
    cluster.RunTransaction(
        client, [bank, acct](core::TxnHandle& h) -> host::Task<bool> {
          co_await h.Call(bank, "open", acct + "=1000000");
          co_return true;
        });
  }
  std::optional<std::size_t> primary = cluster.PrimaryIndex(client);
  if (!primary) {
    bench::Row("  no client primary");
    return 1;
  }
  auto deposit = [&](int t) {
    return workload::MakeDepositTxn(bank, "a" + std::to_string(t % kAccounts),
                                    1);
  };

  // -- Phase 1: closed-loop latency (one txn in flight) ------------------
  Inflight seq;
  int committed = 0;
  const auto seq_start = Clock::now();
  for (int t = 0; t < kSeqTxns; ++t) {
    seq.Submit(cluster, *primary, deposit(t), 1);
    const bool done = seq.Drain();
    if (done && seq.last() == core::TxnOutcome::kCommitted) {
      ++committed;
    } else if (auto p = cluster.PrimaryIndex(client)) {
      primary = p;  // failed or timed out: the primary may have moved
    }
  }
  const double seq_s = std::chrono::duration<double>(Clock::now() - seq_start)
                           .count();
  const std::vector<double> lat_us = seq.latencies_us();

  bench::Row("  sequential  | %5d/%d committed | p50 %6.0fus p90 %6.0fus "
             "p99 %6.0fus | %6.0f txn/s",
             committed, kSeqTxns, Pct(lat_us, 0.50), Pct(lat_us, 0.90),
             Pct(lat_us, 0.99), committed / seq_s);
  bench::Metric("seq_committed", committed);
  bench::Metric("seq_p50_us", Pct(lat_us, 0.50));
  bench::Metric("seq_p90_us", Pct(lat_us, 0.90));
  bench::Metric("seq_p99_us", Pct(lat_us, 0.99));
  bench::Metric("seq_txn_per_s", committed / seq_s);

  // -- Phase 2: pipelined throughput, swept over the window --------------
  for (const int window : kWindows) {
    Inflight pipe;
    const auto pipe_start = Clock::now();
    for (int t = 0; t < kPipeTxns; ++t) {
      pipe.Submit(cluster, *primary, deposit(t), window);
    }
    if (!pipe.Drain()) {
      bench::Row("  pipelined   | window %2d | transactions did not finish",
                 window);
      return 1;
    }
    const double pipe_s =
        std::chrono::duration<double>(Clock::now() - pipe_start).count();
    const std::vector<double> pipe_us = pipe.latencies_us();
    const int pipe_committed = static_cast<int>(pipe_us.size());

    bench::Row("  pipelined   | window %2d | %5d/%d committed | p50 %6.0fus "
               "p99 %6.0fus | %6.0f txn/s",
               window, pipe_committed, kPipeTxns, Pct(pipe_us, 0.50),
               Pct(pipe_us, 0.99), pipe_committed / pipe_s);
    const std::string key = "pipe_w" + std::to_string(window) + "_";
    bench::Metric(key + "committed", pipe_committed);
    bench::Metric(key + "p50_us", Pct(pipe_us, 0.50));
    bench::Metric(key + "p99_us", Pct(pipe_us, 0.99));
    bench::Metric(key + "txn_per_s", pipe_committed / pipe_s);
  }

  cluster.Shutdown();
  return 0;
}
