// E2 — §3.7: "For both preparing and committing, our method will be faster
// than using non-replicated clients and servers if communication is faster
// than writing to stable storage, which is often the case provided that the
// number of backups is small."  Also: "We expect that prepare messages are
// usually processed entirely at the primary because the needed
// 'completed-call' event records ... will already be stored at a
// sub-majority of cohorts."
//
// Measured: the client-visible commit-decision latency of a VR transaction
// (prepare round + committing record; on the default fused path the
// record's force runs behind the reply, DESIGN.md §13) versus the
// equivalent non-replicated transaction, as the stable-storage force
// latency sweeps from paper-era disk (10ms) down to NVRAM (10us), and the
// fraction of forces satisfied with no waiting.
#include "baseline/nonreplicated.h"
#include "baseline/nonreplicated_viewstamped.h"
#include "bench/bench_common.h"
#include "client/shard_router.h"
#include "workload/bank.h"
#include "workload/sharded_bank.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

double VrDecisionLatency(std::size_t replicas, sim::Duration think_time,
                         std::uint64_t* immediate_pct) {
  ClusterOptions opts;
  opts.seed = 2000 + replicas + think_time;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", replicas);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  if (!cluster.RunUntilStable()) return -1;
  auto phases =
      bench::MeasureTxnPhases(cluster, client_g, server, 150, think_time);
  if (immediate_pct != nullptr) {
    std::uint64_t forces = 0, immediate = 0;
    for (auto* c : cluster.Cohorts(server)) {
      forces += c->buffer().stats().forces;
      immediate += c->buffer().stats().forces_immediate;
    }
    for (auto* c : cluster.Cohorts(client_g)) {
      forces += c->buffer().stats().forces;
      immediate += c->buffer().stats().forces_immediate;
    }
    *immediate_pct = forces == 0 ? 0 : 100 * immediate / forces;
  }
  return phases.decision.Mean();
}

// §5's own proposal: viewstamped non-replicated server (write-behind log,
// prepare forces only the unwritten suffix).
double ViewstampedStableDecisionLatency(sim::Duration force_latency,
                                        sim::Duration think,
                                        std::uint64_t* immediate_pct) {
  sim::Simulation simulation(2998);
  net::Network network(simulation, {});
  storage::StableStoreOptions sopts;
  sopts.force_latency = force_latency;
  storage::StableStore stable(simulation, sopts);
  baseline::ViewstampedStableServer server(simulation, network, 50, stable);
  baseline::StableClient client(simulation, network, 51, 50);
  workload::LatencyRecorder decision;
  for (int i = 0; i < 150; ++i) {
    bool done = false;
    client.RunTxn(
        1,
        [&](baseline::StableClient::TxnTiming t) {
          done = true;
          if (t.ok) decision.Add(t.prepare_latency + t.commit_latency);
        },
        think);  // user computation before prepare: the log drains behind it
    simulation.scheduler().RunToQuiescence();
    if (!done) break;
  }
  if (immediate_pct != nullptr) {
    const auto& s = server.stats();
    const std::uint64_t total = s.prepares_immediate + s.prepares_waited;
    *immediate_pct = total == 0 ? 0 : 100 * s.prepares_immediate / total;
  }
  return decision.Mean();
}

// Windowed-replication efficiency in a 5-cohort steady state: how many
// record transmissions the backups cost per committed transaction, and how
// many of those were retransmissions (deadline expiry or gap fill) rather
// than first sends.
void ReplicationEfficiency(std::size_t replicas) {
  ClusterOptions opts;
  opts.seed = 2100 + replicas;
  Cluster cluster(opts);
  auto server = cluster.AddGroup("kv", replicas);
  auto client_g = cluster.AddGroup("client", 3);
  test::RegisterKvProcs(cluster, server);
  cluster.Start();
  if (!cluster.RunUntilStable()) return;
  std::uint64_t committed = 0;
  for (int i = 0; i < 200; ++i) {
    if (test::RunOneCall(cluster, client_g, server, "add", "x=1") ==
        vr::TxnOutcome::kCommitted) {
      ++committed;
    }
  }
  cluster.RunFor(1 * sim::kSecond);
  vr::CommBuffer::Stats agg;
  std::uint64_t commits_applied = 0;
  for (auto* c : cluster.Cohorts(server)) {
    const auto& s = c->buffer().stats();
    agg.records_sent += s.records_sent;
    agg.records_retransmitted += s.records_retransmitted;
    agg.retransmit_timeouts += s.retransmit_timeouts;
    agg.gap_requests += s.gap_requests;
    agg.window_stalls += s.window_stalls;
    agg.records_gced += s.records_gced;
    agg.buffer_high_water = std::max(agg.buffer_high_water, s.buffer_high_water);
    commits_applied += c->stats().commits_applied;
  }
  if (committed == 0) return;
  bench::Row("    committed txns             : %8llu (%llu applied server-side)",
             static_cast<unsigned long long>(committed),
             static_cast<unsigned long long>(commits_applied));
  bench::Row("    records sent to backups    : %8llu (%.2f per committed txn)",
             static_cast<unsigned long long>(agg.records_sent),
             static_cast<double>(agg.records_sent) / committed);
  bench::Row("    records retransmitted      : %8llu (%.2f per committed txn)",
             static_cast<unsigned long long>(agg.records_retransmitted),
             static_cast<double>(agg.records_retransmitted) / committed);
  bench::Row("    retransmit deadline expiry : %8llu", static_cast<unsigned long long>(agg.retransmit_timeouts));
  bench::Row("    gap requests honored       : %8llu", static_cast<unsigned long long>(agg.gap_requests));
  bench::Row("    window stalls              : %8llu", static_cast<unsigned long long>(agg.window_stalls));
  bench::Row("    records GC'd below watermark %7llu (buffer high-water %llu)",
             static_cast<unsigned long long>(agg.records_gced),
             static_cast<unsigned long long>(agg.buffer_high_water));
}

// Commit-fusion ablation (DESIGN.md §13): identical cross-shard transfer
// workloads with commit_fusion on and off. The fused path reports the
// decision at committing-buffer time and overlaps the decision force with
// the commit fan-out, so the client-visible path contains one fewer force
// and one fewer sequential round; total message count stays ~equal (the
// same frames are sent, just off the latency path).
struct FusionResult {
  double decision_us = -1;
  double frames_per_commit = 0;
  double client_path_forces_per_commit = 0;
  std::uint64_t committed = 0;
};

FusionResult FusionAblation(bool fusion) {
  FusionResult out;
  ClusterOptions opts;
  opts.seed = 2200;  // identical worlds; only the fusion flag differs
  opts.cohort.commit_fusion = fusion;
  Cluster cluster(opts);
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 12);
  cluster.Start();
  if (!cluster.RunUntilStable()) return out;
  if (workload::FundShardedAccounts(cluster, bank, 1000) != 12) return out;
  cluster.RunFor(1 * sim::kSecond);

  // Snapshot after funding so the single-shard funding txns don't pollute
  // the per-commit arithmetic.
  const std::uint64_t frames_before = cluster.network().stats().frames_sent;
  std::uint64_t coord_committed_before = 0, fused_before = 0;
  for (auto* c : cluster.Cohorts(bank.client_group)) {
    coord_committed_before += c->stats().txns_committed;
    fused_before += c->stats().fused_commits;
  }

  client::ShardRouter router(cluster.directory());
  sim::Rng rng(5);
  const int txns = bench::Scaled(150);
  workload::LatencyRecorder decision;
  for (int i = 0; i < txns; ++i) {
    core::Cohort* coord = cluster.AnyPrimary(bank.client_group);
    if (coord == nullptr) break;
    const int from = static_cast<int>(rng.Index(6));
    const int to = 6 + static_cast<int>(rng.Index(6));
    bool done = false;
    const sim::Time start = cluster.sim().Now();
    coord->SpawnTransaction(
        workload::MakeShardedTransferTxn(
            router, workload::ShardAccountName(from),
            workload::ShardAccountName(to), 1),
        [&](vr::TxnOutcome o) {
          done = true;
          if (o == vr::TxnOutcome::kCommitted) {
            ++out.committed;
            decision.Add(cluster.sim().Now() - start);
          }
        });
    const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
    while (!done && cluster.sim().Now() < deadline) {
      cluster.RunFor(1 * sim::kMillisecond);
    }
  }
  cluster.RunFor(2 * sim::kSecond);  // let background fan-outs finish

  if (out.committed == 0) return out;
  out.decision_us = decision.Mean();
  out.frames_per_commit =
      static_cast<double>(cluster.network().stats().frames_sent -
                          frames_before) /
      static_cast<double>(out.committed);
  std::uint64_t coord_committed = 0, fused = 0;
  for (auto* c : cluster.Cohorts(bank.client_group)) {
    coord_committed += c->stats().txns_committed;
    fused += c->stats().fused_commits;
  }
  // A commit whose decision was NOT fused awaited the committing-record
  // force inside the client-visible path.
  out.client_path_forces_per_commit =
      static_cast<double>((coord_committed - coord_committed_before) -
                          (fused - fused_before)) /
      static_cast<double>(out.committed);
  return out;
}

// One-round commit (DESIGN.md §13.6): identical single-group deposit
// worlds, the deposit made as the body's final call (the bank decides it:
// call, batch, ack, reply) or as a plain call (fused 2PC: call, reply,
// prepare, batch, ack, prepared, then the commit fan-out behind the reply).
struct LoneResult {
  double decision_us = -1;
  double frames_per_commit = 0;
  std::uint64_t committed = 0;
};

std::uint64_t FramesExceptPings(Cluster& cluster) {
  std::uint64_t frames = 0;
  for (const auto& [type, n] : cluster.network().stats().sent_by_type) {
    if (type != static_cast<std::uint16_t>(vr::MsgType::kPing)) frames += n;
  }
  return frames;
}

LoneResult LoneParticipant(bool one_round) {
  LoneResult out;
  ClusterOptions opts;
  opts.seed = 2300;  // identical worlds; only the body's call differs
  Cluster cluster(opts);
  const auto bank = cluster.AddGroup("bank", 3);
  const auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterBankProcs(cluster, bank);
  cluster.Start();
  if (!cluster.RunUntilStable()) return out;
  if (test::RunOneCall(cluster, client_g, bank, "open", "a0=0") !=
      vr::TxnOutcome::kCommitted) {
    return out;
  }
  cluster.RunFor(1 * sim::kSecond);

  // Pings are the failure detector's, not the commit's.
  const std::uint64_t frames_before = FramesExceptPings(cluster);
  workload::LatencyRecorder decision;
  const int txns = bench::Scaled(150);
  for (int i = 0; i < txns; ++i) {
    core::Cohort* coord = cluster.AnyPrimary(client_g);
    if (coord == nullptr) break;
    core::TxnBody body =
        one_round ? workload::MakeDepositTxn(bank, "a0", 1)
                  : [bank](core::TxnHandle& h) -> host::Task<bool> {
                      co_await h.Call(bank, "deposit", std::string("a0=1"));
                      co_return true;
                    };
    bool done = false;
    const sim::Time start = cluster.sim().Now();
    coord->SpawnTransaction(std::move(body), [&](vr::TxnOutcome o) {
      done = true;
      if (o == vr::TxnOutcome::kCommitted) {
        ++out.committed;
        decision.Add(cluster.sim().Now() - start);
      }
    });
    const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
    while (!done && cluster.sim().Now() < deadline) {
      cluster.RunFor(1 * sim::kMillisecond);
    }
  }
  cluster.RunFor(2 * sim::kSecond);  // let background fan-outs finish
  if (out.committed == 0) return out;
  out.decision_us = decision.Mean();
  out.frames_per_commit =
      static_cast<double>(FramesExceptPings(cluster) - frames_before) /
      static_cast<double>(out.committed);
  return out;
}

double StableDecisionLatency(sim::Duration force_latency) {
  sim::Simulation simulation(2999);
  net::Network network(simulation, {});
  storage::StableStoreOptions sopts;
  sopts.force_latency = force_latency;
  storage::StableStore stable(simulation, sopts);
  baseline::StableServer server(simulation, network, 50, stable);
  baseline::StableClient client(simulation, network, 51, 50);
  workload::LatencyRecorder decision;
  for (int i = 0; i < 150; ++i) {
    bool done = false;
    client.RunTxn(1, [&](baseline::StableClient::TxnTiming t) {
      done = true;
      if (t.ok) decision.Add(t.prepare_latency + t.commit_latency);
    });
    simulation.scheduler().RunToQuiescence();
    if (!done) break;
  }
  return decision.Mean();
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E2: prepare+commit latency — force-to-backups vs stable storage (§3.7)",
      "VR beats a conventional system whenever communication is faster than "
      "a stable-storage write; prepares usually wait on nothing");

  std::uint64_t immediate = 0;
  const double vr3 = VrDecisionLatency(3, 0, &immediate);
  std::uint64_t immediate_think = 0;
  const double vr3_think =
      VrDecisionLatency(3, 5 * sim::kMillisecond, &immediate_think);
  const double vr5 = VrDecisionLatency(5, 0, nullptr);
  const double vr7 = VrDecisionLatency(7, 0, nullptr);
  bench::Row("  VR (n=3)  decision latency: %8.0fus   (forces immediate: %llu%%)",
             vr3, static_cast<unsigned long long>(immediate));
  bench::Row("  VR (n=3, 5ms think time) :  %8.0fus   (forces immediate: %llu%%)",
             vr3_think, static_cast<unsigned long long>(immediate_think));
  bench::Row("  VR (n=5)  decision latency: %8.0fus", vr5);
  bench::Row("  VR (n=7)  decision latency: %8.0fus", vr7);

  bench::Row("\n  Windowed replication efficiency (n=5 steady state):");
  ReplicationEfficiency(5);

  bench::Row("\n  Non-replicated decision latency vs stable-storage force time:");
  struct SweepPoint {
    const char* label;
    sim::Duration force;
  };
  const SweepPoint sweep[] = {
      {"1988 disk        (25ms)", 25 * sim::kMillisecond},
      {"disk             (10ms)", 10 * sim::kMillisecond},
      {"fast disk         (3ms)", 3 * sim::kMillisecond},
      {"battery RAM     (300us)", 300 * sim::kMicrosecond},
      {"SSD             (100us)", 100 * sim::kMicrosecond},
      {"NVRAM            (10us)", 10 * sim::kMicrosecond},
  };
  for (const auto& p : sweep) {
    const double lat = StableDecisionLatency(p.force);
    const char* winner = lat > vr3 ? "VR wins" : "stable storage wins";
    bench::Row("    %-26s : %8.0fus   -> %s (vs VR n=3 %0.0fus)", p.label,
               lat, winner, vr3);
  }

  bench::Row("\n  The paper's §5 proposal for NON-replicated systems — write call");
  bench::Row("  records to stable storage in background, force only at prepare:");
  {
    std::uint64_t imm = 0;
    const double vs_disk = ViewstampedStableDecisionLatency(
        10 * sim::kMillisecond, 20 * sim::kMillisecond, &imm);
    const double plain_disk = StableDecisionLatency(10 * sim::kMillisecond);
    bench::Row("    disk (10ms), viewstamped : %8.0fus (prepares immediate: %llu%%)",
               vs_disk, static_cast<unsigned long long>(imm));
    bench::Row("    disk (10ms), conventional: %8.0fus  ->  %.1fx faster at",
               plain_disk, vs_disk > 0 ? plain_disk / vs_disk : 0.0);
    bench::Row("    prepare+commit, exactly the paper's 'faster at prepare time'");
  }

  bench::Row("\n  Commit fusion ablation (DESIGN.md §13) — cross-shard transfers,");
  bench::Row("  2 shards x 3 replicas, identical worlds, fused vs serial 2PC:");
  {
    const FusionResult fused = FusionAblation(true);
    const FusionResult serial = FusionAblation(false);
    bench::Row("    fused  : decision %8.0fus  %.1f frames/commit  %.2f client-path forces/commit (%llu txns)",
               fused.decision_us, fused.frames_per_commit,
               fused.client_path_forces_per_commit,
               static_cast<unsigned long long>(fused.committed));
    bench::Row("    serial : decision %8.0fus  %.1f frames/commit  %.2f client-path forces/commit (%llu txns)",
               serial.decision_us, serial.frames_per_commit,
               serial.client_path_forces_per_commit,
               static_cast<unsigned long long>(serial.committed));
    if (fused.decision_us > 0 && serial.decision_us > 0) {
      bench::Row("    -> fusion removes %.0fus (%.1f%%) from the client-visible",
                 serial.decision_us - fused.decision_us,
                 100.0 * (serial.decision_us - fused.decision_us) /
                     serial.decision_us);
      bench::Row("    decision path: the committing force and the commit fan-out");
      bench::Row("    ride behind the reply instead of ahead of it.");
    }
    bench::Metric("fused_decision_us", fused.decision_us);
    bench::Metric("serial_decision_us", serial.decision_us);
    bench::Metric("fused_frames_per_commit", fused.frames_per_commit);
    bench::Metric("serial_frames_per_commit", serial.frames_per_commit);
    bench::Metric("fused_client_path_forces_per_commit",
                  fused.client_path_forces_per_commit);
    bench::Metric("serial_client_path_forces_per_commit",
                  serial.client_path_forces_per_commit);
    bench::Metric("fusion_committed", static_cast<double>(fused.committed));
    bench::Metric("serial_committed", static_cast<double>(serial.committed));
  }

  bench::Row("\n  One-round commit (DESIGN.md §13.6) — single-group deposits, 3-replica");
  bench::Row("  bank, 3-replica client group, final call vs plain call (fused 2PC):");
  {
    const LoneResult one_round = LoneParticipant(true);
    const LoneResult two_pc = LoneParticipant(false);
    bench::Row("    one-round: decision %8.0fus  %.1f frames/commit (%llu txns)",
               one_round.decision_us, one_round.frames_per_commit,
               static_cast<unsigned long long>(one_round.committed));
    bench::Row("    2PC      : decision %8.0fus  %.1f frames/commit (%llu txns)",
               two_pc.decision_us, two_pc.frames_per_commit,
               static_cast<unsigned long long>(two_pc.committed));
    bench::Metric("lone_one_round_decision_us", one_round.decision_us);
    bench::Metric("lone_2pc_decision_us", two_pc.decision_us);
    bench::Metric("lone_one_round_frames_per_commit",
                  one_round.frames_per_commit);
    bench::Metric("lone_2pc_frames_per_commit", two_pc.frames_per_commit);
  }

  bench::Row("\n  Expect: VR's decision latency is a couple of network round");
  bench::Row("  trips; the conventional system pays 2 forced writes. On the");
  bench::Row("  paper's serial ladder (commit_fusion = false) the crossover");
  bench::Row("  falls where a force ~= a round trip (sub-ms); the default");
  bench::Row("  fused path takes the committing force off the client path.");
  bench::Row("  Note: each transaction issues ~3 forces (participant prepare,");
  bench::Row("  coordinator committing, participant committed). Only the");
  bench::Row("  prepare force can be pre-satisfied by background flushing —");
  bench::Row("  33%% immediate with think time means ~all prepare forces");
  bench::Row("  waited on nothing, exactly the paper's claim.");
  return 0;
}
