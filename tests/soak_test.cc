// Soak test: long randomized runs over MULTIPLE server groups with
// multi-call transactions, full fault injection, and per-register
// serializability chains. Heavier than stress_test (which tortures one
// group); this exercises cross-group 2PC under chaos.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "check/invariants.h"
#include "check/serial.h"
#include "client/shard_router.h"
#include "tests/test_util.h"
#include "workload/sharded_bank.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

struct SoakParams {
  std::uint64_t seed;
  int rounds;
  double loss;
  bool nested;
};

void PrintTo(const SoakParams& p, std::ostream* os) {
  *os << "seed" << p.seed << "_r" << p.rounds << "_loss" << p.loss
      << (p.nested ? "_nested" : "");
}

class SoakTest : public ::testing::TestWithParam<SoakParams> {};

TEST_P(SoakTest, CrossGroupSerializableUnderChaos) {
  const SoakParams p = GetParam();
  // CHECK_SOAK=1 (scripts/check.sh) runs each world 10x longer; the
  // quiescence check then shows per-transaction state stays flat.
  const char* soak_env = std::getenv("CHECK_SOAK");
  const bool long_run = soak_env != nullptr && soak_env[0] == '1';
  const int rounds = long_run ? 10 * p.rounds : p.rounds;
  ClusterOptions opts;
  opts.seed = p.seed;
  opts.net.loss_probability = p.loss;
  opts.net.duplicate_probability = p.loss;
  opts.cohort.nested_call_retry = p.nested;
  Cluster cluster(opts);
  sim::Rng rng(p.seed * 6151 + 11);

  // Two register groups; each transaction does an RMW on one register in
  // EACH group — a genuine two-participant distributed transaction whose
  // two chains must stay mutually consistent.
  auto ga = cluster.AddGroup("ga", 3);
  auto gb = cluster.AddGroup("gb", 3);
  auto client_g = cluster.AddGroup("client", 3);
  for (auto g : {ga, gb}) {
    cluster.RegisterProc(
        g, "rmw",
        [](core::ProcContext& ctx) -> sim::Task<std::vector<std::uint8_t>> {
          auto prev = co_await ctx.ReadForUpdate("r");
          co_await ctx.Write("r", ctx.ArgsAsString());
          co_return test::Bytes(prev.value_or(""));
        });
  }
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  struct TxnRecord {
    std::string value;
    std::string prev_a, prev_b;
    bool have_a = false, have_b = false;
    bool resolved = false;
    vr::TxnOutcome outcome = vr::TxnOutcome::kUnknown;
  };
  std::vector<std::unique_ptr<TxnRecord>> txns;

  std::map<vr::GroupId, std::vector<core::Cohort*>> groups{
      {ga, cluster.Cohorts(ga)},
      {gb, cluster.Cohorts(gb)},
      {client_g, cluster.Cohorts(client_g)}};
  bool partitioned = false;

  auto safe_to_crash = [&](vr::GroupId g, std::size_t idx) {
    core::Cohort* primary = cluster.AnyPrimary(g);
    if (primary == nullptr) return false;
    std::size_t healthy = 0;
    const auto& cs = groups[g];
    for (std::size_t i = 0; i < cs.size(); ++i) {
      if (i != idx && cs[i]->status() == core::Status::kActive &&
          cs[i]->up_to_date() &&
          cs[i]->cur_viewid() == primary->cur_viewid()) {
        ++healthy;
      }
    }
    return healthy >= vr::MajorityOf(cs.size());
  };

  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t dice = rng.UniformInt(0, 99);
    if (dice < 50) {
      core::Cohort* primary = cluster.AnyPrimary(client_g);
      if (primary != nullptr) {
        auto rec = std::make_unique<TxnRecord>();
        rec->value = "v" + std::to_string(txns.size());
        TxnRecord* raw = rec.get();
        txns.push_back(std::move(rec));
        primary->SpawnTransaction(
            [raw, ga, gb](core::TxnHandle& h) -> sim::Task<bool> {
              auto a = co_await h.Call(ga, "rmw", raw->value);
              raw->prev_a = test::Str(a);
              raw->have_a = true;
              auto b = co_await h.Call(gb, "rmw", raw->value);
              raw->prev_b = test::Str(b);
              raw->have_b = true;
              co_return true;
            },
            [raw](vr::TxnOutcome o) {
              raw->resolved = true;
              raw->outcome = o;
            });
      }
    } else if (dice < 70) {
      // Crash/recover a random cohort of a random group.
      const vr::GroupId g = dice % 3 == 0 ? ga : (dice % 3 == 1 ? gb : client_g);
      const auto& cs = groups[g];
      const std::size_t idx = rng.Index(cs.size());
      if (cs[idx]->status() == core::Status::kCrashed) {
        cs[idx]->Recover();
      } else if (safe_to_crash(g, idx)) {
        cs[idx]->Crash();
      }
    } else if (dice < 80) {
      if (!partitioned) {
        std::vector<net::NodeId> side_a, side_b;
        for (auto& [g, cs] : groups) {
          for (auto* c : cs) {
            (rng.Bernoulli(0.5) ? side_a : side_b).push_back(c->mid());
          }
        }
        if (!side_a.empty() && !side_b.empty()) {
          cluster.network().Partition({side_a, side_b});
          partitioned = true;
        }
      } else {
        cluster.network().Heal();
        partitioned = false;
      }
    } else if (dice < 85) {
      for (auto g : {ga, gb, client_g}) {
        for (const std::string& v : check::CheckInstant(cluster, g)) {
          ADD_FAILURE() << "round " << round << " group " << g << ": " << v;
        }
      }
    }
    cluster.RunFor(rng.UniformInt(5, 60) * sim::kMillisecond);
  }

  // Quiesce.
  cluster.network().Heal();
  for (auto& [g, cs] : groups) {
    for (auto* c : cs) {
      if (c->status() == core::Status::kCrashed) c->Recover();
    }
  }
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(15 * sim::kSecond);

  // Each group's register must form a serial chain over the SAME set of
  // committed transactions (atomic commitment: a transaction is in both
  // chains or neither).
  check::RegisterChainChecker chain_a, chain_b;
  for (const auto& rec : txns) {
    const vr::TxnOutcome o =
        rec->resolved ? rec->outcome : vr::TxnOutcome::kUnknown;
    if (o == vr::TxnOutcome::kCommitted) {
      ASSERT_TRUE(rec->have_a && rec->have_b)
          << "committed txn missing a call result";
      chain_a.NoteCommitted(rec->prev_a, rec->value);
      chain_b.NoteCommitted(rec->prev_b, rec->value);
    } else if (o == vr::TxnOutcome::kUnknown) {
      if (rec->have_a) chain_a.NoteUnknown(rec->prev_a, rec->value);
      if (rec->have_b) chain_b.NoteUnknown(rec->prev_b, rec->value);
    }
  }
  core::Cohort* pa = cluster.AnyPrimary(ga);
  core::Cohort* pb = cluster.AnyPrimary(gb);
  ASSERT_NE(pa, nullptr);
  ASSERT_NE(pb, nullptr);
  std::string why;
  EXPECT_TRUE(chain_a.Validate(
      "", pa->objects().ReadCommitted("r").value_or(""), &why))
      << "group A: " << why;
  EXPECT_TRUE(chain_b.Validate(
      "", pb->objects().ReadCommitted("r").value_or(""), &why))
      << "group B: " << why;

  for (auto g : {ga, gb, client_g}) {
    for (const std::string& v : check::CheckQuiescent(cluster, g)) {
      ADD_FAILURE() << v;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Worlds, SoakTest,
    ::testing::Values(SoakParams{101, 1500, 0.00, false},
                      SoakParams{102, 1500, 0.03, false},
                      SoakParams{103, 1500, 0.03, true},
                      SoakParams{104, 2000, 0.06, true},
                      SoakParams{105, 2000, 0.08, false},
                      SoakParams{106, 2500, 0.05, true}));

// DESIGN.md §9 GC-bound soak: one backup crashes permanently while the
// surviving pair keeps committing. Without the StableTs() - window GC floor
// the dead backup's stale ack would pin every record since the crash
// (memory O(lag)); with it the primary's resident record vector must stay
// O(window) for the whole run. CHECK_SOAK=1 (scripts/check.sh) multiplies
// the rounds ~10x; the default stays short enough for tier-1 ctest.
TEST(DeadBackupSoak, ResidentRecordsStayWithinWindow) {
  const char* soak_env = std::getenv("CHECK_SOAK");
  const bool long_run = soak_env != nullptr && soak_env[0] == '1';
  const int rounds = long_run ? 400 : 40;

  core::CohortOptions copts;
  // Losing a backup must not trigger an election mid-measurement.
  copts.liveness_timeout = 60 * sim::kSecond;
  // Small window so even the short run commits many windows' worth of work.
  copts.buffer.window = 8;
  copts.snapshot.chunk_size = 256;
  copts.snapshot.window = 4;

  Cluster cluster(ClusterOptions{.seed = 107});
  auto kv = cluster.AddGroup("kv", 3, &copts);
  auto client_g = cluster.AddGroup("client", 1);
  test::RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  auto cohorts = cluster.Cohorts(kv);
  std::size_t pi = cohorts.size();
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) pi = i;
  }
  ASSERT_LT(pi, cohorts.size());
  core::Cohort& primary = *cohorts[pi];
  core::Cohort& dead = *cohorts[(pi + 1) % cohorts.size()];
  dead.Crash();

  // window of unacked records + one flush batch still being assembled.
  const std::size_t bound = copts.buffer.window + copts.buffer.max_batch;
  std::size_t max_resident = 0;
  for (int i = 0; i < rounds; ++i) {
    ASSERT_EQ(test::RunOneCallWithRetry(
                  cluster, client_g, kv, "put",
                  "k" + std::to_string(i) + "=v" + std::to_string(i)),
              vr::TxnOutcome::kCommitted)
        << "round " << i;
    max_resident = std::max(max_resident, primary.buffer().records().size());
    if (i % 10 == 9) {
      cluster.RunFor(50 * sim::kMillisecond);
      for (const std::string& v : check::CheckInstant(cluster, kv)) {
        ADD_FAILURE() << "round " << i << ": " << v;
      }
    }
  }
  EXPECT_LE(max_resident, bound)
      << "dead backup pinned the communication buffer";
  EXPECT_GT(primary.buffer().stats().records_gced, 0u);
  EXPECT_EQ(test::CommittedValue(cluster, kv,
                                 "k" + std::to_string(rounds - 1)),
            "v" + std::to_string(rounds - 1));

  // The crashed cohort rejoins and converges on the full history even
  // though the records it missed were long since garbage-collected.
  dead.Recover();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * sim::kSecond);
  // The recovered cohort must hold history it never received through the
  // record stream — those records were garbage-collected long ago.
  for (int i : {0, rounds / 2, rounds - 1}) {
    EXPECT_EQ(
        dead.objects().ReadCommitted("k" + std::to_string(i)).value_or(""),
        "v" + std::to_string(i))
        << "k" << i;
  }
  EXPECT_EQ(test::RunOneCallWithRetry(cluster, client_g, kv, "put",
                                      "post=recovery"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

// DESIGN.md §13 crash soak: the fused commit path reports kCommitted at
// committing-buffer time and overlaps the decision force with the commit
// fan-out — so a coordinator-primary crash can land in every window the
// serial ladder never exposed (decision buffered but not yet replicated,
// replicated but no commit sent, fan-out half delivered). This soak
// repeatedly crashes coordinator and shard primaries mid-stream on a
// duplicating, lossy network and then demands EXACT conservation: every
// transfer moved money atomically, exactly once or not at all. A third of
// the transfers stay inside one shard, so lone-participant fused decisions
// face the same crashes. CHECK_SOAK=1 multiplies the rounds ~10x.
TEST(CommitFusionCrashSoak, ExactConservationAcrossCoordinatorCrashes) {
  const char* soak_env = std::getenv("CHECK_SOAK");
  const bool long_run = soak_env != nullptr && soak_env[0] == '1';
  const int rounds = long_run ? 800 : 80;

  ClusterOptions opts;
  opts.seed = 108;
  opts.net.loss_probability = 0.02;
  opts.net.duplicate_probability = 0.3;
  int same_shard_committed = 0;
  Cluster cluster(opts);
  auto bank = workload::SetupShardedBank(cluster, 2, 3, 10);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(workload::FundShardedAccounts(cluster, bank, 50), 10);

  sim::Rng rng(opts.seed * 7919 + 3);
  client::ShardRouter router(cluster.directory());
  std::map<vr::GroupId, std::vector<core::Cohort*>> groups;
  for (auto g : bank.shards) groups[g] = cluster.Cohorts(g);
  groups[bank.client_group] = cluster.Cohorts(bank.client_group);

  auto safe_to_crash = [&](vr::GroupId g, core::Cohort* victim) {
    core::Cohort* primary = cluster.AnyPrimary(g);
    if (primary == nullptr) return false;
    std::size_t healthy = 0;
    for (auto* c : groups[g]) {
      if (c != victim && c->status() == core::Status::kActive &&
          c->up_to_date() && c->cur_viewid() == primary->cur_viewid()) {
        ++healthy;
      }
    }
    return healthy >= vr::MajorityOf(groups[g].size());
  };

  int spawned = 0;
  for (int round = 0; round < rounds; ++round) {
    const std::uint64_t dice = rng.UniformInt(0, 99);
    if (dice < 60) {
      core::Cohort* coord = cluster.AnyPrimary(bank.client_group);
      if (coord != nullptr) {
        int from = static_cast<int>(rng.Index(5));
        int to = 5 + static_cast<int>(rng.Index(5));
        const bool same_shard = dice < 20;
        if (same_shard) {
          const int shard_base = dice < 10 ? 0 : 5;
          to = shard_base + (from + 1 + static_cast<int>(rng.Index(4))) % 5;
          from += shard_base;
        }
        coord->SpawnTransaction(
            workload::MakeShardedTransferTxn(
                router, workload::ShardAccountName(from),
                workload::ShardAccountName(to), 1),
            [&same_shard_committed, same_shard](vr::TxnOutcome o) {
              if (same_shard && o == vr::TxnOutcome::kCommitted) {
                ++same_shard_committed;
              }
            });
        ++spawned;
      }
    } else if (dice < 78) {
      // Crash the coordinator primary by preference — that is the node
      // whose loss tests the fused decision's durability story — else
      // recover whoever is down.
      const vr::GroupId g = dice < 72 ? bank.client_group
                                      : bank.shards[dice % bank.shards.size()];
      core::Cohort* primary = cluster.AnyPrimary(g);
      if (primary != nullptr && safe_to_crash(g, primary)) {
        primary->Crash();
      } else {
        for (auto* c : groups[g]) {
          if (c->status() == core::Status::kCrashed) {
            c->Recover();
            break;
          }
        }
      }
    } else if (dice < 85) {
      for (auto* c : groups[bank.client_group]) {
        if (c->status() == core::Status::kCrashed) {
          c->Recover();
          break;
        }
      }
    }
    cluster.RunFor(rng.UniformInt(5, 60) * sim::kMillisecond);
  }

  // Quiesce: recover everyone, let janitors resolve every in-doubt txn.
  for (auto& [g, cs] : groups) {
    for (auto* c : cs) {
      if (c->status() == core::Status::kCrashed) c->Recover();
    }
  }
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(20 * sim::kSecond);

  ASSERT_GT(spawned, 0);
  std::vector<std::string> accounts;
  for (int i = 0; i < 10; ++i) {
    accounts.push_back(workload::ShardAccountName(i));
  }
  for (const std::string& v :
       check::CheckConservation(cluster, accounts, 500)) {
    ADD_FAILURE() << v;
  }
  for (auto& [g, cs] : groups) {
    for (const std::string& v : check::CheckQuiescent(cluster, g)) {
      ADD_FAILURE() << v;
    }
  }
  // The soak must actually exercise the fused path, lone participants too.
  std::uint64_t fused = 0;
  for (auto* c : groups[bank.client_group]) fused += c->stats().fused_commits;
  EXPECT_GT(fused, 0u);
  EXPECT_GT(same_shard_committed, 0);
}

}  // namespace
}  // namespace vsr
