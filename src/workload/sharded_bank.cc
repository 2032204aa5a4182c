#include "sim/task.h"
#include "workload/sharded_bank.h"

#include <cstdio>
#include <cstring>

#include "workload/driver.h"

namespace vsr::workload {
namespace {

std::vector<std::uint8_t> Bytes(const std::string& s) {
  return {s.begin(), s.end()};
}

std::pair<std::string, long long> SplitAmount(const std::string& args) {
  auto eq = args.find('=');
  if (eq == std::string::npos) throw core::TxnError("bad args: " + args);
  return {args.substr(0, eq), std::stoll(args.substr(eq + 1))};
}

// The ownership gate (DESIGN.md §11.2). A group serves a key only while the
// directory says it owns the key's range and the range is not in its
// handoff window; in kMigrating the OLD owner still serves (that is what
// keeps the move live), in kHandoff nobody does — clients retry across the
// window. The rejection names the placement epoch so a client can tell a
// stale-cache refusal from a real failure.
void CheckOwnership(const core::Directory& dir, core::ProcContext& ctx,
                    const std::string& key) {
  const core::ShardRange* r = dir.Route(key);
  if (r == nullptr || r->owner != ctx.group() ||
      r->state == core::ShardState::kHandoff) {
    throw core::TxnError("wrong-shard: " + key + " @epoch " +
                         std::to_string(dir.placement_epoch()));
  }
}

}  // namespace

std::string ShardAccountName(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "a%03d", i);
  return buf;
}

bool IsWrongShardError(const char* what) {
  return what != nullptr && std::strstr(what, "wrong-shard") != nullptr;
}

void RegisterShardedBankProcs(client::Cluster& cluster, vr::GroupId group) {
  core::Directory& dir = cluster.directory();
  cluster.RegisterProc(
      group, "open",
      [&dir](core::ProcContext& ctx) -> sim::Task<std::vector<std::uint8_t>> {
        auto [acct, amount] = SplitAmount(ctx.ArgsAsString());
        CheckOwnership(dir, ctx, acct);
        co_await ctx.Write(acct, std::to_string(amount));
        co_return Bytes("ok");
      });
  cluster.RegisterProc(
      group, "deposit",
      [&dir](core::ProcContext& ctx) -> sim::Task<std::vector<std::uint8_t>> {
        auto [acct, amount] = SplitAmount(ctx.ArgsAsString());
        CheckOwnership(dir, ctx, acct);
        auto v = co_await ctx.ReadForUpdate(acct);
        const long long cur = v && !v->empty() ? std::stoll(*v) : 0;
        co_await ctx.Write(acct, std::to_string(cur + amount));
        co_return Bytes(std::to_string(cur + amount));
      });
  cluster.RegisterProc(
      group, "withdraw",
      [&dir](core::ProcContext& ctx) -> sim::Task<std::vector<std::uint8_t>> {
        auto [acct, amount] = SplitAmount(ctx.ArgsAsString());
        CheckOwnership(dir, ctx, acct);
        auto v = co_await ctx.ReadForUpdate(acct);
        const long long cur = v && !v->empty() ? std::stoll(*v) : 0;
        if (cur < amount) {
          throw core::TxnError("insufficient funds in " + acct);
        }
        co_await ctx.Write(acct, std::to_string(cur - amount));
        co_return Bytes(std::to_string(cur - amount));
      });
  cluster.RegisterProc(
      group, "balance",
      [&dir](core::ProcContext& ctx) -> sim::Task<std::vector<std::uint8_t>> {
        const std::string acct = ctx.ArgsAsString();
        CheckOwnership(dir, ctx, acct);
        auto v = co_await ctx.Read(acct);
        co_return Bytes(v.value_or("0"));
      });
}

ShardedBank SetupShardedBank(client::Cluster& cluster, std::size_t num_shards,
                             std::size_t replicas_per_group,
                             int num_accounts) {
  ShardedBank bank;
  bank.num_accounts = num_accounts;
  for (std::size_t s = 0; s < num_shards; ++s) {
    const vr::GroupId g =
        cluster.AddGroup("shard" + std::to_string(s), replicas_per_group);
    RegisterShardedBankProcs(cluster, g);
    bank.shards.push_back(g);
  }
  bank.client_group = cluster.AddGroup("client", replicas_per_group);
  // Even contiguous tiling: shard s owns accounts [s*N/S, (s+1)*N/S), with
  // the first range anchored at "" and the last unbounded so the table
  // covers the whole key space.
  for (std::size_t s = 0; s < num_shards; ++s) {
    const std::string lo =
        s == 0 ? ""
               : ShardAccountName(static_cast<int>(s * num_accounts /
                                                   num_shards));
    const std::string hi =
        s + 1 == num_shards
            ? ""
            : ShardAccountName(
                  static_cast<int>((s + 1) * num_accounts / num_shards));
    cluster.directory().AssignRange(lo, hi, bank.shards[s]);
  }
  return bank;
}

int FundShardedAccounts(client::Cluster& cluster, const ShardedBank& bank,
                        long long initial) {
  const core::Directory& dir = cluster.directory();
  DriverOptions opts;
  opts.total_txns = bank.num_accounts;
  opts.max_inflight = 8;
  opts.retries_per_txn = 20;
  ClosedLoopDriver driver(
      cluster, bank.client_group,
      [&dir, initial](std::uint64_t i) -> core::TxnBody {
        return [&dir, acct = ShardAccountName(static_cast<int>(i)),
                initial](core::TxnHandle& h) -> sim::Task<bool> {
          const core::ShardRange* r = dir.Route(acct);
          if (r == nullptr) throw core::TxnError("unplaced: " + acct);
          co_await h.Call(r->owner, "open",
                          acct + "=" + std::to_string(initial));
          co_return true;
        };
      },
      opts);
  driver.Run();
  return static_cast<int>(driver.accounting().committed);
}

core::TxnBody MakeShardedTransferTxn(client::ShardRouter& router,
                                     std::string from_acct,
                                     std::string to_acct, long long amt) {
  return [&router, from = std::move(from_acct), to = std::move(to_acct),
          amt](core::TxnHandle& h) -> sim::Task<bool> {
    const vr::GroupId gf = router.Route(from);
    const vr::GroupId gt = router.Route(to);
    if (gf == 0 || gt == 0) {
      router.NoteWrongShard();
      throw core::TxnError("wrong-shard: unrouted " + (gf == 0 ? from : to));
    }
    try {
      // Touch the two accounts in lexicographic order so every transfer
      // acquires its write locks in a single global order — opposing pairs
      // (a->b racing b->a) would otherwise deadlock and burn the full
      // kLockWaitTimeout. Atomicity makes the op order invisible; when the
      // accounts live on different shards this is a genuine two-group 2PC,
      // and within one shard the second call decides it (one-round commit).
      if (from <= to) {
        co_await h.Call(gf, "withdraw", from + "=" + std::to_string(amt));
        co_await h.FinalCall(gt, "deposit", to + "=" + std::to_string(amt));
      } else {
        co_await h.Call(gt, "deposit", to + "=" + std::to_string(amt));
        co_await h.FinalCall(gf, "withdraw", from + "=" + std::to_string(amt));
      }
    } catch (const core::TxnError& e) {
      // A wrong-shard refusal means our cached placement is stale (a move
      // committed, or a handoff window is open): refresh before the abort
      // unwinds so the driver's retry routes against the new epoch.
      if (IsWrongShardError(e.what())) router.NoteWrongShard();
      throw;
    }
    co_return true;
  };
}

long long ShardedCommittedBalance(client::Cluster& cluster,
                                  const std::string& acct) {
  const core::ShardRange* r = cluster.directory().Route(acct);
  if (r == nullptr) return -1;
  core::Cohort* primary = cluster.AnyPrimary(r->owner);
  if (primary == nullptr) return -1;
  auto v = primary->objects().ReadCommitted(acct);
  return v && !v->empty() ? std::stoll(*v) : 0;
}

long long ShardedBankTotal(client::Cluster& cluster, int num_accounts) {
  long long total = 0;
  for (int i = 0; i < num_accounts; ++i) {
    const long long b = ShardedCommittedBalance(cluster, ShardAccountName(i));
    if (b < 0) return -1;
    total += b;
  }
  return total;
}

}  // namespace vsr::workload
