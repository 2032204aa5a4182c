#include "workload/bank.h"

#include <stdexcept>

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

}  // namespace

void RegisterBankProcs(core::Cohort& cohort) {
  cohort.RegisterProc(
      "open",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto [acct, amount] = SplitAmount(ctx.ArgsAsString());
        co_await ctx.Write(acct, std::to_string(amount));
        co_return Bytes("ok");
      });
  cohort.RegisterProc(
      "deposit",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto [acct, amount] = SplitAmount(ctx.ArgsAsString());
        auto v = co_await ctx.ReadForUpdate(acct);
        const long long cur = v && !v->empty() ? std::stoll(*v) : 0;
        co_await ctx.Write(acct, std::to_string(cur + amount));
        co_return Bytes(std::to_string(cur + amount));
      });
  cohort.RegisterProc(
      "withdraw",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto [acct, amount] = SplitAmount(ctx.ArgsAsString());
        auto v = co_await ctx.ReadForUpdate(acct);
        const long long cur = v && !v->empty() ? std::stoll(*v) : 0;
        if (cur < amount) {
          throw core::TxnError("insufficient funds in " + acct);
        }
        co_await ctx.Write(acct, std::to_string(cur - amount));
        co_return Bytes(std::to_string(cur - amount));
      });
  cohort.RegisterProc(
      "balance",
      [](core::ProcContext& ctx) -> host::Task<std::vector<std::uint8_t>> {
        auto v = co_await ctx.Read(ctx.ArgsAsString());
        co_return Bytes(v.value_or("0"));
      });
}

void RegisterBankProcs(client::Cluster& cluster, vr::GroupId group) {
  for (core::Cohort* c : cluster.Cohorts(group)) RegisterBankProcs(*c);
}

long long CommittedBankTotal(client::Cluster& cluster, vr::GroupId group,
                             int num_accounts) {
  core::Cohort* primary = cluster.AnyPrimary(group);
  if (primary == nullptr) return -1;
  long long total = 0;
  for (int i = 0; i < num_accounts; ++i) {
    auto v = primary->objects().ReadCommitted("a" + std::to_string(i));
    if (v && !v->empty()) total += std::stoll(*v);
  }
  return total;
}

core::TxnBody MakeDepositTxn(vr::GroupId bank, std::string acct,
                             long long amt) {
  return [bank, acct = std::move(acct),
          amt](core::TxnHandle& h) -> host::Task<bool> {
    co_await h.FinalCall(bank, "deposit", acct + "=" + std::to_string(amt));
    co_return true;
  };
}

core::TxnBody MakeTransferTxn(vr::GroupId from_bank, std::string from_acct,
                              vr::GroupId to_bank, std::string to_acct,
                              long long amt) {
  return [from_bank, from_acct = std::move(from_acct), to_bank,
          to_acct = std::move(to_acct),
          amt](core::TxnHandle& h) -> host::Task<bool> {
    // Withdraw first: if funds are short the call fails and the whole
    // transaction aborts atomically — the deposit never happens.
    co_await h.Call(from_bank, "withdraw",
                    from_acct + "=" + std::to_string(amt));
    // Within one bank the deposit decides the transfer; across banks this
    // is a plain call and 2PC follows.
    co_await h.FinalCall(to_bank, "deposit",
                         to_acct + "=" + std::to_string(amt));
    co_return true;
  };
}

}  // namespace vsr::workload
