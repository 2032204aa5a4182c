// Bank workload: accounts with deposits, withdrawals and cross-group
// transfers — the standard transactional exercise for the protocol, and the
// source of the invariant the examples audit (total balance is conserved by
// transfers).
//
// Procedures registered on a bank group:
//   open      "acct=amount"  create an account with an initial balance
//   deposit   "acct=amount"  add
//   withdraw  "acct=amount"  subtract; fails the call (→ txn abort) if the
//                            balance would go negative
//   balance   "acct"         read
#pragma once

#include <string>

#include "client/cluster.h"
#include "core/cohort.h"

namespace vsr::workload {

// Registers the bank procedures on one cohort — the host-agnostic form,
// usable from any harness (all replicas of a module must carry identical
// code, so call it on every member of the group).
void RegisterBankProcs(core::Cohort& cohort);

// Convenience: registers on every cohort of a simulated cluster's group.
void RegisterBankProcs(client::Cluster& cluster, vr::GroupId group);

// Sums the committed balances of accounts "a0".."a<n-1>" at the group's
// primary (for audits in tests/examples).
long long CommittedBankTotal(client::Cluster& cluster, vr::GroupId group,
                             int num_accounts);

// Transaction bodies (run at a client group's primary). A deposit is one
// final call: the bank decides it in one round (DESIGN.md §13.6).
core::TxnBody MakeDepositTxn(vr::GroupId bank, std::string acct, long long amt);
// Transfers between two accounts that may live in different bank groups —
// the two-participant 2PC case. Within one bank group the deposit is the
// final call and the group decides the transfer (one-round commit).
core::TxnBody MakeTransferTxn(vr::GroupId from_bank, std::string from_acct,
                              vr::GroupId to_bank, std::string to_acct,
                              long long amt);

}  // namespace vsr::workload
