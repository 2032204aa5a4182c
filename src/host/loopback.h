// LoopbackCluster: N real nodes in one process, talking TCP over 127.0.0.1.
//
// The real-host counterpart of client::Cluster. Every node gets its own
// event-loop thread (its "host thread"), tracer, stable store, and socket
// transport; the cohorts running on top are the exact protocol objects the
// simulator runs — same translation units, compiled against the host seam
// only (DESIGN.md §12). Nothing here is deterministic: timers fire on the
// wall clock, frames ride kernel sockets, and the loss model is whatever
// TCP teardown produces.
//
// Threading rules:
//   * Setup (AddGroup, RegisterProc) happens before Start(), single-threaded.
//   * After Start(), cohort state may only be touched on the owning node's
//     loop thread — every public accessor here posts a closure and blocks
//     until it ran (RunOn).
//   * The shared Directory is sealed at Start(): populated during setup,
//     read-only afterwards, so concurrent Lookup from node threads is safe.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cohort.h"
#include "core/directory.h"
#include "host/event_loop.h"
#include "host/socket_transport.h"
#include "storage/stable_store.h"

namespace vsr::host {

struct LoopbackOptions {
  storage::StableStoreOptions storage;
  core::CohortOptions cohort;
  TraceLevel trace = TraceLevel::kOff;
};

class LoopbackCluster {
 public:
  explicit LoopbackCluster(LoopbackOptions options = {});
  ~LoopbackCluster();
  LoopbackCluster(const LoopbackCluster&) = delete;
  LoopbackCluster& operator=(const LoopbackCluster&) = delete;

  // -- setup (before Start) ---------------------------------------------

  // Creates the group's nodes AND cohorts (constructors only install frame
  // handlers — nothing runs until Start). Cohort pointers are valid
  // immediately, so procedures can be registered the host-agnostic way:
  //   for (auto* c : cluster.Cohorts(bank)) workload::RegisterBankProcs(*c);
  vr::GroupId AddGroup(const std::string& name, std::size_t replicas);
  void RegisterProc(vr::GroupId group, const std::string& name,
                    core::ProcFn fn);
  std::vector<core::Cohort*> Cohorts(vr::GroupId g);

  // Binds every listener, seals the address map and directory, starts the
  // loops, and boots each cohort on its own thread.
  void Start();

  // Stops transports and loops and joins every thread. Idempotent; the
  // destructor calls it.
  void Shutdown();

  // -- cross-thread access ----------------------------------------------

  std::size_t NodeCount() const { return nodes_.size(); }
  const std::vector<std::size_t>& GroupNodes(vr::GroupId g) const {
    return groups_.at(g);
  }

  // Runs `fn(cohort)` on node `idx`'s loop thread and blocks until done.
  void RunOn(std::size_t idx, std::function<void(core::Cohort&)> fn);

  // Index of the node currently acting as active primary of `g`, if any.
  std::optional<std::size_t> PrimaryIndex(vr::GroupId g);

  // Polls until `g` has an active primary whose view an active majority
  // shares (same predicate as client::Cluster::RunUntilStable), or until
  // `timeout_us` of wall time elapsed. Returns success.
  bool WaitUntilStable(vr::GroupId g, Duration timeout_us = 10 * kSecond);

  // Submits a transaction at `g`'s current primary and blocks for the
  // outcome; nullopt if no primary emerged or nothing completed in time.
  std::optional<core::TxnOutcome> RunTransaction(
      vr::GroupId g, core::TxnBody body, Duration timeout_us = 10 * kSecond);

  // Fire-and-forget submission on a known node (the pipelined bench path);
  // `on_done` runs on that node's loop thread.
  void SpawnTransactionOn(std::size_t idx, core::TxnBody body,
                          std::function<void(core::TxnOutcome)> on_done);

  // Fail-stop crash / recovery of one node, run on its loop thread.
  void Crash(std::size_t idx);
  void Recover(std::size_t idx);

  std::uint64_t TotalCommitted(vr::GroupId g);
  std::uint64_t TotalAborted(vr::GroupId g);

 private:
  struct Node {
    vr::Mid mid = 0;
    vr::GroupId group = 0;
    std::vector<vr::Mid> config;
    std::unique_ptr<EventLoop> loop;
    std::unique_ptr<Tracer> tracer;
    std::unique_ptr<Host> host;
    std::unique_ptr<storage::StableStore> stable;
    std::unique_ptr<SocketTransport> transport;
    std::unique_ptr<core::Cohort> cohort;
  };

  LoopbackOptions options_;
  core::Directory directory_;
  AddressMap addrs_;  // sealed in Start(), read-only afterwards

  vr::Mid next_mid_ = 1;
  vr::GroupId next_group_ = 1;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<vr::GroupId, std::vector<std::size_t>> groups_;
  bool started_ = false;
  bool shut_down_ = false;
};

}  // namespace vsr::host
