#include "host/loopback.h"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace vsr::host {

namespace {

void SleepABit() { std::this_thread::sleep_for(std::chrono::milliseconds(2)); }

}  // namespace

LoopbackCluster::LoopbackCluster(LoopbackOptions options)
    : options_(options) {}

LoopbackCluster::~LoopbackCluster() { Shutdown(); }

vr::GroupId LoopbackCluster::AddGroup(const std::string& name,
                                      std::size_t replicas) {
  (void)name;  // groups are identified by id; the name is caller-side sugar
  if (started_) throw std::logic_error("AddGroup after Start");
  const vr::GroupId g = next_group_++;
  std::vector<vr::Mid> config;
  config.reserve(replicas);
  for (std::size_t i = 0; i < replicas; ++i) config.push_back(next_mid_++);
  directory_.RegisterGroup(g, config);

  for (vr::Mid mid : config) {
    auto node = std::make_unique<Node>();
    node->mid = mid;
    node->group = g;
    node->config = config;
    node->loop = std::make_unique<EventLoop>();
    node->tracer = std::make_unique<Tracer>();
    node->tracer->set_level(options_.trace);
    node->host = std::make_unique<Host>(*node->loop, *node->tracer);
    node->stable =
        std::make_unique<storage::StableStore>(*node->host, options_.storage);
    node->transport =
        std::make_unique<SocketTransport>(*node->loop, mid, addrs_);
    node->cohort = std::make_unique<core::Cohort>(
        *node->host, *node->transport, directory_, *node->stable, g, mid,
        config, options_.cohort);
    groups_[g].push_back(nodes_.size());
    nodes_.push_back(std::move(node));
  }
  return g;
}

std::vector<core::Cohort*> LoopbackCluster::Cohorts(vr::GroupId g) {
  std::vector<core::Cohort*> out;
  for (std::size_t idx : groups_.at(g)) out.push_back(nodes_[idx]->cohort.get());
  return out;
}

void LoopbackCluster::RegisterProc(vr::GroupId group, const std::string& name,
                                   core::ProcFn fn) {
  if (started_) throw std::logic_error("RegisterProc after Start");
  for (std::size_t idx : groups_.at(group)) {
    nodes_[idx]->cohort->RegisterProc(name, fn);
  }
}

void LoopbackCluster::Start() {
  if (started_) return;
  started_ = true;

  // Phase 1: bind every listener so the address map is complete before any
  // node can possibly send.
  for (auto& node : nodes_) {
    const std::uint16_t port = node->transport->Listen(0);
    if (port == 0) throw std::runtime_error("LoopbackCluster: bind failed");
    addrs_[node->mid] = NodeAddress{"127.0.0.1", port};
  }

  // Phase 2: light the fires. Cohort::Start runs on the owning loop thread
  // like every other cohort entry point.
  for (auto& node : nodes_) node->loop->Start();
  for (auto& node : nodes_) {
    core::Cohort* cohort = node->cohort.get();
    node->loop->Post([cohort] { cohort->Start(); });
  }
}

void LoopbackCluster::Shutdown() {
  if (!started_ || shut_down_) return;
  shut_down_ = true;
  // Transports first (each closes its sockets on its loop, so no frame
  // arrives again), then the loops (no timer or queued delivery runs
  // again), then the cohorts die quietly on this thread in ~Node.
  for (auto& node : nodes_) node->transport->Shutdown();
  for (auto& node : nodes_) node->loop->Stop();
}

void LoopbackCluster::RunOn(std::size_t idx,
                            std::function<void(core::Cohort&)> fn) {
  Node& node = *nodes_.at(idx);
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  node.loop->Post([&] {
    fn(*node.cohort);
    std::lock_guard<std::mutex> lock(mu);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
}

std::optional<std::size_t> LoopbackCluster::PrimaryIndex(vr::GroupId g) {
  for (std::size_t idx : groups_.at(g)) {
    bool is_primary = false;
    RunOn(idx, [&](core::Cohort& c) { is_primary = c.IsActivePrimary(); });
    if (is_primary) return idx;
  }
  return std::nullopt;
}

bool LoopbackCluster::WaitUntilStable(vr::GroupId g, Duration timeout_us) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
  while (std::chrono::steady_clock::now() < deadline) {
    // Snapshot each member's (status, view) on its own thread, then apply
    // the same majority-in-primary's-view predicate as the sim harness.
    struct View {
      bool active = false;
      bool primary = false;
      vr::ViewId viewid;
    };
    std::vector<View> views;
    for (std::size_t idx : groups_.at(g)) {
      View v;
      RunOn(idx, [&](core::Cohort& c) {
        v.active = c.status() == core::Status::kActive;
        v.primary = c.IsActivePrimary();
        v.viewid = c.cur_viewid();
      });
      views.push_back(v);
    }
    for (const View& p : views) {
      if (!p.primary) continue;
      std::size_t in_view = 0;
      for (const View& v : views) {
        if (v.active && v.viewid == p.viewid) ++in_view;
      }
      if (in_view >= vr::MajorityOf(views.size())) return true;
    }
    SleepABit();
  }
  return false;
}

std::optional<core::TxnOutcome> LoopbackCluster::RunTransaction(
    vr::GroupId g, core::TxnBody body, Duration timeout_us) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::microseconds(timeout_us);
  std::optional<std::size_t> primary;
  while (!(primary = PrimaryIndex(g)).has_value()) {
    if (std::chrono::steady_clock::now() >= deadline) return std::nullopt;
    SleepABit();
  }

  std::mutex mu;
  std::condition_variable cv;
  std::optional<core::TxnOutcome> outcome;
  SpawnTransactionOn(*primary, std::move(body), [&](core::TxnOutcome o) {
    std::lock_guard<std::mutex> lock(mu);
    outcome = o;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait_until(lock, deadline, [&] { return outcome.has_value(); });
  return outcome;
}

void LoopbackCluster::SpawnTransactionOn(
    std::size_t idx, core::TxnBody body,
    std::function<void(core::TxnOutcome)> on_done) {
  Node& node = *nodes_.at(idx);
  core::Cohort* cohort = node.cohort.get();
  node.loop->Post([cohort, body = std::move(body),
                   on_done = std::move(on_done)]() mutable {
    cohort->SpawnTransaction(std::move(body), std::move(on_done));
  });
}

void LoopbackCluster::Crash(std::size_t idx) {
  RunOn(idx, [](core::Cohort& c) { c.Crash(); });
}

void LoopbackCluster::Recover(std::size_t idx) {
  RunOn(idx, [](core::Cohort& c) { c.Recover(); });
}

std::uint64_t LoopbackCluster::TotalCommitted(vr::GroupId g) {
  std::uint64_t n = 0;
  for (std::size_t idx : groups_.at(g)) {
    RunOn(idx, [&](core::Cohort& c) { n += c.stats().txns_committed; });
  }
  return n;
}

std::uint64_t LoopbackCluster::TotalAborted(vr::GroupId g) {
  std::uint64_t n = 0;
  for (std::size_t idx : groups_.at(g)) {
    RunOn(idx, [&](core::Cohort& c) { n += c.stats().txns_aborted; });
  }
  return n;
}

}  // namespace vsr::host
