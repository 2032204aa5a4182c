// Simulated message-passing network.
//
// Models exactly the failure modes the paper assumes (§1): the network may
// lose, delay, and duplicate messages, deliver them out of order, and
// partition into subnetworks; nodes are fail-stop and may crash and recover.
// Nothing byzantine — but frames do carry a CRC32 so that the (optional)
// bit-corruption injector exercises the drop-on-checksum-failure path.
//
// Determinism: all randomness comes from an Rng forked off the simulation's
// root generator, and all deliveries are scheduler events.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "net/transport.h"
#include "sim/rng.h"
#include "sim/simulation.h"
#include "wire/buffer.h"

namespace vsr::net {

struct NetworkOptions {
  // One-way delivery delay is drawn uniformly from [delay_min, delay_max].
  sim::Duration delay_min = 100 * sim::kMicrosecond;
  sim::Duration delay_max = 500 * sim::kMicrosecond;
  // Probability that a frame is silently lost.
  double loss_probability = 0.0;
  // Probability that a frame is delivered twice (with independent delays).
  double duplicate_probability = 0.0;
  // Probability that one payload byte is flipped in flight; the CRC check
  // turns corruption into loss, as on a real checksummed transport.
  double corrupt_probability = 0.0;
};

// Counters used by the benchmark harness to reproduce the paper's
// message-count claims (E3, E4, E6).
struct NetworkStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t frames_delivered = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t dropped_loss = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t dropped_node_down = 0;
  std::uint64_t dropped_corrupt = 0;
  std::uint64_t duplicates_delivered = 0;
  std::map<std::uint16_t, std::uint64_t> sent_by_type;
  // Wire bytes (payload + frame header) by message type: what each kind of
  // traffic costs (bench E11's catch-up bytes, perfbench's bytes per txn).
  std::map<std::uint16_t, std::uint64_t> bytes_by_type;
};

class Network final : public Transport {
 public:
  Network(sim::Simulation& simulation, NetworkOptions options);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // -- Data plane (the net::Transport seam) ------------------------------

  // Registers (or replaces) the handler for a node. Does NOT change up/down
  // state — only SetNodeUp does (a crashed node must go through recovery).
  void Register(NodeId node, FrameHandler* handler) override;

  // Removes the handler: frames in flight toward the node are dropped at
  // delivery time (counted as dropped_node_down). Up/down state is
  // untouched, exactly like Register.
  void Unregister(NodeId node) override;

  // Sends a frame. Local (from == to) delivery bypasses loss/partition but
  // still goes through the scheduler so handlers never re-enter.
  void Send(NodeId from, NodeId to, std::uint16_t type,
            std::vector<std::uint8_t> payload) override;

  // Node crash / recovery (part of the Transport seam — cohorts flip their
  // own valve on Start/Crash/Recover). A down node receives nothing; frames
  // in flight toward it are dropped at delivery time.
  void SetNodeUp(NodeId node, bool up) override;

  // -- Fault-injection control plane ------------------------------------

  bool NodeUp(NodeId node) const;

  // Splits the network into the given groups; nodes in different groups
  // cannot communicate. Nodes not mentioned in any group are isolated.
  // An empty vector restores full connectivity.
  void Partition(const std::vector<std::vector<NodeId>>& groups);
  void Heal() { Partition({}); }

  // Per-link overrides (bidirectional).
  void SetLinkDown(NodeId a, NodeId b, bool down);

  bool Reachable(NodeId from, NodeId to) const;

  const NetworkStats& stats() const { return stats_; }
  void ResetStats() { stats_ = NetworkStats{}; }

  const NetworkOptions& options() const { return options_; }
  void set_options(const NetworkOptions& o) { options_ = o; }

  // Observation tap: invoked for every DELIVERED frame (after loss/
  // partition/CRC filtering), before the handler. Used by the frame log and
  // by tests that assert on message sequences; pass nullptr to remove.
  using Observer = std::function<void(const Frame&)>;
  void set_observer(Observer obs) { observer_ = std::move(obs); }

 private:
  void Deliver(Frame frame, std::uint32_t crc);
  sim::Duration DrawDelay();
  static std::uint64_t LinkKey(NodeId a, NodeId b);

  sim::Simulation& sim_;
  NetworkOptions options_;
  sim::Rng rng_;
  NetworkStats stats_;

  std::map<NodeId, FrameHandler*> handlers_;
  std::set<NodeId> down_nodes_;
  std::set<std::uint64_t> down_links_;
  // partition_of_[n] = group index; nodes absent from the map when no
  // partition is active.
  std::map<NodeId, int> partition_of_;
  bool partitioned_ = false;
  Observer observer_;
};

}  // namespace vsr::net
