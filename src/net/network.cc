#include "net/network.h"

#include <utility>

namespace vsr::net {

Network::Network(sim::Simulation& simulation, NetworkOptions options)
    : sim_(simulation), options_(options), rng_(simulation.rng().Fork()) {}

void Network::Register(NodeId node, FrameHandler* handler) {
  // Registration only installs the handler. Up/down state is controlled
  // solely by SetNodeUp: re-registering a handler for a crashed cohort must
  // not silently mark it up and bypass the Recover() path.
  handlers_[node] = handler;
}

void Network::Unregister(NodeId node) { handlers_.erase(node); }

std::uint64_t Network::LinkKey(NodeId a, NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

void Network::SetNodeUp(NodeId node, bool up) {
  if (up) {
    down_nodes_.erase(node);
  } else {
    down_nodes_.insert(node);
  }
}

void Network::Partition(const std::vector<std::vector<NodeId>>& groups) {
  partition_of_.clear();
  partitioned_ = !groups.empty();
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NodeId n : groups[g]) partition_of_[n] = static_cast<int>(g);
  }
}

void Network::SetLinkDown(NodeId a, NodeId b, bool down) {
  if (down) {
    down_links_.insert(LinkKey(a, b));
  } else {
    down_links_.erase(LinkKey(a, b));
  }
}

bool Network::Reachable(NodeId from, NodeId to) const {
  if (from == to) return true;
  if (down_links_.count(LinkKey(from, to)) != 0) return false;
  if (partitioned_) {
    auto f = partition_of_.find(from);
    auto t = partition_of_.find(to);
    // A node missing from the partition map is isolated.
    if (f == partition_of_.end() || t == partition_of_.end()) return false;
    if (f->second != t->second) return false;
  }
  return true;
}

sim::Duration Network::DrawDelay() {
  if (options_.delay_max <= options_.delay_min) return options_.delay_min;
  return rng_.UniformInt(options_.delay_min, options_.delay_max);
}

void Network::Send(NodeId from, NodeId to, std::uint16_t type,
                   std::vector<std::uint8_t> payload) {
  ++stats_.frames_sent;
  stats_.bytes_sent += payload.size() + 16;  // 16-byte simulated frame header
  ++stats_.sent_by_type[type];
  stats_.bytes_by_type[type] += payload.size() + 16;

  Frame frame{from, to, type, std::move(payload)};
  std::uint32_t crc = wire::Crc32(frame.payload);

  if (from == to) {
    // Loopback: reliable, but still asynchronous.
    sim_.scheduler().After(1, [this, frame = std::move(frame), crc]() mutable {
      Deliver(std::move(frame), crc);
    });
    return;
  }

  // Partition state is checked only at delivery time (Deliver): a frame sent
  // during a partition that heals before the frame lands is delivered, and a
  // frame in flight when a partition forms is lost — as on a real network.
  // Checking here too would double-count dropped_partition.
  if (rng_.Bernoulli(options_.loss_probability)) {
    ++stats_.dropped_loss;
    return;
  }

  bool corrupt = rng_.Bernoulli(options_.corrupt_probability) &&
                 !frame.payload.empty();
  int copies = rng_.Bernoulli(options_.duplicate_probability) ? 2 : 1;
  for (int i = 0; i < copies; ++i) {
    Frame copy = frame;
    if (corrupt && i == 0) {
      std::size_t at = rng_.Index(copy.payload.size());
      copy.payload[at] ^= static_cast<std::uint8_t>(1 + rng_.Index(255));
    }
    if (i == 1) ++stats_.duplicates_delivered;
    sim_.scheduler().After(
        DrawDelay(), [this, copy = std::move(copy), crc]() mutable {
          Deliver(std::move(copy), crc);
        });
  }
}

void Network::Deliver(Frame frame, std::uint32_t crc) {
  // Conditions are re-checked at delivery time: frames in flight when a
  // partition forms or a node crashes are lost, as on a real network.
  if (frame.from != frame.to && !Reachable(frame.from, frame.to)) {
    ++stats_.dropped_partition;
    return;
  }
  auto it = handlers_.find(frame.to);
  if (it == handlers_.end() || down_nodes_.count(frame.to) != 0) {
    ++stats_.dropped_node_down;
    return;
  }
  if (wire::Crc32(frame.payload) != crc) {
    ++stats_.dropped_corrupt;
    return;
  }
  ++stats_.frames_delivered;
  if (observer_) observer_(frame);
  it->second->OnFrame(frame);
}

}  // namespace vsr::net
