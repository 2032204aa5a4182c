#include "vr/snapshot.h"

#include <cassert>
#include <span>
#include <utility>

#include "wire/buffer.h"

namespace vsr::vr {

void SnapshotServer::Serve(Mid to, GroupId group, Mid self, Viewstamp vs,
                           std::vector<std::uint8_t> payload) {
  assert(!payload.empty());
  SnapshotChunkMsg m;
  m.group = group;
  m.from = self;
  m.vs = vs;
  m.checksum = wire::Crc32(std::span<const std::uint8_t>(payload));
  m.data = std::move(payload);
  ++stats_.images_sent;
  stats_.bytes_sent += m.data.size();
  send_(to, m);
}

void SnapshotServer::OnAck(const SnapshotAckMsg& ack, ViewId viewid) {
  if (ack.vs.view != viewid) {
    ++stats_.acks_rejected;
    return;
  }
  ++stats_.transfers_completed;
}

bool WholeImage(const SnapshotChunkMsg& m) {
  return wire::Crc32(std::span<const std::uint8_t>(m.data)) == m.checksum;
}

SnapshotAckMsg InstallAck(const SnapshotChunkMsg& m, Mid self) {
  SnapshotAckMsg ack;
  ack.group = m.group;
  ack.from = self;
  ack.vs = m.vs;
  return ack;
}

}  // namespace vsr::vr
