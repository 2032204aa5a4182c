#include "vr/snapshot.h"

#include <cassert>
#include <span>
#include <utility>

#include "wire/buffer.h"

namespace vsr::vr {

void SnapshotServer::StartView(ViewId viewid, GroupId group, Mid self) {
  active_ = true;
  viewid_ = viewid;
  group_ = group;
  self_ = self;
}

void SnapshotServer::Serve(Mid to, Viewstamp vs,
                           std::vector<std::uint8_t> payload) {
  if (!active_) return;
  assert(!payload.empty());
  SnapshotChunkMsg m;
  m.group = group_;
  m.viewid = viewid_;
  m.from = self_;
  m.vs = vs;
  m.total_size = payload.size();
  m.checksum = wire::Crc32(std::span<const std::uint8_t>(payload));
  m.data = std::move(payload);
  ++stats_.images_sent;
  stats_.bytes_sent += m.total_size;
  send_(to, m);
}

void SnapshotServer::OnAck(const SnapshotAckMsg& ack) {
  if (!active_ || ack.viewid != viewid_ || ack.group != group_ ||
      ack.vs.view != viewid_ || ack.offset == 0) {
    ++stats_.acks_rejected;
    return;
  }
  ++stats_.transfers_completed;
}

bool WholeImage(const SnapshotChunkMsg& m) {
  return m.offset == 0 && m.data.size() == m.total_size &&
         wire::Crc32(std::span<const std::uint8_t>(m.data)) == m.checksum;
}

SnapshotAckMsg InstallAck(const SnapshotChunkMsg& m, Mid self) {
  SnapshotAckMsg ack;
  ack.group = m.group;
  ack.viewid = m.viewid;
  ack.from = self;
  ack.vs = m.vs;
  ack.offset = m.total_size;
  return ack;
}

}  // namespace vsr::vr
