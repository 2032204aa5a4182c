// Snapshot state transfer (DESIGN.md §9).
//
// The communication buffer garbage-collects records once the stable
// watermark runs a window ahead of a laggard (CommBuffer::CollectGarbage),
// so a backup that is down, partitioned, or freshly added can no longer be
// caught up by replaying the record suffix. Instead the primary serves it a
// serialized state image — object store, history, and prepared-txn
// metadata as of a viewstamp — in one SnapshotChunkMsg: offset 0, the whole
// payload, the CRC-32 of the whole payload. A newview record carries its
// gstate in one frame the same way, and both are bounded by the transport's
// frame size (SocketTransport::kMaxPayload). The backup checks the frame
// (WholeImage), installs it atomically, acks it (InstallAck) and re-enters
// the normal record/ack stream at the image's timestamp. A shard move
// (DESIGN.md §11) sends its range image the same way.
//
// Nothing here retries or keeps per-receiver state. A lost image is
// re-served by its requester's own deadline — CommBuffer's per-backup
// kRetransmitInterval for a laggard, kShardPullRetry for a shard puller —
// so no transfer outlives its receiver.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "vr/messages.h"
#include "vr/types.h"

namespace vsr::vr {

class SnapshotServer {
 public:
  // send(to, image) transmits one image frame to one receiver.
  explicit SnapshotServer(
      std::function<void(Mid, const SnapshotChunkMsg&)> send)
      : send_(std::move(send)) {}

  // Begins operating for a view this cohort leads; a stopped server (the
  // cohort stopped being primary, or crashed) sends nothing.
  void StartView(ViewId viewid, GroupId group, Mid self);
  void Stop() { active_ = false; }

  // Sends `payload`, the image of everything up to `vs`, to `to` as one
  // frame.
  void Serve(Mid to, Viewstamp vs, std::vector<std::uint8_t> payload);

  // A receiver installed an image this server sent in its current view.
  // Acks for another view or group, for an image of another view, or at
  // offset 0 are rejected.
  void OnAck(const SnapshotAckMsg& ack);

  struct Stats {
    std::uint64_t images_sent = 0;
    std::uint64_t transfers_completed = 0;  // install acks accepted
    std::uint64_t bytes_sent = 0;           // image bytes, including resends
    std::uint64_t acks_rejected = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  std::function<void(Mid, const SnapshotChunkMsg&)> send_;
  bool active_ = false;
  ViewId viewid_;
  GroupId group_ = 0;
  Mid self_ = 0;
  Stats stats_;
};

// True when `m` carries a whole image: offset 0, the payload to its last
// byte, and the CRC-32 it claims. A torn or forged frame is neither
// installed nor acked.
bool WholeImage(const SnapshotChunkMsg& m);

// The receiver's ack of an installed image, stamped with the frame's group
// and viewid so the serving primary's SnapshotServer accepts it.
SnapshotAckMsg InstallAck(const SnapshotChunkMsg& m, Mid self);

}  // namespace vsr::vr
