// Snapshot state transfer (DESIGN.md §9).
//
// The communication buffer garbage-collects records once the stable
// watermark runs a window ahead of a laggard (CommBuffer::CollectGarbage),
// so a backup that is down, partitioned, or freshly added can no longer be
// caught up by replaying the record suffix. Instead the primary serves it a
// serialized state image — object store, history, and prepared-txn
// metadata as of a viewstamp — in one SnapshotChunkMsg: the whole payload
// and its CRC-32. A newview record carries its gstate in one frame the same
// way, and both are bounded by the transport's frame size
// (SocketTransport::kMaxPayload). The backup checks the frame
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

  // Sends `payload`, the image of everything up to `vs`, to `to` as one
  // frame from `self`, the active primary of `group` in view vs.view. The
  // server keeps no view: the caller checks that it leads one.
  void Serve(Mid to, GroupId group, Mid self, Viewstamp vs,
             std::vector<std::uint8_t> payload);

  // A receiver installed an image this server sent in `viewid`, the view
  // the caller leads. Acks of an image of another view are rejected.
  void OnAck(const SnapshotAckMsg& ack, ViewId viewid);

  struct Stats {
    std::uint64_t images_sent = 0;
    std::uint64_t transfers_completed = 0;  // install acks accepted
    std::uint64_t bytes_sent = 0;           // image bytes, including resends
    std::uint64_t acks_rejected = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  std::function<void(Mid, const SnapshotChunkMsg&)> send_;
  Stats stats_;
};

// True when `m` carries the image its CRC-32 claims. A torn or forged frame
// is neither installed nor acked.
bool WholeImage(const SnapshotChunkMsg& m);

// The receiver's ack of an installed image, stamped with the frame's group
// and viewstamp so the serving primary's SnapshotServer accepts it.
SnapshotAckMsg InstallAck(const SnapshotChunkMsg& m, Mid self);

}  // namespace vsr::vr
