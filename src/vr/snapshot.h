// Snapshot state transfer (DESIGN.md §9).
//
// The communication buffer garbage-collects records once the stable
// watermark runs a window ahead of a laggard (CommBuffer::CollectGarbage),
// so a backup that is down, partitioned, or freshly added can no longer be
// caught up by replaying the record suffix. Instead the primary serves it a
// serialized gstate snapshot — object store, history, and prepared-txn
// metadata as of a viewstamp — chunked over SnapshotChunkMsg with resumable
// cumulative-offset acks, so a transfer survives loss, duplication, and
// reordering. The backup assembles and CRC-verifies the payload, installs it
// atomically (all-or-nothing), and re-enters the normal record/ack stream at
// the snapshot's timestamp.
//
// Both halves live here, transport-agnostic and unit-testable:
//   SnapshotServer  primary side — one pipelined, deadline-retransmitted
//                   transfer per lagging backup, sharing the payload bytes
//                   (unacked chunks are resent go-back-N after the comm
//                   buffer's kRetransmitInterval);
//   SnapshotSink    backup side — in-order chunk assembly, adoption of a
//                   newer snapshot mid-transfer, checksum verification.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "host/host.h"
#include "vr/messages.h"
#include "vr/types.h"

namespace vsr::vr {

struct SnapshotTransferOptions {
  // Payload bytes per SnapshotChunkMsg. E11 sets it.
  std::size_t chunk_size = 4096;
  // Max chunks in flight past the acked offset (flow control). E11 sets it.
  std::size_t window = 8;
  // Sink side: if no chunk of an in-flight transfer arrives for this long,
  // the partial payload is discarded wholesale (all-or-nothing) and the
  // cohort stops answering view changes as crashed-equivalent. The serving
  // primary retransmits on a much shorter deadline, so an idle stream means
  // it crashed or stood down; without this escape a mid-transfer primary
  // crash would leave the backup crashed-equivalent forever and could wedge
  // view formation permanently (§4's conditions). Two snapshot_test cases,
  // SnapshotIntegration.MidTransfer*, lengthen it to hold a sink mid-install.
  host::Duration install_abandon_timeout = 200 * host::kMillisecond;
};

class SnapshotServer {
 public:
  // send(to, chunk) transmits one chunk to one backup.
  SnapshotServer(host::Host& hst, SnapshotTransferOptions options,
                 std::function<void(Mid, const SnapshotChunkMsg&)> send);
  ~SnapshotServer() { Stop(); }
  SnapshotServer(const SnapshotServer&) = delete;
  SnapshotServer& operator=(const SnapshotServer&) = delete;

  // Begins operating for a view this cohort leads; Stop() cancels every
  // transfer (the cohort stopped being primary, or crashed).
  void StartView(ViewId viewid, GroupId group, Mid self);
  void Stop();

  // Begins (or refreshes) a transfer to `backup` of the snapshot identified
  // by `vs`. A transfer of an older snapshot to the same backup is replaced;
  // re-serving the same vs keeps the existing transfer's progress. The
  // payload is shared, never copied per backup.
  void Serve(Mid backup, Viewstamp vs,
             std::shared_ptr<const std::vector<std::uint8_t>> payload);

  // Cumulative-offset ack from a backup. Completion (offset == total) ends
  // the transfer; an offset of 0 on a part-way transfer rewinds it (the sink
  // restarted, e.g. after a checksum reject).
  void OnAck(const SnapshotAckMsg& ack);

  bool Serving(Mid backup) const { return transfers_.count(backup) != 0; }

  struct Stats {
    std::uint64_t transfers_started = 0;
    std::uint64_t transfers_completed = 0;
    std::uint64_t chunks_sent = 0;
    std::uint64_t chunk_retransmits = 0;  // chunks re-sent after a deadline
    std::uint64_t bytes_sent = 0;         // payload bytes, including resends
    std::uint64_t acks_rejected = 0;      // wrong view/group/vs/offset
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Transfer {
    Viewstamp vs;
    std::shared_ptr<const std::vector<std::uint8_t>> payload;
    std::uint32_t checksum = 0;
    std::uint64_t acked = 0;  // cumulative contiguous bytes acknowledged
    std::uint64_t sent = 0;   // send cursor (bytes)
    host::Time deadline = 0;
  };

  void Pump(Mid backup, Transfer& t);
  void ArmTimer();
  void CheckDeadlines();

  host::Host& host_;
  SnapshotTransferOptions options_;
  std::function<void(Mid, const SnapshotChunkMsg&)> send_;

  bool active_ = false;
  ViewId viewid_;
  GroupId group_ = 0;
  Mid self_ = 0;
  std::map<Mid, Transfer> transfers_;
  host::TimerId retransmit_timer_ = host::kNoTimer;
  Stats stats_;
};

// Backup-side chunk assembly. Feed every SnapshotChunkMsg addressed to this
// cohort; after each accepted chunk the caller acks offset(). When
// complete() turns true the verified payload is ready to install; the caller
// then Reset()s the sink. The sink is oblivious to views — the cohort gates
// chunks on (viewid, primary) before feeding it and resets it on any view
// transition.
class SnapshotSink {
 public:
  // Consumes one chunk. Returns true if the caller should ack (the chunk
  // matched the active transfer — even a duplicate, so the sender realigns);
  // false if it was ignored (an older snapshot's stray chunk, or a forged
  // total/checksum mismatch).
  bool OnChunk(const SnapshotChunkMsg& m);

  bool active() const { return active_; }
  bool complete() const { return complete_; }
  Viewstamp vs() const { return vs_; }
  // Cumulative contiguous bytes received (the value to ack).
  std::uint64_t offset() const { return buf_.size(); }
  const std::vector<std::uint8_t>& payload() const { return buf_; }

  // Checksum rejects: a fully-assembled payload whose CRC-32 did not match.
  // The transfer restarts from offset 0.
  std::uint64_t corrupt_payloads() const { return corrupt_payloads_; }

  void Reset();

 private:
  bool active_ = false;
  bool complete_ = false;
  Viewstamp vs_;
  std::uint64_t total_ = 0;
  std::uint32_t checksum_ = 0;
  std::vector<std::uint8_t> buf_;
  std::uint64_t corrupt_payloads_ = 0;
};

}  // namespace vsr::vr
