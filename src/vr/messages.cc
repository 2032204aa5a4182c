#include "vr/messages.h"

namespace vsr::vr {

const char* MsgTypeName(MsgType t) {
  switch (t) {
    case MsgType::kPing:
      return "ping";
    case MsgType::kInvite:
      return "invite";
    case MsgType::kAccept:
      return "accept";
    case MsgType::kInitView:
      return "init-view";
    case MsgType::kBufferBatch:
      return "buffer-batch";
    case MsgType::kBufferAck:
      return "buffer-ack";
    case MsgType::kSnapshotChunk:
      return "snapshot-chunk";
    case MsgType::kSnapshotAck:
      return "snapshot-ack";
    case MsgType::kCall:
      return "call";
    case MsgType::kReply:
      return "reply";
    case MsgType::kPrepare:
      return "prepare";
    case MsgType::kPrepareReply:
      return "prepare-reply";
    case MsgType::kCommit:
      return "commit";
    case MsgType::kCommitDone:
      return "commit-done";
    case MsgType::kAbort:
      return "abort";
    case MsgType::kAbortSub:
      return "abort-sub";
    case MsgType::kQuery:
      return "query";
    case MsgType::kQueryReply:
      return "query-reply";
    case MsgType::kProbe:
      return "probe";
    case MsgType::kProbeReply:
      return "probe-reply";
    case MsgType::kBeginTxn:
      return "begin-txn";
    case MsgType::kBeginTxnReply:
      return "begin-txn-reply";
    case MsgType::kCommitReq:
      return "commit-req";
    case MsgType::kCommitReqReply:
      return "commit-req-reply";
    case MsgType::kAbortReq:
      return "abort-req";
    case MsgType::kShardPull:
      return "shard-pull";
    case MsgType::kLeaseGrant:
      return "lease-grant";
    case MsgType::kBackupRead:
      return "backup-read";
    case MsgType::kBackupReadReply:
      return "backup-read-reply";
  }
  return "?";
}

}  // namespace vsr::vr
