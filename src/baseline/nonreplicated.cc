#include "baseline/nonreplicated.h"

namespace vsr::baseline {

StableServer::StableServer(sim::Simulation& simulation, net::Network& network,
                           net::NodeId self, storage::StableStore& stable)
    : sim_(simulation), net_(network), self_(self), stable_(stable) {
  net_.Register(self_, this);
}

void StableServer::ForceLog(std::string tag, std::function<void()> then) {
  ++forces_;
  stable_.ForceWrite("nrlog/" + std::to_string(log_seq_++) + "/" + tag, {},
                     std::move(then));
}

void StableServer::OnFrame(const net::Frame& frame) {
  wire::Reader r(frame.payload);
  NrMsg m = r.Read<NrMsg>();
  if (!r.ok()) return;
  switch (static_cast<NrMsgType>(frame.type)) {
    case NrMsgType::kCall: {
      // Execute immediately; the data record is only *written* (buffered),
      // matching the paper's write-vs-force distinction.
      data_[m.key] = m.value;
      ++unforced_[m.txn];
      NrMsg reply = m;
      net_.Send(self_, m.reply_to,
                static_cast<std::uint16_t>(NrMsgType::kCallReply),
                wire::Encode(reply));
      break;
    }
    case NrMsgType::kPrepare: {
      // "data records that must be forced to stable storage before
      //  preparing" — one force flushes the buffered records.
      NrMsg reply = m;
      auto respond = [this, reply] {
        net_.Send(self_, reply.reply_to,
                  static_cast<std::uint16_t>(NrMsgType::kPrepareReply),
                  wire::Encode(reply));
      };
      auto it = unforced_.find(m.txn);
      if (it != unforced_.end() && it->second > 0) {
        it->second = 0;
        ForceLog("data+prepare", respond);
      } else {
        ForceLog("prepare", respond);  // the prepare record itself
      }
      break;
    }
    case NrMsgType::kCommit: {
      NrMsg reply = m;
      ForceLog("commit", [this, reply] {
        net_.Send(self_, reply.reply_to,
                  static_cast<std::uint16_t>(NrMsgType::kCommitReply),
                  wire::Encode(reply));
      });
      unforced_.erase(m.txn);
      break;
    }
    default:
      break;
  }
}

StableClient::StableClient(sim::Simulation& simulation, net::Network& network,
                           net::NodeId self, net::NodeId server)
    : sim_(simulation),
      net_(network),
      self_(self),
      server_(server),
      waiters_(simulation.scheduler()) {
  net_.Register(self_, this);
}

StableClient::~StableClient() { tasks_.DestroyAll(); }

void StableClient::OnFrame(const net::Frame& frame) {
  const auto type = static_cast<NrMsgType>(frame.type);
  if (type != NrMsgType::kCallReply && type != NrMsgType::kPrepareReply &&
      type != NrMsgType::kCommitReply) {
    return;
  }
  wire::Reader r(frame.payload);
  NrMsg m = r.Read<NrMsg>();
  if (r.ok()) waiters_.Fulfill(m.req_id, true);
}

void StableClient::RunTxn(int num_calls,
                          std::function<void(TxnTiming)> done,
                          sim::Duration think) {
  tasks_.Spawn(DoTxn(num_calls, std::move(done), think));
}

sim::Task<void> StableClient::DoTxn(int num_calls,
                                    std::function<void(TxnTiming)> done,
                                    sim::Duration think) {
  TxnTiming t;
  const std::uint64_t txn = next_txn_++;
  const sim::Duration timeout = 10 * sim::kSecond;

  sim::Duration call_total = 0;
  for (int i = 0; i < num_calls; ++i) {
    NrMsg m;
    m.req_id = next_req_++;
    m.txn = txn;
    m.reply_to = self_;
    m.key = "k" + std::to_string(i);
    m.value = "v";
    const sim::Time start = sim_.Now();
    net_.Send(self_, server_, static_cast<std::uint16_t>(NrMsgType::kCall),
              wire::Encode(m));
    auto r = co_await waiters_.Await(m.req_id, timeout);
    if (!r) {
      if (done) done(t);
      co_return;
    }
    call_total += sim_.Now() - start;
  }
  t.call_latency = num_calls > 0 ? call_total / num_calls : 0;
  if (think > 0) co_await sim::Sleep(sim_.scheduler(), think);

  NrMsg prep;
  prep.req_id = next_req_++;
  prep.txn = txn;
  prep.reply_to = self_;
  sim::Time start = sim_.Now();
  net_.Send(self_, server_, static_cast<std::uint16_t>(NrMsgType::kPrepare),
            wire::Encode(prep));
  if (!co_await waiters_.Await(prep.req_id, timeout)) {
    if (done) done(t);
    co_return;
  }
  t.prepare_latency = sim_.Now() - start;

  NrMsg commit;
  commit.req_id = next_req_++;
  commit.txn = txn;
  commit.reply_to = self_;
  start = sim_.Now();
  net_.Send(self_, server_, static_cast<std::uint16_t>(NrMsgType::kCommit),
            wire::Encode(commit));
  if (!co_await waiters_.Await(commit.req_id, timeout)) {
    if (done) done(t);
    co_return;
  }
  t.commit_latency = sim_.Now() - start;
  t.ok = true;
  if (done) done(t);
}

}  // namespace vsr::baseline
