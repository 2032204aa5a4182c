// Client-side consistent reads at backups (DESIGN.md §14).
//
// A ReadClient fans single-object committed reads out across ALL members of
// a group — primary and backups alike — instead of funnelling them through
// the primary the way the transactional call path must. A backup answers
// only while it holds a viewstamp lease from the current primary; otherwise
// it bounces the read with a wrong-lease hint, mirroring the wrong-shard
// bounce in client/shard_router.h: use the cached answer optimistically,
// and let the rejection teach the client where to go.
//
// Routing policy:
//   * round-robin across the group's configuration for load spreading;
//   * a member that bounced is benched for one lease duration (it has no
//     lease now and will not acquire one faster than the grant traffic
//     runs), and the read retries at the hinted primary — the sticky
//     fallback that always makes progress while the group has one;
//   * every successful read folds served_vs into the per-group session
//     horizon, and every request carries that horizon, so a session's reads
//     are monotone across servers AND across view changes: a backup whose
//     applied state or lease watermark trails the horizon refuses rather
//     than serving a value older than one this client already saw.
//
// Host-agnostic on purpose: constructed over host::Host + net::Transport,
// so the same code drives the simulator and the socket host.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/directory.h"
#include "core/options.h"
#include "core/wait_table.h"
#include "host/host.h"
#include "host/task.h"
#include "net/transport.h"
#include "vr/messages.h"
#include "vr/types.h"

namespace vsr::client {

struct ReadClientStats {
  std::uint64_t reads_ok = 0;
  // Wrong-lease rejections observed (each costs one extra round trip).
  std::uint64_t bounces = 0;
  std::uint64_t read_timeouts = 0;
};

class ReadClient : public net::FrameHandler {
 public:
  // `self` must be a node id the transport serves and no other handler owns.
  ReadClient(host::Host& hst, net::Transport& transport,
             const core::Directory& directory, vr::Mid self,
             core::CohortOptions options);
  ~ReadClient() override;

  // One committed read. Resolves to the value, or nullopt if the object does
  // not exist OR no server answered within the attempt budget; the two are
  // not told apart. Safe to have many in flight.
  host::Task<std::optional<std::string>> Read(vr::GroupId group,
                                              std::string uid);

  // The session horizon for a group: the highest viewstamp any read in this
  // session was served at. Exposed for tests asserting monotonicity.
  vr::Viewstamp horizon(vr::GroupId group) const {
    auto it = horizon_.find(group);
    return it == horizon_.end() ? vr::Viewstamp{} : it->second;
  }

  const ReadClientStats& stats() const { return stats_; }

  // net::FrameHandler
  void OnFrame(const net::Frame& frame) override;

 private:
  template <typename M>
  void SendMsg(vr::Mid to, const M& m) {
    transport_.Send(self_, to, static_cast<std::uint16_t>(M::kType),
                    vr::EncodeMsg(m));
  }

  // Next round-robin target for the group, skipping benched members. Falls
  // back to the first member when everyone is benched (better to ask a
  // probably-leaseless backup than nobody).
  vr::Mid PickTarget(vr::GroupId group, const std::vector<vr::Mid>& config);

  host::Host& host_;
  net::Transport& transport_;
  const core::Directory& directory_;
  const vr::Mid self_;
  const core::CohortOptions options_;

  std::uint64_t next_corr_ = 1;
  std::map<vr::GroupId, std::size_t> cursor_;
  std::map<vr::GroupId, vr::Viewstamp> horizon_;
  // Members that bounced a read, benched until the stored time.
  std::map<vr::Mid, host::Time> benched_until_;
  ReadClientStats stats_;

  core::WaitTable<vr::BackupReadReplyMsg> read_waiters_;
};

}  // namespace vsr::client
