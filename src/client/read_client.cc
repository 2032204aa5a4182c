#include "client/read_client.h"

#include <utility>

#include "core/group_client.h"

namespace vsr::client {

ReadClient::ReadClient(host::Host& hst, net::Transport& transport,
                       const core::Directory& directory, vr::Mid self,
                       core::CohortOptions options)
    : host_(hst),
      transport_(transport),
      directory_(directory),
      self_(self),
      options_(std::move(options)),
      read_waiters_(hst.timers()) {
  transport_.Register(self_, this);
}

ReadClient::~ReadClient() { transport_.Unregister(self_); }

void ReadClient::OnFrame(const net::Frame& frame) {
  vr::VisitFrame(frame.type, frame.payload, [this](vr::BackupReadReplyMsg m) {
    read_waiters_.Fulfill(m.corr, std::move(m));
  });
}

vr::Mid ReadClient::PickTarget(vr::GroupId group,
                               const std::vector<vr::Mid>& config) {
  const host::Time now = host_.Now();
  std::size_t& cur = cursor_[group];
  for (std::size_t i = 0; i < config.size(); ++i) {
    const vr::Mid candidate = config[cur % config.size()];
    cur = (cur + 1) % config.size();
    auto it = benched_until_.find(candidate);
    if (it == benched_until_.end() || it->second <= now) return candidate;
  }
  return config.front();
}

host::Task<std::optional<std::string>> ReadClient::Read(vr::GroupId group,
                                                        std::string uid) {
  const std::vector<vr::Mid>* config = directory_.Lookup(group);
  if (config == nullptr || config->empty()) co_return std::nullopt;
  // One "attempt" is a round trip (or its timeout); a bounce-then-primary
  // pair burns two. kCallAttempts bounds the total so a partitioned group
  // fails the read instead of spinning.
  vr::Mid target = PickTarget(group, *config);
  bool via_hint = false;
  for (int attempt = 0; attempt < core::kCallAttempts; ++attempt) {
    vr::BackupReadMsg m;
    m.group = group;
    m.uid = uid;
    m.horizon = horizon_[group];
    m.corr = next_corr_++;
    m.reply_to = self_;
    SendMsg(target, m);
    auto r = co_await read_waiters_.Await(m.corr, core::kCallTimeout);
    if (!r) {
      ++stats_.read_timeouts;
      target = PickTarget(group, *config);
      via_hint = false;
      continue;
    }
    if (r->status == vr::ReadStatus::kWrongLease ||
        r->status == vr::ReadStatus::kTooNew) {
      ++stats_.bounces;
      if (r->status == vr::ReadStatus::kWrongLease) {
        // The member has no usable lease; it will not get one faster than
        // the grant traffic runs, so bench it for a lease duration instead
        // of re-bouncing off it round after round. A kTooNew member keeps
        // its place: its stable prefix catches up with the next renewal.
        benched_until_[target] = host_.Now() + options_.read_lease_duration;
      }
      if (r->primary_hint != 0 && r->primary_hint != target) {
        target = r->primary_hint;
        via_hint = true;
      } else {
        target = PickTarget(group, *config);
        via_hint = false;
      }
      continue;
    }
    // Served (found or authoritatively absent): advance the session horizon
    // so later reads never observe an older state.
    auto& h = horizon_[group];
    h = std::max(h, r->served_vs);
    if (via_hint) benched_until_.clear();  // new primary answered; re-probe
    if (r->status == vr::ReadStatus::kNotFound) co_return std::nullopt;
    ++stats_.reads_ok;
    co_return std::string(r->value.begin(), r->value.end());
  }
  co_return std::nullopt;
}

}  // namespace vsr::client
