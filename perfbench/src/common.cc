#include "common.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace vsr::perfbench {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

CpuUsage CpuUsage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw)};
}

HostTicks HostTicks::Now() {
  // The aggregate line: user nice system idle iowait irq softirq steal
  // guest guest_nice. Guest time is already inside user, so sum the first 8.
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return {};
  std::istringstream fields(line.substr(4));
  HostTicks t;
  double v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double LoadAverage() {
  double load[1];
  return getloadavg(load, 1) == 1 ? load[0] : -1;
}

double ReferenceLoopMs() {
  const std::int64_t t0 = WallNs();
  std::map<std::string, int> m;
  for (int i = 0; i < 1000; ++i) m["k" + std::to_string(i * 7919 % 1000)] = i;
  static volatile std::size_t sink = 0;
  sink = sink + m.size();
  return static_cast<double>(WallNs() - t0) / 1e6;
}

std::vector<WindowStats> Windows::Stats(const Tally& t) const {
  std::vector<WindowStats> out;
  for (std::size_t i = 1; i < marks_.size(); ++i) {
    const WindowMark& a = marks_[i - 1];
    const WindowMark& b = marks_[i];
    const auto n = static_cast<double>(b.committed - a.committed);
    if (n == 0) continue;
    const std::vector<double> lat(
        t.latency_us.begin() + static_cast<std::ptrdiff_t>(a.latencies),
        t.latency_us.begin() + static_cast<std::ptrdiff_t>(b.latencies));
    const double ticks = b.host.total - a.host.total;
    out.push_back({Percentile(lat, 0.50), Percentile(lat, 0.90),
                   n / ((b.env_us - a.env_us) / 1e6),
                   ticks > 0 ? (b.host.steal - a.host.steal) / ticks : 0,
                   b.probe_ms});
  }
  return out;
}

void Counters::AddCohort(const core::Cohort& c) {
  const auto& b = c.buffer().stats();
  batches += b.batches_sent;
  records_sent += b.records_sent;
  records_retransmitted += b.records_retransmitted;
  forces += b.forces;
  forces_immediate += b.forces_immediate;
  window_stalls += b.window_stalls;
  snapshots_served += c.snapshot_server().stats().transfers_completed;

  const core::CohortStats& s = c.stats();
  txns_committed += s.txns_committed;
  fused_commits += s.fused_commits;
  views_formed += s.views_formed_as_manager;
  view_formation_failures += s.view_formation_failures;
  log_records_replayed += s.log_records_replayed;

  lock_waits += c.objects().stats().waits;
  lock_wait_timeouts += c.objects().stats().wait_timeouts;

  log_bytes += c.event_log().stats().bytes_logged;
  log_segments += c.event_log().stats().segments_written;
}

void Counters::AddStable(const storage::StableStore& s) {
  forced_writes += s.stats().forced_writes;
}

Counters Counters::operator-(const Counters& o) const {
  Counters d = *this;
  d.host_frames -= o.host_frames;
  d.host_bytes -= o.host_bytes;
  d.host_send_failures -= o.host_send_failures;
  d.host_dropped -= o.host_dropped;
  d.net_frames -= o.net_frames;
  d.net_bytes -= o.net_bytes;
  for (const auto& [t, v] : o.net_frames_by_type) d.net_frames_by_type[t] -= v;
  for (const auto& [t, v] : o.net_bytes_by_type) d.net_bytes_by_type[t] -= v;
  d.batches -= o.batches;
  d.records_sent -= o.records_sent;
  d.records_retransmitted -= o.records_retransmitted;
  d.forces -= o.forces;
  d.forces_immediate -= o.forces_immediate;
  d.window_stalls -= o.window_stalls;
  d.snapshots_served -= o.snapshots_served;
  d.txns_committed -= o.txns_committed;
  d.fused_commits -= o.fused_commits;
  d.views_formed -= o.views_formed;
  d.view_formation_failures -= o.view_formation_failures;
  d.log_records_replayed -= o.log_records_replayed;
  d.lock_waits -= o.lock_waits;
  d.lock_wait_timeouts -= o.lock_wait_timeouts;
  d.forced_writes -= o.forced_writes;
  d.log_bytes -= o.log_bytes;
  d.log_segments -= o.log_segments;
  return d;
}

}  // namespace vsr::perfbench
