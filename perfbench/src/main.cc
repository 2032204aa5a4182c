// vsr_perfbench: runs one workload of the repository benchmark and prints
// its metrics, ending with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   vsr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics.
// --trace 1 splits the time between an untraced and a traced run of it,
// reports the per-layer metrics of the traced run, and prints the tracing
// overhead (traced minus untraced) on every end-to-end metric and on CPU
// per transaction. A run whose outcome audit fails prints why and exits
// non-zero with no metrics.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "vr/messages.h"

namespace vsr::perfbench {
namespace {

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string Number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double Div(double a, double b) { return b != 0 ? a / b : 0; }

bool IsLoopback(const std::string& w) { return w.rfind("loopback-", 0) == 0; }

RunResult Run(const RunOptions& o) {
  return IsLoopback(o.workload) ? RunLoopback(o) : RunSim(o);
}

// The end-to-end metrics, named as in BENCHMARK.json.
//
// On the simulator they are read off every committed transaction of the
// fixed virtual intervals, so they depend only on the code and the seed.
//
// On the loopback host latency and throughput are read off the wall-clock
// windows at the better decile: window latency at the 10th percentile,
// window throughput at the 90th. On a shared virtual machine the same build
// runs in a fast and a slow mode for seconds to minutes at a time (other
// tenants' load; the reference loop printed with the host noise shows
// which); the better decile reads the fast mode whenever it held for a tenth
// of the windows, where a median flips between the two.
std::vector<Metric> EndToEnd(const RunResult& r, bool loopback) {
  const Tally& m = r.measured;
  double p50 = Percentile(m.latency_us, 0.50);
  double p90 = Percentile(m.latency_us, 0.90);
  double tps = Div(static_cast<double>(m.committed), r.interval_s);
  if (loopback) {
    std::vector<double> w50, w90, wtps;
    for (const WindowStats& w : r.windows) {
      w50.push_back(w.p50_us);
      w90.push_back(w.p90_us);
      wtps.push_back(w.tps);
    }
    p50 = Percentile(w50, 0.10);
    p90 = Percentile(w90, 0.10);
    tps = Percentile(wtps, 0.90);
  }
  return {
      {"commit_p50_us", "us", p50},
      {"commit_p90_us", "us", p90},
      {"throughput_tps", "txn/s", tps},
      {"committed_share", "ratio",
       Div(static_cast<double>(m.committed), static_cast<double>(m.attempts))},
      {"unavailable_ms", "ms", Median(r.unavailable_ms)},
      {"setup_s", "s", Median(r.setup_s)},
  };
}

// Process CPU per committed transaction over the measured intervals. It is
// a per-layer metric, not an end-to-end one: it tracks the host's speed,
// which drifted by up to half between sets of runs an hour apart on a shared
// host, beyond any bound a gate could hold.
double CpuUsPerTxn(const RunResult& r) {
  return Div(r.cpu.total_s() * 1e6, static_cast<double>(r.measured.committed));
}

// The per-layer metrics of a traced run. The `host` layer (EventLoop,
// SocketTransport) works only on the loopback host and the `net` layer (the
// simulated Network) only on the simulator; every workload reports both
// sets, and the layer that does no work reads 0. `untraced` supplies the
// process CPU and the idle-cluster probe, measured without decorators.
std::vector<Metric> PerLayer(const RunResult& t, const RunResult& untraced,
                             bool loopback) {
  const Counters& c = t.layers;
  const TraceSummary& s = t.trace;
  const double n = static_cast<double>(t.measured.committed);
  auto per_txn = [&](double v) { return Div(v, n); };
  auto wire_us = [&](const std::map<std::uint16_t, double>& ns_per_frame) {
    double ns = 0;
    for (const auto& [type, count] : s.sends_by_type) {
      auto it = ns_per_frame.find(type);
      if (it != ns_per_frame.end()) ns += it->second * static_cast<double>(count);
    }
    return per_txn(ns / 1000.0);
  };
  auto at = [](const std::map<std::uint16_t, double>& m, vr::MsgType t) {
    auto it = m.find(static_cast<std::uint16_t>(t));
    return it == m.end() ? 0.0 : it->second;
  };
  using vr::MsgType;

  // Send spans time SocketTransport on loopback and the simulated Network on
  // the simulator; the host-only figures read 0 on the simulator. CPU per
  // transaction is the untraced run's, so the decorators' cost stays out.
  const double send_us = per_txn(s.send_ns / 1000.0);
  auto on_host = [loopback](double v) { return loopback ? v : 0.0; };
  std::vector<Metric> out = {
      {"cpu_us_per_txn", "us", CpuUsPerTxn(untraced)},
      {"host.frames_per_txn", "frames/txn", per_txn(c.host_frames)},
      {"host.bytes_per_txn", "B/txn", per_txn(c.host_bytes)},
      {"host.send_us_per_txn", "us/txn", on_host(send_us)},
      {"host.delivery_us_p50", "us", Percentile(s.delivery_us, 0.50)},
      {"host.delivery_us_p90", "us", Percentile(s.delivery_us, 0.90)},
      {"host.timer_lag_us_p90", "us",
       on_host(Percentile(s.timer_lag_us, 0.90))},
      {"host.sys_cpu_us_per_txn", "us/txn", on_host(per_txn(t.cpu.sys_s * 1e6))},
      {"host.ctx_switches_per_txn", "count/txn",
       on_host(per_txn(t.cpu.ctx_switches))},
      {"host.idle_cpu_share", "ratio", on_host(untraced.idle_cpu_share)},
      {"host.send_failures", "count", c.host_send_failures},
      {"net.frames_per_txn", "frames/txn", per_txn(c.net_frames)},
      {"net.bytes_per_txn", "B/txn", per_txn(c.net_bytes)},
      {"net.send_us_per_txn", "us/txn", loopback ? 0.0 : send_us},
  };
  const std::vector<std::pair<const char*, MsgType>> net_types = {
      {"call", MsgType::kCall},
      {"prepare", MsgType::kPrepare},
      {"commit", MsgType::kCommit},
      {"buffer_batch", MsgType::kBufferBatch},
      {"buffer_ack", MsgType::kBufferAck},
  };
  for (const auto& [name, type] : net_types) {
    out.push_back({std::string("net.frames_per_txn.") + name, "frames/txn",
                   per_txn(at(c.net_frames_by_type, type))});
  }
  for (const auto& [name, type] : net_types) {
    out.push_back({std::string("net.bytes_per_txn.") + name, "B/txn",
                   per_txn(at(c.net_bytes_by_type, type))});
  }
  out.insert(out.end(), {
      {"wire.encode_us_per_txn", "us/txn", wire_us(s.encode_ns_per_frame)},
      {"wire.decode_us_per_txn", "us/txn", wire_us(s.decode_ns_per_frame)},
      {"wire.crc_us_per_txn", "us/txn", wire_us(s.crc_ns_per_frame)},
  });

  out.insert(out.end(), {
      {"vr.records_per_batch", "records/batch", Div(c.records_sent, c.batches)},
      {"vr.forces_per_txn", "forces/txn", per_txn(c.forces)},
      {"vr.forces_immediate_share", "ratio", Div(c.forces_immediate, c.forces)},
      {"vr.retransmits_per_txn", "records/txn", per_txn(c.records_retransmitted)},
      {"vr.window_stalls_per_txn", "count/txn", per_txn(c.window_stalls)},
      {"vr.snapshots_served", "count", c.snapshots_served},
      {"core.on_frame_us_per_txn", "us/txn", per_txn(s.frame_self_ns / 1000.0)},
  });
  const std::vector<std::pair<const char*, MsgType>> frame_types = {
      {"ping", MsgType::kPing},
      {"buffer_batch", MsgType::kBufferBatch},
      {"buffer_ack", MsgType::kBufferAck},
      {"call", MsgType::kCall},
      {"reply", MsgType::kReply},
      {"prepare", MsgType::kPrepare},
      {"prepare_reply", MsgType::kPrepareReply},
      {"commit", MsgType::kCommit},
      {"commit_done", MsgType::kCommitDone},
  };
  double other_ns = s.frame_self_ns;
  for (const auto& [name, type] : frame_types) {
    const double ns = at(s.frame_self_ns_by_type, type);
    other_ns -= ns;
    out.push_back({std::string("core.on_frame_us_per_txn.") + name, "us/txn",
                   per_txn(ns / 1000.0)});
  }
  out.insert(out.end(), {
      {"core.on_frame_us_per_txn.other", "us/txn", per_txn(other_ns / 1000.0)},
      {"core.timer_cb_us_per_txn", "us/txn", per_txn(s.timer_self_ns / 1000.0)},
      {"core.fused_commit_share", "ratio", Div(c.fused_commits, c.txns_committed)},
      {"core.view_changes_per_crash", "views/crash",
       Div(c.views_formed, static_cast<double>(t.crashes))},
      {"core.view_formation_failures", "count", c.view_formation_failures},
      {"core.log_records_replayed", "count", c.log_records_replayed},
      {"txn.lock_waits_per_txn", "count/txn", per_txn(c.lock_waits)},
      {"txn.lock_wait_timeouts", "count", c.lock_wait_timeouts},
      {"storage.forced_writes_per_txn", "writes/txn", per_txn(c.forced_writes)},
      {"storage.log_bytes_per_txn", "B/txn", per_txn(c.log_bytes)},
      {"storage.log_segments_per_txn", "segments/txn", per_txn(c.log_segments)},
      {"failed_share", "ratio",
       Div(static_cast<double>(t.measured.attempts_failed),
           static_cast<double>(t.measured.attempts))},
  });
  return out;
}

void PrintTable(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const Metric& m : ms) {
    std::printf("  %-36s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void PrintRunNotes(const char* label, const RunResult& r, bool loopback) {
  const Tally& m = r.measured;
  std::printf(
      "%s: %llu ops, %llu attempts, %llu committed, %llu aborted or unknown; "
      "measured %.3f s (%s), %.3f s wall; p99 %.1f us; %llu crashes, %zu "
      "unavailability samples\n",
      label, static_cast<unsigned long long>(m.ops),
      static_cast<unsigned long long>(m.attempts),
      static_cast<unsigned long long>(m.committed),
      static_cast<unsigned long long>(m.attempts_failed), r.interval_s,
      loopback ? "wall" : "virtual", r.wall_s,
      Percentile(m.latency_us, 0.99),
      static_cast<unsigned long long>(r.crashes), r.unavailable_ms.size());
  std::printf("%s: set-up times (s):", label);
  for (double s : r.setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  if (!loopback) {
    std::printf("%s: load average %.2f\n", label, r.loadavg);
    return;
  }
  std::vector<double> steal, probe;
  for (const WindowStats& w : r.windows) {
    steal.push_back(w.steal_share);
    probe.push_back(w.probe_ms);
  }
  std::printf("%s: host noise over %zu windows: cpu steal share %.4f median, "
              "%.4f max; reference loop %.3f ms median, %.3f ms fastest; load "
              "average %.2f\n",
              label, steal.size(), Median(steal), Percentile(steal, 1.0),
              Median(probe), Percentile(probe, 0.0), r.loadavg);
}

void PrintJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
               const std::vector<Metric>& ms) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + Number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

std::uint64_t Attempted(const RunResult& r) {
  return r.measured.ops + r.probe.ops;
}
std::uint64_t Failed(const RunResult& r) {
  return r.measured.ops_failed + r.probe.ops_failed;
}

// A run that fails its audit reports why and no numbers.
bool Audited(const char* label, const RunResult& r, bool loopback) {
  if (!r.audit_error.empty()) {
    std::printf("AUDIT FAILED (%s): %s\n", label, r.audit_error.c_str());
    return false;
  }
  if (r.measured.committed == 0 || (loopback && r.windows.empty())) {
    std::printf("AUDIT FAILED (%s): no %s of committed transactions\n",
                label, loopback ? "whole window" : "measured interval");
    return false;
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: vsr_perfbench --workload "
               "<loopback-seq|sim-xshard|sim-failover> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunOptions o;
  int trace = 0;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(v);
    } else if (flag == "--trace") {
      trace = std::atoi(v);
    } else {
      return Usage();
    }
  }
  const std::vector<std::string> known = {"loopback-seq", "sim-xshard",
                                          "sim-failover"};
  if (std::find(known.begin(), known.end(), o.workload) == known.end() ||
      o.seconds <= 0 || (trace != 0 && trace != 1) || argc % 2 != 1) {
    return Usage();
  }
  const bool loopback = IsLoopback(o.workload);
  // setup_s is the median of these set-ups. A simulator set-up is about a
  // tenth of a second of CPU and varies by half between set-ups on a shared
  // host, so it takes more of them; a loopback set-up mostly waits on the
  // protocol's timers and varies little.
  o.setups = loopback ? 5 : 15;
  std::printf("workload %s, seed %llu, %.0f s measured, trace %d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, trace);

  if (trace == 0) {
    const RunResult r = Run(o);
    PrintRunNotes("untraced", r, loopback);
    if (!Audited("untraced", r, loopback)) {
      PrintJson(false, Attempted(r), Failed(r), {});
      return 1;
    }
    const std::vector<Metric> e2e = EndToEnd(r, loopback);
    PrintTable("end-to-end", e2e);
    PrintJson(true, Attempted(r), Failed(r), e2e);
    return 0;
  }

  // Traced: one untraced set-up and interval to compare against (it also
  // measures the idle cluster), then the traced run. No failover probe on
  // either side, so unavailable_ms compares only on sim-failover.
  o.setups = 1;
  o.seconds /= 2;
  o.failover_probe = false;
  o.idle_probe = loopback;
  const RunResult u = Run(o);
  PrintRunNotes("untraced", u, loopback);
  o.traced = true;
  o.idle_probe = false;
  const RunResult t = Run(o);
  PrintRunNotes("traced", t, loopback);
  const bool untraced_ok = Audited("untraced", u, loopback);
  bool ok = Audited("traced", t, loopback) && untraced_ok;
  // The wire costs are only meaningful on frames that round-trip.
  if (ok && t.trace.replay_mismatches > 0) {
    std::printf("AUDIT FAILED (traced): %llu of %llu sampled frames did not "
                "decode, or re-encoded to other bytes\n",
                static_cast<unsigned long long>(t.trace.replay_mismatches),
                static_cast<unsigned long long>(t.trace.sampled_frames));
    ok = false;
  }
  const std::uint64_t attempted = Attempted(u) + Attempted(t);
  const std::uint64_t failed = Failed(u) + Failed(t);
  if (!ok) {
    PrintJson(false, attempted, failed, {});
    return 1;
  }
  std::printf("traced run: %llu spans%s, %llu frames replayed, %llu replay "
              "mismatches, deliveries %s\n",
              static_cast<unsigned long long>(t.trace.spans),
              t.trace.spans_full ? " (span log full: interval cut short)" : "",
              static_cast<unsigned long long>(t.trace.sampled_frames),
              static_cast<unsigned long long>(t.trace.replay_mismatches),
              t.trace.deliveries_matched ? "matched per link" : "not matched");
  const std::vector<Metric> layers = PerLayer(t, u, loopback);
  PrintTable("per-layer (traced run)", layers);
  std::vector<Metric> eu = EndToEnd(u, loopback), et = EndToEnd(t, loopback);
  eu.push_back({"cpu_us_per_txn", "us", CpuUsPerTxn(u)});
  et.push_back({"cpu_us_per_txn", "us", CpuUsPerTxn(t)});
  std::printf("tracing overhead (traced - untraced)\n");
  for (std::size_t i = 0; i < eu.size(); ++i) {
    std::printf("  %-36s %14.4f %s  (%+.1f%%)\n", eu[i].name.c_str(),
                et[i].value - eu[i].value, eu[i].unit.c_str(),
                100.0 * Div(et[i].value - eu[i].value, eu[i].value));
  }
  PrintJson(true, attempted, failed, layers);
  return 0;
}

}  // namespace
}  // namespace vsr::perfbench

int main(int argc, char** argv) { return vsr::perfbench::Main(argc, argv); }
