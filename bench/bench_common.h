// Shared helpers for the experiment harness (E1..E13). Each bench binary
// regenerates one of the paper-claim experiments catalogued in DESIGN.md §2
// and prints a table; EXPERIMENTS.md records claim vs. measured.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "client/cluster.h"
#include "tests/test_util.h"
#include "workload/driver.h"

namespace vsr::bench {

// -- machine-readable output ------------------------------------------------
//
// Every bench also writes BENCH_<ID>.json next to where it ran (ID is the
// leading token of the PrintHeader id, e.g. "E13"): the header, every Row()
// line, and any named Metric() values. CI and plotting scripts consume these
// instead of scraping stdout. A smoke run (below) writes
// BENCH_<ID>.smoke.json instead, so it never overwrites a full run's output.

// CHECK_BENCH_SMOKE=1 shrinks each bench's workload ~10x so the full
// experiment sweep doubles as a fast CI smoke gate (scripts/check.sh).
inline bool SmokeMode() {
  const char* v = std::getenv("CHECK_BENCH_SMOKE");
  return v != nullptr && v[0] == '1';
}

namespace detail {

struct JsonSink {
  std::string id;       // "E13" — leading token of the header id
  std::string full_id;  // the whole header line
  std::string claim;
  std::vector<std::string> rows;
  std::vector<std::pair<std::string, double>> metrics;
  bool armed = false;
};

inline JsonSink& Sink() {
  static JsonSink s;
  return s;
}

inline std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

inline void WriteJson() {
  JsonSink& s = Sink();
  if (s.id.empty()) return;
  const std::string path =
      "BENCH_" + s.id + (SmokeMode() ? ".smoke" : "") + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"id\": \"%s\",\n  \"claim\": \"%s\",\n",
               JsonEscape(s.full_id).c_str(), JsonEscape(s.claim).c_str());
  std::fprintf(f, "  \"smoke\": %s,\n", SmokeMode() ? "true" : "false");
  std::fprintf(f, "  \"metrics\": {");
  for (std::size_t i = 0; i < s.metrics.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\": %.6g", i ? "," : "",
                 JsonEscape(s.metrics[i].first).c_str(), s.metrics[i].second);
  }
  std::fprintf(f, "%s},\n", s.metrics.empty() ? "" : "\n  ");
  std::fprintf(f, "  \"rows\": [");
  for (std::size_t i = 0; i < s.rows.size(); ++i) {
    std::fprintf(f, "%s\n    \"%s\"", i ? "," : "",
                 JsonEscape(s.rows[i]).c_str());
  }
  std::fprintf(f, "%s]\n}\n", s.rows.empty() ? "" : "\n  ");
  std::fclose(f);
}

}  // namespace detail

// Records a named numeric result in BENCH_<ID>.json (and echoes nothing —
// pair it with a Row() for the human-readable table).
inline void Metric(const std::string& name, double value) {
  detail::Sink().metrics.emplace_back(name, value);
}

inline void PrintHeader(const std::string& id, const std::string& claim) {
  std::printf("\n==================================================================\n");
  std::printf("%s\n", id.c_str());
  std::printf("Paper claim: %s\n", claim.c_str());
  std::printf("==================================================================\n");
  detail::JsonSink& s = detail::Sink();
  if (s.id.empty()) {
    std::size_t end = 0;
    while (end < id.size() && (std::isalnum(static_cast<unsigned char>(id[end])) != 0)) {
      ++end;
    }
    s.id = id.substr(0, end);
    s.full_id = id;
    s.claim = claim;
  }
  if (!s.armed) {
    s.armed = true;
    std::atexit(detail::WriteJson);
  }
}

inline int Scaled(int full) {
  return SmokeMode() ? std::max(1, full / 10) : full;
}

inline void Row(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  std::printf("%s\n", buf);
  detail::Sink().rows.emplace_back(buf);
}

// Measures per-phase transaction latency at the client primary: the remote
// call portion and the commit decision (prepare + committing-force) portion.
struct PhaseLatencies {
  workload::LatencyRecorder call;      // Fig. 2 "making a remote call"
  workload::LatencyRecorder decision;  // body-done .. outcome known
  workload::LatencyRecorder total;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
};

// Runs `txns` sequential single-call transactions ("put" on a kv group),
// recording phase latencies. `think_time` models user computation between
// the call and the commit request (§3.7's normal case: by commit time the
// completed-call records have already reached a sub-majority in background).
inline PhaseLatencies MeasureTxnPhases(client::Cluster& cluster,
                                       vr::GroupId client_g,
                                       vr::GroupId server_g, int txns,
                                       sim::Duration think_time = 0) {
  PhaseLatencies out;
  for (int i = 0; i < txns; ++i) {
    core::Cohort* primary = cluster.AnyPrimary(client_g);
    if (primary == nullptr) break;
    bool done = false;
    sim::Time start = cluster.sim().Now();
    sim::Time call_done = start;
    const std::string args = "k" + std::to_string(i % 16) + "=v";
    sim::Scheduler* sched = &cluster.sim().scheduler();
    primary->SpawnTransaction(
        [&, server_g, sched](core::TxnHandle& h) -> sim::Task<bool> {
          co_await h.Call(server_g, "put", args);
          if (think_time > 0) co_await sim::Sleep(*sched, think_time);
          call_done = cluster.sim().Now();
          co_return true;
        },
        [&](vr::TxnOutcome o) {
          done = true;
          if (o == vr::TxnOutcome::kCommitted) {
            ++out.committed;
            out.call.Add(call_done - start);
            out.decision.Add(cluster.sim().Now() - call_done);
            out.total.Add(cluster.sim().Now() - start);
          } else {
            ++out.aborted;
          }
        });
    const sim::Time deadline = cluster.sim().Now() + 10 * sim::kSecond;
    while (!done && cluster.sim().Now() < deadline) {
      cluster.RunFor(1 * sim::kMillisecond);
    }
  }
  return out;
}

inline double Us(double v) { return v; }  // latencies are already in µs

}  // namespace vsr::bench
