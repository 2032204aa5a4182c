// E15 — consistent reads at backups via viewstamp leases (DESIGN.md §14).
//
// The paper funnels every operation through the primary; backups are pure
// redundancy. The lease extension lets each backup answer single-object
// committed reads while it holds a viewstamp lease from the current
// primary, so a read-heavy workload's throughput scales with the replica
// count instead of saturating one CPU.
//
// Measured: identical-seed worlds (a read-mostly catalog: closed-loop
// readers + closed-loop version-bump writers, primary CPU-bound via
// call_service_time), with backup_reads off (every read bounces to the
// primary) and on (lease-holding backups serve). Reported: aggregate read
// throughput multiplier (must be >= 2x at 3 replicas in full mode), the
// write-latency cost, and a serializability audit — every reader checks
// that per-item versions never run backwards across servers, which is
// exactly the monotone-session guarantee the lease admission rule promises.
#include "bench/bench_common.h"
#include "client/read_client.h"
#include "workload/catalog.h"
#include "workload/stats.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

constexpr int kItems = 48;
constexpr int kReaders = 12;

struct WorldResult {
  std::uint64_t reads = 0;
  std::uint64_t violations = 0;  // per-reader per-item version regressions
  std::uint64_t bounces = 0;
  std::uint64_t read_timeouts = 0;
  std::uint64_t backup_reads_served = 0;
  std::uint64_t reads_served_total = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t writes = 0;
  double write_latency_us = -1;
  double read_rate_per_s = 0;
  bool ok = false;
};

struct ReaderState {
  std::uint64_t reads = 0;
  std::uint64_t violations = 0;
  std::map<std::string, long long> last_version;
};

long long ParseVersion(const std::string& v) {
  if (v.size() < 2 || v[0] != 'v') return 0;
  return std::stoll(v.substr(1));
}

WorldResult RunWorld(bool backup_reads) {
  WorldResult out;
  ClusterOptions opts;
  opts.seed = 1500;  // identical worlds; only the lease flag differs
  opts.cohort.backup_reads = backup_reads;
  // The primary must be CPU-bound for read scale-out to have anything to
  // show: every call and every served read charges this much serial CPU
  // (well above the ~600us network round trip, so the serial resource —
  // not the wire — is the bottleneck the leases relieve).
  opts.cohort.call_service_time = 300 * sim::kMicrosecond;
  Cluster cluster(opts);
  auto catalog = cluster.AddGroup("catalog", 3);
  auto client_g = cluster.AddGroup("client", 3);
  workload::RegisterCatalogProcs(cluster, catalog);
  cluster.Start();
  if (!cluster.RunUntilStable()) return out;

  // Seed the catalog (single-shot writes through the coordinator).
  for (int i = 0; i < kItems; ++i) {
    core::Cohort* coord = cluster.AnyPrimary(client_g);
    if (coord == nullptr) return out;
    bool done = false, committed = false;
    coord->SpawnTransaction(
        workload::MakeCatalogPutTxn(catalog, workload::CatalogKey(i), "v1"),
        [&](vr::TxnOutcome o) {
          done = true;
          committed = o == vr::TxnOutcome::kCommitted;
        });
    const sim::Time deadline = cluster.sim().Now() + 5 * sim::kSecond;
    while (!done && cluster.sim().Now() < deadline) {
      cluster.RunFor(1 * sim::kMillisecond);
    }
    if (!committed) return out;
  }
  cluster.RunFor(200 * sim::kMillisecond);  // let seeding acks drain

  sim::Scheduler& sched = cluster.sim().scheduler();
  sim::TaskRegistry tasks;
  bool stop = false;

  // Closed-loop readers, one ReadClient each (distinct session horizons).
  std::vector<std::unique_ptr<client::ReadClient>> read_clients;
  std::vector<ReaderState> readers(kReaders);
  for (int i = 0; i < kReaders; ++i) {
    read_clients.push_back(std::make_unique<client::ReadClient>(
        cluster.sim(), cluster.network(), cluster.directory(),
        cluster.AllocateMid(), opts.cohort));
  }
  auto reader_loop = [&](client::ReadClient* rc, ReaderState* st,
                         std::uint64_t seed) -> sim::Task<void> {
    sim::Rng rng(seed);
    while (!stop) {
      const std::string item =
          workload::CatalogKey(static_cast<int>(rng.Index(kItems)));
      auto v = co_await rc->Read(catalog, item);
      if (!v) continue;
      ++st->reads;
      const long long version = ParseVersion(*v);
      long long& last = st->last_version[item];
      // A session must never observe an item's version running backwards —
      // whichever replica answered, and across view changes.
      if (version < last) ++st->violations;
      last = std::max(last, version);
    }
  };
  for (int i = 0; i < kReaders; ++i) {
    tasks.Spawn(reader_loop(read_clients[i].get(), &readers[i], 9000 + i));
  }

  // Closed-loop writer: version bumps keep the replication (and therefore
  // lease-renewal) traffic flowing and give the audit something to catch.
  workload::LatencyRecorder write_latency;
  auto writer_loop = [&]() -> sim::Task<void> {
    sim::Rng rng(77);
    while (!stop) {
      core::Cohort* coord = cluster.AnyPrimary(client_g);
      if (coord == nullptr) {
        co_await sim::Sleep(sched, 1 * sim::kMillisecond);
        continue;
      }
      bool done = false;
      const sim::Time start = cluster.sim().Now();
      coord->SpawnTransaction(
          workload::MakeCatalogBumpTxn(
              catalog,
              workload::CatalogKey(static_cast<int>(rng.Index(kItems)))),
          [&](vr::TxnOutcome o) {
            done = true;
            if (o == vr::TxnOutcome::kCommitted) {
              ++out.writes;
              write_latency.Add(cluster.sim().Now() - start);
            }
          });
      while (!done) co_await sim::Sleep(sched, 100 * sim::kMicrosecond);
    }
  };
  tasks.Spawn(writer_loop());

  const sim::Duration window =
      static_cast<sim::Duration>(bench::Scaled(3000)) * sim::kMillisecond;
  const sim::Time t0 = cluster.sim().Now();
  cluster.RunFor(window);
  stop = true;
  cluster.RunFor(100 * sim::kMillisecond);  // drain in-flight loops
  const double secs =
      static_cast<double>(cluster.sim().Now() - t0) / sim::kSecond;

  for (const ReaderState& st : readers) {
    out.reads += st.reads;
    out.violations += st.violations;
  }
  for (const auto& rc : read_clients) {
    out.bounces += rc->stats().bounces;
    out.read_timeouts += rc->stats().read_timeouts;
  }
  for (auto* c : cluster.Cohorts(catalog)) {
    out.backup_reads_served += c->stats().backup_reads_served;
    out.reads_served_total += c->stats().reads_served;
    out.leases_granted += c->buffer().stats().leases_granted;
  }
  out.write_latency_us = write_latency.Mean();
  out.read_rate_per_s = secs > 0 ? static_cast<double>(out.reads) / secs : 0;
  out.ok = true;
  return out;
}

}  // namespace
}  // namespace vsr

int main() {
  using namespace vsr;
  bench::PrintHeader(
      "E15: read scale-out via viewstamp leases at backups (DESIGN.md §14)",
      "lease-holding backups serve consistent committed reads, so read "
      "throughput scales with replicas instead of saturating the primary");

  const WorldResult off = RunWorld(false);
  const WorldResult on = RunWorld(true);
  if (!off.ok || !on.ok) {
    bench::Row("  world failed to stabilize/seed — no result");
    return 1;
  }

  bench::Row("  3 replicas, %d items, %d closed-loop readers + 1 writer,", kItems,
             kReaders);
  bench::Row("  primary CPU-bound (300us/call); identical seeds, lease flag only:");
  bench::Row("    backup_reads=off : %8.0f reads/s  (%llu reads, %llu bounces, %llu timeouts)",
             off.read_rate_per_s, static_cast<unsigned long long>(off.reads),
             static_cast<unsigned long long>(off.bounces),
             static_cast<unsigned long long>(off.read_timeouts));
  bench::Row("    backup_reads=on  : %8.0f reads/s  (%llu reads, %llu served at backups, %llu leases granted)",
             on.read_rate_per_s, static_cast<unsigned long long>(on.reads),
             static_cast<unsigned long long>(on.backup_reads_served),
             static_cast<unsigned long long>(on.leases_granted));
  const double multiplier =
      off.read_rate_per_s > 0 ? on.read_rate_per_s / off.read_rate_per_s : 0;
  bench::Row("    -> aggregate read throughput multiplier: %.2fx", multiplier);
  bench::Row("    lease grants ride the existing ack frames: no extra");
  bench::Row("    write-path round trips, so writes get cheaper too when the");
  bench::Row("    reads leave the primary's CPU.");
  bench::Row("    writes committed: off %llu, on %llu; write latency off %0.0fus on %0.0fus",
             static_cast<unsigned long long>(off.writes),
             static_cast<unsigned long long>(on.writes), off.write_latency_us,
             on.write_latency_us);
  const std::uint64_t violations = off.violations + on.violations;
  bench::Row("    serializability audit: %llu version regressions observed",
             static_cast<unsigned long long>(violations));

  bench::Metric("reads_per_s_off", off.read_rate_per_s);
  bench::Metric("reads_per_s_on", on.read_rate_per_s);
  bench::Metric("read_throughput_multiplier", multiplier);
  bench::Metric("backup_reads_served", static_cast<double>(on.backup_reads_served));
  bench::Metric("leases_granted", static_cast<double>(on.leases_granted));
  bench::Metric("bounces_on", static_cast<double>(on.bounces));
  bench::Metric("write_latency_off_us", off.write_latency_us);
  bench::Metric("write_latency_on_us", on.write_latency_us);
  bench::Metric("serializability_violations", static_cast<double>(violations));

  if (violations != 0) {
    bench::Row("  FAIL: serializability audit found version regressions");
    return 1;
  }
  if (!bench::SmokeMode() && multiplier < 2.0) {
    bench::Row("  FAIL: expected >= 2x read scale-out at 3 replicas, got %.2fx",
               multiplier);
    return 1;
  }
  return 0;
}
