// Backup read leases (DESIGN.md §14) and the commit-path sweep that rode
// along with them:
//  * a lease-holding backup serves single-object committed reads; an
//    expired or missing lease bounces to the primary with a hint
//  * session horizons refuse reads a backup cannot prove it covers
//  * with the option off (the default) the primary never emits a single
//    lease frame, and the lease-read machinery is fully deterministic
//  * read-only transactions skip the committing/done decision ladder (§3.7)
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>

#include "client/read_client.h"
#include "tests/test_util.h"
#include "workload/catalog.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

// Captures backup-read replies addressed to a raw test mid, so tests can
// craft BackupReadMsg frames directly and inspect the admission verdict.
struct ReplyCapture : net::FrameHandler {
  std::vector<vr::BackupReadReplyMsg> replies;
  void OnFrame(const net::Frame& f) override {
    if (static_cast<vr::MsgType>(f.type) != vr::MsgType::kBackupReadReply) {
      return;
    }
    wire::Reader r(f.payload);
    auto m = vr::BackupReadReplyMsg::Decode(r);
    if (r.ok()) replies.push_back(std::move(m));
  }
};

struct LeaseWorld {
  std::unique_ptr<Cluster> cluster;
  vr::GroupId catalog = 0;
  vr::GroupId client_g = 0;

  explicit LeaseWorld(std::uint64_t seed, bool backup_reads = true) {
    ClusterOptions opts;
    opts.seed = seed;
    opts.cohort.backup_reads = backup_reads;
    cluster = std::make_unique<Cluster>(opts);
    catalog = cluster->AddGroup("catalog", 3);
    client_g = cluster->AddGroup("client", 3);
    workload::RegisterCatalogProcs(*cluster, catalog);
    cluster->Start();
  }

  bool Put(const std::string& item, const std::string& desc) {
    core::Cohort* coord = cluster->AnyPrimary(client_g);
    if (coord == nullptr) return false;
    bool done = false, ok = false;
    coord->SpawnTransaction(
        workload::MakeCatalogPutTxn(catalog, item, desc),
        [&](vr::TxnOutcome o) {
          done = true;
          ok = o == vr::TxnOutcome::kCommitted;
        });
    const sim::Time deadline = cluster->sim().Now() + 10 * sim::kSecond;
    while (!done && cluster->sim().Now() < deadline) {
      cluster->RunFor(1 * sim::kMillisecond);
    }
    return ok;
  }

  core::Cohort* Primary() { return cluster->AnyPrimary(catalog); }
  core::Cohort* Backup() {
    for (auto* c : cluster->Cohorts(catalog)) {
      if (!c->IsActivePrimary()) return c;
    }
    return nullptr;
  }

  // Sends a raw read and runs until the reply (or 1s) passes.
  std::optional<vr::BackupReadReplyMsg> DirectRead(vr::Mid from,
                                                   ReplyCapture& capture,
                                                   vr::Mid target,
                                                   const std::string& uid,
                                                   vr::Viewstamp horizon = {}) {
    static std::uint64_t corr = 1000;
    vr::BackupReadMsg m;
    m.group = catalog;
    m.uid = uid;
    m.horizon = horizon;
    m.corr = ++corr;
    m.reply_to = from;
    cluster->network().Send(from, target,
                            static_cast<std::uint16_t>(vr::MsgType::kBackupRead),
                            vr::EncodeMsg(m));
    const sim::Time deadline = cluster->sim().Now() + 1 * sim::kSecond;
    while (cluster->sim().Now() < deadline) {
      cluster->RunFor(1 * sim::kMillisecond);
      for (auto& r : capture.replies) {
        if (r.corr == m.corr) return r;
      }
    }
    return std::nullopt;
  }
};

TEST(LeaseReads, BackupServesCommittedValueUnderLease) {
  LeaseWorld w(401);
  ASSERT_TRUE(w.cluster->RunUntilStable());
  ASSERT_TRUE(w.Put("item0", "hello"));
  // The grant riding item0's own acks captured a stable watermark from
  // *before* item0's commit record landed, so item0 is not yet provably
  // stable at the backups. A later write (past the renewal interval)
  // renews the lease with a watermark that covers it — only then do the
  // backups serve it. Fresh writes become backup-readable one renewal
  // behind, never inconsistently.
  w.cluster->RunFor(10 * sim::kMillisecond);
  ASSERT_TRUE(w.Put("item1", "later"));
  w.cluster->RunFor(20 * sim::kMillisecond);

  core::Cohort* backup = w.Backup();
  ASSERT_NE(backup, nullptr);
  ReplyCapture capture;
  const vr::Mid test_mid = w.cluster->AllocateMid();
  w.cluster->network().Register(test_mid, &capture);

  auto r = w.DirectRead(test_mid, capture, backup->mid(), "item0");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, vr::ReadStatus::kOk);
  EXPECT_EQ(std::string(r->value.begin(), r->value.end()), "hello");
  // The serving viewstamp pins the backup's current view.
  EXPECT_EQ(r->served_vs.view, backup->cur_viewid());
  EXPECT_EQ(backup->stats().backup_reads_served, 1u);
  EXPECT_GT(backup->stats().lease_grants_received, 0u);
  std::uint64_t granted = 0;
  for (auto* c : w.cluster->Cohorts(w.catalog)) {
    granted += c->buffer().stats().leases_granted;
  }
  EXPECT_GT(granted, 0u);

  // A missing object under a valid lease is an authoritative not-found.
  auto nf = w.DirectRead(test_mid, capture, backup->mid(), "no-such-item");
  ASSERT_TRUE(nf.has_value());
  EXPECT_EQ(nf->status, vr::ReadStatus::kNotFound);
}

TEST(LeaseReads, ExpiredLeaseBouncesToPrimaryWithHint) {
  LeaseWorld w(402);
  ASSERT_TRUE(w.cluster->RunUntilStable());
  ASSERT_TRUE(w.Put("item0", "hello"));
  // No writes -> no ack traffic -> no renewals: run far past the lease.
  w.cluster->RunFor(500 * sim::kMillisecond);

  core::Cohort* backup = w.Backup();
  core::Cohort* primary = w.Primary();
  ASSERT_NE(backup, nullptr);
  ASSERT_NE(primary, nullptr);
  ReplyCapture capture;
  const vr::Mid test_mid = w.cluster->AllocateMid();
  w.cluster->network().Register(test_mid, &capture);

  auto r = w.DirectRead(test_mid, capture, backup->mid(), "item0");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, vr::ReadStatus::kWrongLease);
  EXPECT_EQ(r->primary_hint, primary->mid());
  EXPECT_GT(backup->stats().reads_refused, 0u);

  // The hinted primary serves unconditionally — it IS the committed state.
  auto p = w.DirectRead(test_mid, capture, primary->mid(), "item0");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->status, vr::ReadStatus::kOk);
  EXPECT_EQ(std::string(p->value.begin(), p->value.end()), "hello");
}

TEST(LeaseReads, HorizonPastStableBoundIsRefusedTooNew) {
  LeaseWorld w(403);
  ASSERT_TRUE(w.cluster->RunUntilStable());
  ASSERT_TRUE(w.Put("item0", "hello"));
  // Second write so a renewal's watermark provably covers item0 (see
  // BackupServesCommittedValueUnderLease).
  w.cluster->RunFor(10 * sim::kMillisecond);
  ASSERT_TRUE(w.Put("item1", "later"));
  w.cluster->RunFor(20 * sim::kMillisecond);

  core::Cohort* backup = w.Backup();
  ASSERT_NE(backup, nullptr);
  ReplyCapture capture;
  const vr::Mid test_mid = w.cluster->AllocateMid();
  w.cluster->network().Register(test_mid, &capture);

  // A session claiming to have seen state far past the backup's provable
  // stable prefix must be refused — serving would let its reads run
  // backwards. kTooNew (not kWrongLease): the member keeps its lease.
  const vr::Viewstamp ahead{backup->cur_viewid(), 1u << 30};
  auto r = w.DirectRead(test_mid, capture, backup->mid(), "item0", ahead);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, vr::ReadStatus::kTooNew);

  // An honest horizon (at or below the stable prefix) is served.
  auto ok = w.DirectRead(test_mid, capture, backup->mid(), "item0");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, vr::ReadStatus::kOk);
}

TEST(LeaseReads, ReadClientBouncesAndFallsBackToPrimary) {
  LeaseWorld w(404);
  ASSERT_TRUE(w.cluster->RunUntilStable());
  ASSERT_TRUE(w.Put("item0", "hello"));
  // Let every lease expire so each backup bounces the router's first try.
  w.cluster->RunFor(500 * sim::kMillisecond);

  client::ReadClient rc(w.cluster->sim(), w.cluster->network(),
                        w.cluster->directory(), w.cluster->AllocateMid(),
                        w.cluster->CohortAt(w.catalog, 0).options());
  sim::TaskRegistry tasks(w.cluster->sim().scheduler());
  std::optional<std::string> got;
  bool done = false;
  tasks.Spawn([](client::ReadClient* c, vr::GroupId g, bool* fin,
                 std::optional<std::string>* out) -> sim::Task<void> {
    *out = co_await c->Read(g, "item0");
    *fin = true;
  }(&rc, w.catalog, &done, &got));
  const sim::Time deadline = w.cluster->sim().Now() + 5 * sim::kSecond;
  while (!done && w.cluster->sim().Now() < deadline) {
    w.cluster->RunFor(1 * sim::kMillisecond);
  }
  ASSERT_TRUE(done);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, "hello");
  EXPECT_EQ(rc.stats().reads_ok, 1u);
  // Session horizon advanced to the serving viewstamp.
  EXPECT_GT(rc.horizon(w.catalog).ts, 0u);
}

TEST(LeaseReads, OffByDefaultEmitsNoLeaseFrames) {
  std::uint64_t lease_frames = 0;
  LeaseWorld w(405, /*backup_reads=*/false);
  w.cluster->network().set_observer([&](const net::Frame& f) {
    if (static_cast<vr::MsgType>(f.type) == vr::MsgType::kLeaseGrant) {
      ++lease_frames;
    }
  });
  ASSERT_TRUE(w.cluster->RunUntilStable());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(w.Put(workload::CatalogKey(i), "v1"));
  }
  w.cluster->RunFor(1 * sim::kSecond);
  EXPECT_EQ(lease_frames, 0u);
  for (auto* c : w.cluster->Cohorts(w.catalog)) {
    EXPECT_EQ(c->buffer().stats().leases_granted, 0u);
    EXPECT_EQ(c->stats().lease_grants_received, 0u);
    EXPECT_EQ(c->stats().backup_reads_served, 0u);
  }

  // A backup without the option refuses; the primary still serves — a
  // deployment mixing read clients with the flag off stays available.
  ReplyCapture capture;
  const vr::Mid test_mid = w.cluster->AllocateMid();
  w.cluster->network().Register(test_mid, &capture);
  auto b = w.DirectRead(test_mid, capture, w.Backup()->mid(),
                        workload::CatalogKey(0));
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->status, vr::ReadStatus::kWrongLease);
  auto p = w.DirectRead(test_mid, capture, w.Primary()->mid(),
                        workload::CatalogKey(0));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->status, vr::ReadStatus::kOk);
}

// The lease/read path must not perturb simulator determinism: identical
// seeds with backup_reads on and live ReadClient traffic produce the exact
// same frame schedule, twice.
TEST(LeaseReads, LeaseReadScheduleIsDeterministic) {
  auto digest = [](std::uint64_t seed) {
    LeaseWorld w(seed);
    std::uint64_t schedule_hash = 14695981039346656037ull;
    w.cluster->network().set_observer([&](const net::Frame& f) {
      auto mix = [&](std::uint64_t v) {
        schedule_hash = (schedule_hash ^ v) * 1099511628211ull;
      };
      mix(w.cluster->sim().Now());
      mix(f.from);
      mix(f.to);
      mix(f.type);
      mix(f.payload.size());
    });
    if (!w.cluster->RunUntilStable()) return std::string("unstable");
    for (int i = 0; i < 4; ++i) {
      if (!w.Put(workload::CatalogKey(i), "v1")) return std::string("put");
    }
    client::ReadClient rc(w.cluster->sim(), w.cluster->network(),
                          w.cluster->directory(), w.cluster->AllocateMid(),
                          w.cluster->CohortAt(w.catalog, 0).options());
    sim::TaskRegistry tasks(w.cluster->sim().scheduler());
    std::uint64_t reads_done = 0;
    tasks.Spawn([](client::ReadClient* c, vr::GroupId g,
                   std::uint64_t* n) -> sim::Task<void> {
      for (int i = 0; i < 20; ++i) {
        (void)co_await c->Read(g, workload::CatalogKey(i % 4));
        ++*n;
      }
    }(&rc, w.catalog, &reads_done));
    w.cluster->RunFor(2 * sim::kSecond);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%llu/%llx/%llu",
                  static_cast<unsigned long long>(w.cluster->sim().Now()),
                  static_cast<unsigned long long>(schedule_hash),
                  static_cast<unsigned long long>(reads_done));
    return std::string(buf);
  };
  EXPECT_EQ(digest(406), digest(406));
  EXPECT_NE(digest(406), digest(407));
}

// §3.7 satellite: a transaction whose participants are all read-only is
// already committed and forced everywhere at prepare time — the coordinator
// skips the committing record, its force, the fan-out, and the done record.
TEST(CommitPath, ReadOnlyCommitSkipsDecisionLadder) {
  Cluster cluster(ClusterOptions{.seed = 408});
  auto kv = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  test::RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCall(cluster, agents, kv, "put", "x=1"),
            vr::TxnOutcome::kCommitted);

  auto skipped = [&] {
    std::uint64_t n = 0;
    for (auto* c : cluster.Cohorts(agents)) {
      n += c->stats().read_only_commits_skipped;
    }
    return n;
  };
  const std::uint64_t before = skipped();
  ASSERT_EQ(test::RunOneCall(cluster, agents, kv, "get", "x"),
            vr::TxnOutcome::kCommitted);
  EXPECT_EQ(skipped(), before + 1);
  // The write above did NOT skip (its participant held write locks).
  EXPECT_GE(before, 0u);

  // The value is still there and writable afterwards — skipping the ladder
  // released nothing it shouldn't have.
  ASSERT_EQ(test::RunOneCall(cluster, agents, kv, "put", "x=2"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);
  EXPECT_EQ(test::CommittedValue(cluster, kv, "x"), "2");
}

// CHECK_SOAK=1 variant: readers stay serializable while primaries crash and
// views change underneath them, for many rounds.
TEST(LeaseSoak, ReadsStaySerializableAcrossCrashes) {
  const char* soak_env = std::getenv("CHECK_SOAK");
  const bool long_run = soak_env != nullptr && soak_env[0] == '1';
  const int rounds = long_run ? 12 : 2;

  LeaseWorld w(410);
  ASSERT_TRUE(w.cluster->RunUntilStable());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(w.Put(workload::CatalogKey(i), "v1"));
  }

  client::ReadClient rc(w.cluster->sim(), w.cluster->network(),
                        w.cluster->directory(), w.cluster->AllocateMid(),
                        w.cluster->CohortAt(w.catalog, 0).options());
  sim::TaskRegistry tasks(w.cluster->sim().scheduler());
  bool stop = false;
  std::uint64_t regressions = 0, reads = 0;
  std::map<std::string, long long> last_version;
  tasks.Spawn([](client::ReadClient* c, vr::GroupId g, bool* stop_flag,
                 std::map<std::string, long long>* last, std::uint64_t* regress,
                 std::uint64_t* count) -> sim::Task<void> {
    sim::Rng rng(4100);
    while (!*stop_flag) {
      const std::string item =
          workload::CatalogKey(static_cast<int>(rng.Index(8)));
      auto v = co_await c->Read(g, item);
      if (!v || v->size() < 2) continue;
      ++*count;
      const long long ver = std::stoll(v->substr(1));
      long long& prev = (*last)[item];
      if (ver < prev) ++*regress;
      prev = std::max(prev, ver);
    }
  }(&rc, w.catalog, &stop, &last_version, &regressions, &reads));

  sim::Rng rng(411);
  for (int round = 0; round < rounds; ++round) {
    // Writes renew leases and advance versions.
    for (int i = 0; i < 6; ++i) {
      core::Cohort* coord = w.cluster->AnyPrimary(w.client_g);
      if (coord == nullptr) break;
      bool done = false;
      coord->SpawnTransaction(
          workload::MakeCatalogBumpTxn(
              w.catalog, workload::CatalogKey(static_cast<int>(rng.Index(8)))),
          [&](vr::TxnOutcome) { done = true; });
      const sim::Time deadline = w.cluster->sim().Now() + 5 * sim::kSecond;
      while (!done && w.cluster->sim().Now() < deadline) {
        w.cluster->RunFor(1 * sim::kMillisecond);
      }
    }
    // Crash the catalog primary mid-traffic; the view change revokes every
    // lease before the new view serves anything.
    core::Cohort* primary = w.Primary();
    if (primary != nullptr) {
      const std::size_t idx = [&] {
        auto cohorts = w.cluster->Cohorts(w.catalog);
        for (std::size_t i = 0; i < cohorts.size(); ++i) {
          if (cohorts[i] == primary) return i;
        }
        return std::size_t{0};
      }();
      w.cluster->Crash(w.catalog, idx);
      w.cluster->RunFor(2 * sim::kSecond);
      w.cluster->Recover(w.catalog, idx);
      ASSERT_TRUE(w.cluster->RunUntilStable());
    }
  }
  stop = true;
  w.cluster->RunFor(200 * sim::kMillisecond);
  EXPECT_EQ(regressions, 0u);
  EXPECT_GT(reads, 0u);
}

}  // namespace
}  // namespace vsr
