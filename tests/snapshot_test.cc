// Snapshot state transfer (DESIGN.md §9): unit tests for the one-frame
// image sender (SnapshotServer) and its frame check (WholeImage), and cluster
// integration tests for backup catch-up once the communication buffer has
// garbage-collected past a laggard's ack.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "sim/simulation.h"
#include "tests/test_util.h"
#include "vr/snapshot.h"
#include "wire/buffer.h"

namespace vsr::vr {
namespace {

// ---------------------------------------------------------------------------
// Unit tests: the server driven directly, with the test as the "network".
// ---------------------------------------------------------------------------

constexpr GroupId kGroup = 7;
constexpr Mid kSelf = 1;
constexpr Mid kBackup = 2;
constexpr ViewId kView{3, 1};

class SnapshotUnitTest : public ::testing::Test {
 protected:
  SnapshotUnitTest()
      : server_([this](Mid to, const SnapshotChunkMsg& m) {
          outbox_.push_back({to, m});
        }) {
    server_.StartView(kView, kGroup, kSelf);
    payload_.resize(45);
    std::iota(payload_.begin(), payload_.end(), std::uint8_t{1});
    vs_ = Viewstamp{kView, 40};
  }

  SnapshotChunkMsg ServeOne() {
    server_.Serve(kBackup, vs_, payload_);
    EXPECT_EQ(outbox_.size(), 1u);
    EXPECT_EQ(outbox_.back().first, kBackup);
    return outbox_.back().second;
  }

  SnapshotServer server_;
  std::vector<std::pair<Mid, SnapshotChunkMsg>> outbox_;
  std::vector<std::uint8_t> payload_;
  Viewstamp vs_;
};

TEST_F(SnapshotUnitTest, ImageTravelsAsOneWholeFrame) {
  const SnapshotChunkMsg m = ServeOne();
  EXPECT_EQ(m.group, kGroup);
  EXPECT_EQ(m.viewid, kView);
  EXPECT_EQ(m.from, kSelf);
  EXPECT_EQ(m.vs, vs_);
  EXPECT_EQ(m.offset, 0u);
  EXPECT_EQ(m.total_size, payload_.size());
  EXPECT_EQ(m.data, payload_);
  EXPECT_EQ(m.checksum, wire::Crc32(std::span<const std::uint8_t>(payload_)));
  EXPECT_TRUE(m.Valid());
  EXPECT_TRUE(WholeImage(m));

  // The receiver's install ack names the image and its whole size, and
  // completes the transfer at the server.
  const SnapshotAckMsg ack = InstallAck(m, kBackup);
  EXPECT_EQ(ack.group, kGroup);
  EXPECT_EQ(ack.viewid, kView);
  EXPECT_EQ(ack.from, kBackup);
  EXPECT_EQ(ack.vs, vs_);
  EXPECT_EQ(ack.offset, payload_.size());
  server_.OnAck(ack);
  EXPECT_EQ(server_.stats().images_sent, 1u);
  EXPECT_EQ(server_.stats().bytes_sent, payload_.size());
  EXPECT_EQ(server_.stats().transfers_completed, 1u);
  EXPECT_EQ(server_.stats().acks_rejected, 0u);
}

TEST_F(SnapshotUnitTest, TornOrForgedFrameIsNotAnImage) {
  const SnapshotChunkMsg whole = ServeOne();
  ASSERT_TRUE(WholeImage(whole));

  // A part of an image at a nonzero offset.
  SnapshotChunkMsg torn = whole;
  torn.offset = 5;
  torn.data.erase(torn.data.begin(), torn.data.begin() + 5);
  EXPECT_TRUE(torn.Valid());
  EXPECT_FALSE(WholeImage(torn));

  // Offset 0 but short of the announced size.
  SnapshotChunkMsg short_data = whole;
  short_data.data.pop_back();
  EXPECT_TRUE(short_data.Valid());
  EXPECT_FALSE(WholeImage(short_data));

  // Whole, but the bytes do not match the CRC the frame claims.
  SnapshotChunkMsg forged = whole;
  forged.data[3] ^= 0xff;
  EXPECT_FALSE(WholeImage(forged));
}

TEST_F(SnapshotUnitTest, AckValidationRejectsForeignOrStale) {
  const SnapshotAckMsg honest = InstallAck(ServeOne(), kBackup);

  SnapshotAckMsg a = honest;
  a.viewid = ViewId{4, 1};  // wrong view
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 1u);

  a = honest;
  a.group = kGroup + 1;  // wrong group
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 2u);

  a = honest;
  a.vs = Viewstamp{ViewId{2, 1}, 99};  // an image of an older view
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 3u);

  a = honest;
  a.offset = 0;  // acknowledges no image
  server_.OnAck(a);
  EXPECT_EQ(server_.stats().acks_rejected, 4u);
  EXPECT_EQ(server_.stats().transfers_completed, 0u);

  // None of those counted; the honest ack does.
  server_.OnAck(honest);
  EXPECT_EQ(server_.stats().acks_rejected, 4u);
  EXPECT_EQ(server_.stats().transfers_completed, 1u);

  // A stopped server (view change, crash) accepts no ack.
  server_.Stop();
  server_.OnAck(honest);
  EXPECT_EQ(server_.stats().acks_rejected, 5u);
  EXPECT_EQ(server_.stats().transfers_completed, 1u);
}

TEST_F(SnapshotUnitTest, StoppedServerSendsNothing) {
  server_.Stop();
  server_.Serve(kBackup, vs_, payload_);
  EXPECT_TRUE(outbox_.empty());
  EXPECT_EQ(server_.stats().images_sent, 0u);

  // Leading a view again, it sends exactly one frame per request.
  server_.StartView(ViewId{5, 1}, kGroup, kSelf);
  server_.Serve(kBackup, Viewstamp{ViewId{5, 1}, 1}, payload_);
  ASSERT_EQ(outbox_.size(), 1u);
  EXPECT_EQ(outbox_[0].second.viewid, (ViewId{5, 1}));
}

// ---------------------------------------------------------------------------
// Integration: a real cluster where the buffer GCs past a laggard.
// ---------------------------------------------------------------------------

using client::Cluster;
using client::ClusterOptions;
using test::RegisterKvProcs;
using test::RunOneCallWithRetry;

std::size_t IndexOfPrimary(Cluster& cluster, GroupId g) {
  auto cohorts = cluster.Cohorts(g);
  for (std::size_t i = 0; i < cohorts.size(); ++i) {
    if (cohorts[i]->IsActivePrimary()) return i;
  }
  return cohorts.size();
}

core::CohortOptions LaggardFriendlyOptions() {
  core::CohortOptions o;
  // Suppress failure-detection view changes while a backup is cut off: this
  // test is about state transfer, not elections.
  o.liveness_timeout = 60 * sim::kSecond;
  // A small buffer window so a modest workload outruns the laggard.
  o.buffer.window = 8;
  return o;
}

TEST(SnapshotIntegration, PartitionedBackupCatchesUpViaStateTransfer) {
  core::CohortOptions opts = LaggardFriendlyOptions();
  Cluster cluster(ClusterOptions{.seed = 91});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& laggard = cluster.CohortAt(kv, (pi + 1) % 3);
  ASSERT_EQ(laggard.status(), core::Status::kActive);

  // Cut the laggard off from the primary and commit far more than the
  // buffer window of work (~5 records per txn >> window 8).
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), true);
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              TxnOutcome::kCommitted)
        << "txn " << i;
  }
  cluster.RunFor(500 * sim::kMillisecond);

  // The dead backup no longer pins the buffer: resident records stay
  // O(window) and the laggard was routed through state transfer.
  EXPECT_LE(primary.buffer().records().size(),
            opts.buffer.window + kMaxBatch);
  EXPECT_GE(primary.buffer().stats().snapshots_served, 1u);
  EXPECT_LT(laggard.applied_ts(), primary.buffer().base_ts());

  // Heal. The next image request (one per kRetransmitInterval) reaches the
  // laggard, which installs the image and rejoins the record stream.
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), false);
  cluster.RunFor(2 * sim::kSecond);

  EXPECT_GE(laggard.stats().snapshots_installed, 1u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
  EXPECT_EQ(laggard.applied_ts(), primary.buffer().last_ts());
  EXPECT_GE(primary.snapshot_server().stats().transfers_completed, 1u);
  for (int i : {0, 17, 39}) {
    EXPECT_EQ(laggard.objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "v" + std::to_string(i))
        << "key k" << i;
  }

  // The group still commits new work, and the caught-up backup sees it.
  ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);
  EXPECT_EQ(laggard.objects().ReadCommitted("post").value_or(""), "1");
}

TEST(SnapshotIntegration, TransferSurvivesTwentyPercentLoss) {
  core::CohortOptions opts = LaggardFriendlyOptions();
  Cluster cluster(ClusterOptions{.seed = 92});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& laggard = cluster.CohortAt(kv, (pi + 1) % 3);

  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), true);
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              TxnOutcome::kCommitted);
  }
  cluster.RunFor(500 * sim::kMillisecond);
  ASSERT_GE(primary.buffer().stats().snapshots_served, 1u);

  // Heal the link but drop 20% of every frame: images and acks both. The
  // buffer's per-backup deadline re-serves a lost image until one lands.
  net::NetworkOptions lossy = cluster.network().options();
  lossy.loss_probability = 0.2;
  cluster.network().set_options(lossy);
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), false);
  cluster.RunFor(5 * sim::kSecond);

  lossy.loss_probability = 0.0;
  cluster.network().set_options(lossy);
  cluster.RunFor(1 * sim::kSecond);

  EXPECT_GE(laggard.stats().snapshots_installed, 1u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
  EXPECT_EQ(laggard.applied_ts(), primary.buffer().last_ts());
  for (int i : {0, 17, 39}) {
    EXPECT_EQ(laggard.objects()
                  .ReadCommitted("k" + std::to_string(i))
                  .value_or(""),
              "v" + std::to_string(i));
  }
}

// Shared setup for the image-lost-in-flight tests: returns once the primary
// has served the laggard (index pi+1 mod 3) an image that the cut link then
// drops in flight, with `pad`-sized values at keys k0..k29 that only the
// primary and the other backup hold.
struct LostImageRig {
  std::size_t pi = 0;  // primary index
  std::size_t li = 0;  // laggard index
  std::string pad = std::string(48, 'x');
};

LostImageRig SetUpLostImage(Cluster& cluster, GroupId kv, GroupId client_g) {
  LostImageRig rig;
  EXPECT_TRUE(cluster.RunUntilStable());
  rig.pi = IndexOfPrimary(cluster, kv);
  EXPECT_LT(rig.pi, 3u);
  rig.li = (rig.pi + 1) % 3;
  core::Cohort& primary = cluster.CohortAt(kv, rig.pi);
  core::Cohort& laggard = cluster.CohortAt(kv, rig.li);

  EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "pre=1"),
            TxnOutcome::kCommitted);
  cluster.RunFor(50 * sim::kMillisecond);
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), true);
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=" + rig.pad +
                                      std::to_string(i)),
              TxnOutcome::kCommitted);
  }
  cluster.RunFor(200 * sim::kMillisecond);
  EXPECT_GE(primary.buffer().stats().snapshots_served, 1u);

  // Heal until the next image leaves the primary, then cut the link again
  // before it can arrive (a frame takes at least 100 us): the image is lost
  // in flight.
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), false);
  const std::uint64_t sent = primary.snapshot_server().stats().images_sent;
  for (int i = 0; i < 1000 &&
                  primary.snapshot_server().stats().images_sent == sent;
       ++i) {
    cluster.RunFor(50 * sim::kMicrosecond);
  }
  EXPECT_GT(primary.snapshot_server().stats().images_sent, sent);
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), true);
  EXPECT_EQ(laggard.stats().snapshots_installed, 0u);
  return rig;
}

core::CohortOptions LostImageOptions() {
  core::CohortOptions o;
  // Long enough to keep the lag phase election-free, short enough that the
  // failures below are detected promptly.
  o.liveness_timeout = 1 * sim::kSecond;
  o.buffer.window = 8;
  return o;
}

// The laggard holds its pre-transfer prefix: the early key, and none of the
// lagged ones — never a torn mix.
void ExpectPreTransferPrefix(core::Cohort& laggard) {
  EXPECT_EQ(laggard.objects().ReadCommitted("pre").value_or(""), "1");
  for (int i : {0, 13, 29}) {
    EXPECT_FALSE(
        laggard.objects().ReadCommitted("k" + std::to_string(i)).has_value())
        << "key k" << i;
  }
}

TEST(SnapshotIntegration, ImageLostInFlightPrimaryCrashFormsViewPromptly) {
  core::CohortOptions opts = LostImageOptions();
  Cluster cluster(ClusterOptions{.seed = 94});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  LostImageRig rig = SetUpLostImage(cluster, kv, client_g);
  if (::testing::Test::HasFailure()) return;
  core::Cohort& laggard = cluster.CohortAt(kv, rig.li);
  const std::size_t hi = 3 - rig.pi - rig.li;  // the up-to-date backup

  cluster.Crash(kv, rig.pi);
  ExpectPreTransferPrefix(laggard);

  // The install is one event that never happened, so the laggard answers
  // the view change normally with its prefix: with the up-to-date backup
  // that is a majority of normal acceptances (§4 condition (1)), and the
  // view forms at failure-detector speed — no abandon timer to wait out.
  // The up-to-date backup holds the largest viewstamp and leads it.
  ASSERT_TRUE(
      cluster.RunUntilStable(opts.liveness_timeout + 1 * sim::kSecond));
  EXPECT_EQ(IndexOfPrimary(cluster, kv), hi);
  EXPECT_EQ(laggard.stats().snapshots_installed, 0u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
  // The newview gstate caught the laggard all the way up.
  EXPECT_EQ(laggard.objects().ReadCommitted("k13").value_or(""),
            rig.pad + "13");
  EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            TxnOutcome::kCommitted);
}

TEST(SnapshotIntegration, ImageLostInFlightNewViewCatchesLaggardUp) {
  core::CohortOptions opts = LostImageOptions();
  Cluster cluster(ClusterOptions{.seed = 93});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  LostImageRig rig = SetUpLostImage(cluster, kv, client_g);
  if (::testing::Test::HasFailure()) return;
  core::Cohort& primary = cluster.CohortAt(kv, rig.pi);
  core::Cohort& laggard = cluster.CohortAt(kv, rig.li);
  const ViewId old_viewid = primary.cur_viewid();
  ExpectPreTransferPrefix(laggard);

  // Isolate the old primary from everyone: the two backups detect it and
  // form a view without it.
  std::vector<net::NodeId> isolated{primary.mid()};
  std::vector<net::NodeId> rest;
  for (core::Cohort* c : cluster.Cohorts(kv)) {
    if (c->mid() != primary.mid()) rest.push_back(c->mid());
  }
  for (core::Cohort* c : cluster.Cohorts(client_g)) rest.push_back(c->mid());
  cluster.network().Partition({isolated, rest});
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), false);
  cluster.RunFor(opts.liveness_timeout + 1 * sim::kSecond);
  EXPECT_GT(laggard.cur_viewid(), old_viewid);

  // Heal: the new view's newview record, not an image, brought the laggard
  // up to date, and every active cohort agrees on the lagged keys.
  cluster.network().Heal();
  ASSERT_TRUE(cluster.RunUntilStable(10 * sim::kSecond));
  cluster.RunFor(500 * sim::kMillisecond);
  EXPECT_EQ(laggard.stats().snapshots_installed, 0u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
  for (int i : {0, 13, 29}) {
    const std::string want = rig.pad + std::to_string(i);
    for (core::Cohort* c : cluster.Cohorts(kv)) {
      if (c->status() != core::Status::kActive) continue;
      EXPECT_EQ(c->objects()
                    .ReadCommitted("k" + std::to_string(i))
                    .value_or(""),
                want)
          << "cohort " << c->mid() << " key k" << i;
    }
  }
  EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "post=1"),
            TxnOutcome::kCommitted);
}

TEST(SnapshotIntegration, TornOrForgedImageIsNeitherInstalledNorAcked) {
  core::CohortOptions opts = LaggardFriendlyOptions();
  Cluster cluster(ClusterOptions{.seed = 95});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "a=1"),
            TxnOutcome::kCommitted);
  cluster.RunFor(100 * sim::kMillisecond);
  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& backup = cluster.CohortAt(kv, (pi + 1) % 3);

  // Frames that claim to come from the backup's own primary, in its view,
  // for an image past everything it applied.
  std::vector<std::uint8_t> bytes(64, 0x5a);
  SnapshotChunkMsg whole;
  whole.group = kv;
  whole.viewid = backup.cur_viewid();
  whole.from = primary.mid();
  whole.vs = Viewstamp{backup.cur_viewid(), backup.applied_ts() + 100};
  whole.total_size = bytes.size();
  whole.checksum = wire::Crc32(std::span<const std::uint8_t>(bytes));
  whole.data = bytes;
  SnapshotChunkMsg torn = whole;
  torn.offset = 8;
  torn.data.resize(16);
  SnapshotChunkMsg short_data = whole;
  short_data.data.resize(63);
  SnapshotChunkMsg forged = whole;
  forged.checksum ^= 1;

  auto acks_sent = [&] {
    const auto& by_type = cluster.network().stats().sent_by_type;
    auto it = by_type.find(static_cast<std::uint16_t>(MsgType::kSnapshotAck));
    return it == by_type.end() ? 0 : it->second;
  };
  auto deliver = [&](const SnapshotChunkMsg& m) {
    cluster.network().Send(primary.mid(), backup.mid(),
                           static_cast<std::uint16_t>(MsgType::kSnapshotChunk),
                           EncodeMsg(m));
    cluster.RunFor(10 * sim::kMillisecond);
  };
  const std::uint64_t acks0 = acks_sent();
  for (const SnapshotChunkMsg* m : {&torn, &short_data, &forged}) {
    deliver(*m);
    // Not even parsed: neither installed, nor rejected, nor acked.
    EXPECT_EQ(backup.stats().snapshots_installed, 0u);
    EXPECT_EQ(backup.stats().snapshot_installs_rejected, 0u);
    EXPECT_EQ(acks_sent(), acks0);
  }
  // A whole frame passes the check and reaches the install, which rejects
  // its bytes (they are no state image): still nothing installed or acked.
  deliver(whole);
  EXPECT_EQ(backup.stats().snapshots_installed, 0u);
  EXPECT_EQ(backup.stats().snapshot_installs_rejected, 1u);
  EXPECT_EQ(acks_sent(), acks0);
  EXPECT_EQ(backup.objects().ReadCommitted("a").value_or(""), "1");
  EXPECT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "b=2"),
            TxnOutcome::kCommitted);
}

}  // namespace
}  // namespace vsr::vr
