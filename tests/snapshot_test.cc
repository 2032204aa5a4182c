// Snapshot state transfer (DESIGN.md §9): unit tests for the one-frame
// image sender (SnapshotServer) and its frame check (WholeImage), and cluster
// integration tests for backup catch-up once the communication buffer has
// garbage-collected past a laggard's ack.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
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
    payload_.resize(45);
    std::iota(payload_.begin(), payload_.end(), std::uint8_t{1});
    vs_ = Viewstamp{kView, 40};
  }

  SnapshotChunkMsg ServeOne() {
    server_.Serve(kBackup, kGroup, kSelf, vs_, payload_);
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
  EXPECT_EQ(m.from, kSelf);
  EXPECT_EQ(m.vs, vs_);
  EXPECT_EQ(m.data, payload_);
  EXPECT_EQ(m.checksum, wire::Crc32(std::span<const std::uint8_t>(payload_)));
  EXPECT_TRUE(m.Valid());
  EXPECT_TRUE(WholeImage(m));

  // The receiver's install ack names the image and completes the transfer
  // at the server.
  const SnapshotAckMsg ack = InstallAck(m, kBackup);
  EXPECT_EQ(ack.group, kGroup);
  EXPECT_EQ(ack.from, kBackup);
  EXPECT_EQ(ack.vs, vs_);
  server_.OnAck(ack, kView);
  EXPECT_EQ(server_.stats().images_sent, 1u);
  EXPECT_EQ(server_.stats().bytes_sent, payload_.size());
  EXPECT_EQ(server_.stats().transfers_completed, 1u);
  EXPECT_EQ(server_.stats().acks_rejected, 0u);
}

TEST_F(SnapshotUnitTest, TruncatedOrBitFlippedFrameFailsTheCrc) {
  const SnapshotChunkMsg whole = ServeOne();
  ASSERT_TRUE(WholeImage(whole));

  // Each of these decodes (Valid: it carries data); only the CRC tells it
  // from the image the sender meant.
  SnapshotChunkMsg truncated = whole;
  truncated.data.pop_back();
  EXPECT_TRUE(truncated.Valid());
  EXPECT_FALSE(WholeImage(truncated));

  SnapshotChunkMsg flipped = whole;
  flipped.data[3] ^= 0x01;
  EXPECT_TRUE(flipped.Valid());
  EXPECT_FALSE(WholeImage(flipped));

  SnapshotChunkMsg forged = whole;
  forged.checksum ^= 1;
  EXPECT_FALSE(WholeImage(forged));
}

TEST_F(SnapshotUnitTest, AckOfAnImageOfAnotherViewIsRejected) {
  const SnapshotAckMsg honest = InstallAck(ServeOne(), kBackup);

  SnapshotAckMsg a = honest;
  a.vs = Viewstamp{ViewId{2, 1}, 99};  // an image of an older view
  server_.OnAck(a, kView);
  EXPECT_EQ(server_.stats().acks_rejected, 1u);

  // An ack of an image sent in a view the caller no longer leads.
  server_.OnAck(honest, ViewId{5, 1});
  EXPECT_EQ(server_.stats().acks_rejected, 2u);
  EXPECT_EQ(server_.stats().transfers_completed, 0u);

  // None of those counted; the honest ack does.
  server_.OnAck(honest, kView);
  EXPECT_EQ(server_.stats().acks_rejected, 2u);
  EXPECT_EQ(server_.stats().transfers_completed, 1u);
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

std::uint64_t FramesSent(Cluster& cluster, MsgType type) {
  const auto& by_type = cluster.network().stats().sent_by_type;
  auto it = by_type.find(static_cast<std::uint16_t>(type));
  return it == by_type.end() ? 0 : it->second;
}

TEST(SnapshotIntegration, TruncatedOrBitFlippedImageFailsOnTheCrcAlone) {
  core::CohortOptions opts = LaggardFriendlyOptions();
  Cluster cluster(ClusterOptions{.seed = 95});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& laggard = cluster.CohortAt(kv, (pi + 1) % 3);

  // Catch the laggard up by a real image, and keep a copy of that frame.
  std::optional<SnapshotChunkMsg> real;
  cluster.network().set_observer([&](const net::Frame& f) {
    if (!real && f.to == laggard.mid() &&
        f.type == static_cast<std::uint16_t>(MsgType::kSnapshotChunk)) {
      real = DecodeFrame<SnapshotChunkMsg>(f.payload);
    }
  });
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), true);
  for (int i = 0; i < 40; ++i) {
    ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put",
                                  "k" + std::to_string(i) + "=v" +
                                      std::to_string(i)),
              TxnOutcome::kCommitted);
  }
  cluster.RunFor(500 * sim::kMillisecond);
  cluster.network().SetLinkDown(primary.mid(), laggard.mid(), false);
  cluster.RunFor(2 * sim::kSecond);
  cluster.network().set_observer(nullptr);
  ASSERT_TRUE(real.has_value());
  ASSERT_EQ(laggard.stats().snapshots_installed, 1u);
  ASSERT_EQ(laggard.applied_ts(), primary.buffer().last_ts());

  // Frames from the laggard's own primary, in its view, for an image past
  // everything it applied: the real image's bytes, but with one bit of the
  // value "v17" flipped ('v' -> 'w'), or its last byte cut off, under the
  // real image's CRC. Both still decode, and the flipped bytes still parse
  // as a state image; only the CRC tells them apart.
  SnapshotChunkMsg image = *real;
  image.vs.ts = laggard.applied_ts() + 1;
  const std::string needle = "v17";
  auto at = std::search(image.data.begin(), image.data.end(), needle.begin(),
                        needle.end());
  ASSERT_NE(at, image.data.end());
  SnapshotChunkMsg flipped = image;
  flipped.data[static_cast<std::size_t>(at - image.data.begin())] ^= 0x01;
  SnapshotChunkMsg truncated = image;
  truncated.data.pop_back();
  SnapshotChunkMsg forged = image;
  forged.checksum ^= 1;

  auto deliver = [&](const SnapshotChunkMsg& m) {
    cluster.network().Send(primary.mid(), laggard.mid(),
                           static_cast<std::uint16_t>(MsgType::kSnapshotChunk),
                           EncodeMsg(m));
    cluster.RunFor(10 * sim::kMillisecond);
  };
  const std::uint64_t acks0 = FramesSent(cluster, MsgType::kSnapshotAck);
  for (const SnapshotChunkMsg* m : {&truncated, &flipped, &forged}) {
    deliver(*m);
    // Not even parsed: neither installed, nor rejected, nor acked.
    EXPECT_EQ(laggard.stats().snapshots_installed, 1u);
    EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 0u);
    EXPECT_EQ(FramesSent(cluster, MsgType::kSnapshotAck), acks0);
  }
  EXPECT_EQ(laggard.objects().ReadCommitted("k17").value_or(""), "v17");

  // Bytes that are no state image, under their own CRC, pass the check and
  // reach the install, which rejects them: still nothing installed or acked.
  SnapshotChunkMsg garbage = image;
  garbage.data.assign(64, 0x5a);
  garbage.checksum = wire::Crc32(std::span<const std::uint8_t>(garbage.data));
  deliver(garbage);
  EXPECT_EQ(laggard.stats().snapshots_installed, 1u);
  EXPECT_EQ(laggard.stats().snapshot_installs_rejected, 1u);
  EXPECT_EQ(FramesSent(cluster, MsgType::kSnapshotAck), acks0);

  // The control: the flipped bytes under their own CRC install, and acked.
  // So the CRC alone kept them out above.
  flipped.checksum = wire::Crc32(std::span<const std::uint8_t>(flipped.data));
  deliver(flipped);
  EXPECT_EQ(laggard.stats().snapshots_installed, 2u);
  EXPECT_EQ(FramesSent(cluster, MsgType::kSnapshotAck), acks0 + 1);
  EXPECT_EQ(laggard.objects().ReadCommitted("k17").value_or(""), "w17");
}

// Sends `m` to `to` from node `from`, outside any cohort, and lets it land.
template <typename M>
void Inject(Cluster& cluster, Mid from, Mid to, const M& m) {
  cluster.network().Send(from, to, static_cast<std::uint16_t>(M::kType),
                         EncodeMsg(m));
  cluster.RunFor(10 * sim::kMillisecond);
}

// Only the active primary serves images and counts their install acks; the
// image server itself keeps no view, so these gates are the cohort's.
TEST(SnapshotIntegration, BackupServesNoShardImage) {
  Cluster cluster(ClusterOptions{.seed = 96});
  auto kv = cluster.AddGroup("kv", 3);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "a=1"),
            TxnOutcome::kCommitted);
  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& primary = cluster.CohortAt(kv, pi);
  core::Cohort& backup = cluster.CohortAt(kv, (pi + 1) % 3);
  const Mid puller = cluster.CohortAt(client_g, 0).mid();

  ShardPullMsg pull;
  pull.group = kv;
  pull.from = puller;
  pull.from_group = client_g;
  const std::uint64_t frames0 = FramesSent(cluster, MsgType::kSnapshotChunk);
  Inject(cluster, puller, backup.mid(), pull);
  EXPECT_EQ(backup.snapshot_server().stats().images_sent, 0u);
  EXPECT_EQ(FramesSent(cluster, MsgType::kSnapshotChunk), frames0);

  // The same pull at the primary is served with one frame.
  Inject(cluster, puller, primary.mid(), pull);
  EXPECT_EQ(primary.snapshot_server().stats().images_sent, 1u);
  EXPECT_EQ(FramesSent(cluster, MsgType::kSnapshotChunk), frames0 + 1);
}

TEST(SnapshotIntegration, DeposedPrimaryServesAndCountsNoImage) {
  core::CohortOptions opts;
  Cluster cluster(ClusterOptions{.seed = 97});
  auto kv = cluster.AddGroup("kv", 3, &opts);
  auto client_g = cluster.AddGroup("client", 1);
  RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(RunOneCallWithRetry(cluster, client_g, kv, "put", "a=1"),
            TxnOutcome::kCommitted);
  const std::size_t pi = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pi, 3u);
  core::Cohort& old = cluster.CohortAt(kv, pi);
  const Mid client = cluster.CohortAt(client_g, 0).mid();
  const ViewId old_viewid = old.cur_viewid();

  // An install ack for an image of the view it leads counts, unless it
  // names another group.
  SnapshotAckMsg ack;
  ack.group = client_g;
  ack.from = client;
  ack.vs = Viewstamp{old_viewid, 1};
  Inject(cluster, client, old.mid(), ack);
  ASSERT_EQ(old.snapshot_server().stats().transfers_completed, 0u);
  ack.group = kv;
  Inject(cluster, client, old.mid(), ack);
  ASSERT_EQ(old.snapshot_server().stats().transfers_completed, 1u);

  // Cut it off from its backups, which form a view without it. The client
  // still reaches it.
  for (core::Cohort* c : cluster.Cohorts(kv)) {
    if (c != &old) cluster.network().SetLinkDown(old.mid(), c->mid(), true);
  }
  cluster.RunFor(opts.liveness_timeout + 1 * sim::kSecond);
  ASSERT_FALSE(old.IsActivePrimary());
  const std::size_t pj = IndexOfPrimary(cluster, kv);
  ASSERT_LT(pj, 3u);
  ASSERT_NE(pj, pi);

  // Deposed, it counts no install ack, neither for its old view nor for
  // the one that replaced it, and answers a shard pull with no image.
  const core::Cohort& now = cluster.CohortAt(kv, pj);
  const std::uint64_t frames0 = FramesSent(cluster, MsgType::kSnapshotChunk);
  Inject(cluster, client, old.mid(), ack);
  ack.vs = Viewstamp{now.cur_viewid(), 1};
  Inject(cluster, client, old.mid(), ack);
  ShardPullMsg pull;
  pull.group = kv;
  pull.from = client;
  pull.from_group = client_g;
  Inject(cluster, client, old.mid(), pull);
  EXPECT_EQ(old.snapshot_server().stats().transfers_completed, 1u);
  EXPECT_EQ(old.snapshot_server().stats().acks_rejected, 0u);
  EXPECT_EQ(old.snapshot_server().stats().images_sent, 0u);
  EXPECT_EQ(FramesSent(cluster, MsgType::kSnapshotChunk), frames0);
}

}  // namespace
}  // namespace vsr::vr
