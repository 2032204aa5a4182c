// Tests for the network observation tap and the FrameLog renderer.
#include <gtest/gtest.h>

#include "net/frame_log.h"
#include "tests/test_util.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

TEST(FrameLog, CapturesTheViewChangeSequence) {
  Cluster cluster(ClusterOptions{.seed = 301});
  auto g = cluster.AddGroup("kv", 3);
  net::FrameLog log(cluster.sim(), cluster.network());
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  // Boot = one view change: invitations and acceptances must appear, and in
  // cause-before-effect order.
  EXPECT_GE(log.CountType(vr::MsgType::kInvite), 2u);
  EXPECT_GE(log.CountType(vr::MsgType::kAccept), 2u);
  EXPECT_GE(log.CountType(vr::MsgType::kBufferBatch), 1u);
  sim::Time first_invite = 0, first_batch = 0;
  for (const auto& e : log.entries()) {
    if (e.type == static_cast<std::uint16_t>(vr::MsgType::kInvite) &&
        first_invite == 0) {
      first_invite = e.at;
    }
    if (e.type == static_cast<std::uint16_t>(vr::MsgType::kBufferBatch) &&
        first_batch == 0) {
      first_batch = e.at;
    }
  }
  EXPECT_LT(first_invite, first_batch);

  // Rendering produces one line per entry with names resolved.
  auto lines = log.Render(static_cast<std::uint16_t>(vr::MsgType::kInvite));
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines[0].find("invite"), std::string::npos);
  (void)g;
}

// Every tag MsgTypeName knows renders by name, the lease and backup-read
// frames included.
TEST(FrameLog, RendersLeaseGrantsByName) {
  ClusterOptions opts{.seed = 304};
  opts.cohort.backup_reads = true;
  Cluster cluster(opts);
  auto g = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  test::RegisterKvProcs(cluster, g);
  net::FrameLog log(cluster.sim(), cluster.network());
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  ASSERT_EQ(test::RunOneCall(cluster, agents, g, "put", "k=1"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);

  auto lines =
      log.Render(static_cast<std::uint16_t>(vr::MsgType::kLeaseGrant));
  ASSERT_FALSE(lines.empty());
  for (const std::string& line : lines) {
    EXPECT_NE(line.find(" lease-grant "), std::string::npos) << line;
  }
}

TEST(FrameLog, CapacityBoundsMemory) {
  Cluster cluster(ClusterOptions{.seed = 302});
  cluster.AddGroup("kv", 3);
  net::FrameLog log(cluster.sim(), cluster.network(), /*capacity=*/16);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());
  cluster.RunFor(2 * sim::kSecond);  // plenty of pings
  EXPECT_LE(log.entries().size(), 16u);
  EXPECT_GT(log.dropped(), 0u);
}

TEST(FrameLog, TransactionMessageFlow) {
  Cluster cluster(ClusterOptions{.seed = 303});
  auto g = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  test::RegisterKvProcs(cluster, g);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  net::FrameLog log(cluster.sim(), cluster.network());
  ASSERT_EQ(test::RunOneCall(cluster, agents, g, "put", "k=1"),
            vr::TxnOutcome::kCommitted);
  cluster.RunFor(500 * sim::kMillisecond);

  // One transaction = exactly one executed call/reply, one prepare/reply,
  // one commit/done at the data plane (no retransmissions on the clean
  // network).
  EXPECT_EQ(log.CountType(vr::MsgType::kCall), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kReply), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kPrepare), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kPrepareReply), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kCommit), 1u);
  EXPECT_EQ(log.CountType(vr::MsgType::kCommitDone), 1u);
}

}  // namespace
}  // namespace vsr
