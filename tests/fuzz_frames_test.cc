// Adversarial-garbage robustness: a rogue node sprays random and
// near-valid-but-corrupt frames at every cohort while a normal workload
// runs. Nothing may crash, no invariant may break, and the workload must
// still make progress. (Not byzantine tolerance — the paper assumes
// non-byzantine faults — but decoding must never trust the network.)
#include <gtest/gtest.h>

#include "check/invariants.h"
#include "tests/test_util.h"

namespace vsr {
namespace {

using client::Cluster;
using client::ClusterOptions;

class FrameFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, FrameFuzzTest, ::testing::Values(71, 72, 73));

// "Valid" tags are drawn from 1 up to the last message type, so every type
// is sprayed, the newest included.
constexpr std::size_t kTags = static_cast<std::size_t>(vr::kLastMsgType);

TEST(FrameFuzz, LastMsgTypeBoundsEveryNamedTag) {
  for (int t = static_cast<int>(vr::kLastMsgType) + 1; t < 65536; ++t) {
    ASSERT_STREQ(vr::MsgTypeName(static_cast<vr::MsgType>(t)), "?")
        << "tag " << t << " lies past vr::kLastMsgType";
  }
}

TEST_P(FrameFuzzTest, GarbageFramesDoNotDisruptSafety) {
  Cluster cluster(ClusterOptions{.seed = GetParam()});
  auto kv = cluster.AddGroup("kv", 3);
  auto agents = cluster.AddGroup("agents", 3);
  test::RegisterKvProcs(cluster, kv);
  cluster.Start();
  ASSERT_TRUE(cluster.RunUntilStable());

  sim::Rng rng(GetParam() * 40961);
  const net::NodeId rogue = cluster.AllocateMid();
  std::vector<net::NodeId> targets;
  for (auto* c : cluster.Cohorts(kv)) targets.push_back(c->mid());
  for (auto* c : cluster.Cohorts(agents)) targets.push_back(c->mid());

  int committed = 0;
  for (int round = 0; round < 30; ++round) {
    // Spray garbage: random type tags (valid and invalid), random payloads,
    // and truncated prefixes of a genuine message.
    for (int i = 0; i < 20; ++i) {
      const net::NodeId to = targets[rng.Index(targets.size())];
      std::vector<std::uint8_t> payload(rng.Index(96));
      for (auto& b : payload) b = static_cast<std::uint8_t>(rng.Next());
      const std::uint16_t type =
          rng.Bernoulli(0.5) ? static_cast<std::uint16_t>(1 + rng.Index(kTags))
                             : static_cast<std::uint16_t>(rng.Next());
      cluster.network().Send(rogue, to, type, payload);
    }
    // Also spray structurally valid but semantically bogus protocol
    // messages (fake invitations with huge viewids are the nastiest).
    if (rng.Bernoulli(0.3)) {
      vr::InviteMsg evil;
      evil.group = kv;
      evil.new_viewid = {rng.Index(3), static_cast<vr::Mid>(rng.Index(5))};
      evil.from = rogue;
      cluster.network().Send(rogue, targets[rng.Index(targets.size())],
                             static_cast<std::uint16_t>(vr::MsgType::kInvite),
                             vr::EncodeMsg(evil));
    }
    // Normal work continues in between.
    if (test::RunOneCallWithRetry(cluster, agents, kv, "add", "ctr=1") ==
        vr::TxnOutcome::kCommitted) {
      ++committed;
    }
    for (const std::string& v : check::CheckInstant(cluster, kv)) {
      ADD_FAILURE() << "round " << round << ": " << v;
    }
  }
  cluster.RunFor(2 * sim::kSecond);
  EXPECT_GT(committed, 20);  // progress despite the garbage
  EXPECT_EQ(test::CommittedValue(cluster, kv, "ctr"),
            std::to_string(committed));
  for (const std::string& v : check::CheckQuiescent(cluster, kv)) {
    ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace vsr
