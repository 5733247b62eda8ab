// A Raft command is one immutable buffer from Propose on: the leader's log,
// every AppendEntries batch and every follower's log hold the same bytes.
// These tests pin that sharing on the parallel engine, where each replica
// runs on its own partition, so a buffer's reference count is touched from
// several worker threads.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "consensus/raft.h"
#include "sim/cost_model.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "systems/runtime/transport.h"

namespace dicho::sim {
namespace {

using consensus::RaftNode;

unsigned HwThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw < 2 ? 2 : hw;
}

std::string Command(const std::string& prefix, int k) {
  // Long enough that the bytes live on the heap, not inside std::string.
  return prefix + "-" + std::to_string(k) + std::string(200, 'x');
}

// A 5-replica Raft group, one partition per replica, on worker threads.
// Everything the test injects runs as a global event (every partition
// parked), with node work under the node's PartitionScope.
struct PartitionedGroup {
  PartitionedGroup() : sim(11), net(&sim, NetworkConfig{}) {
    sim.set_threads(HwThreads());
    systems::runtime::TransportConfig tc;
    tc.kind = systems::runtime::TransportKind::kRaft;
    tc.partition_replicas = true;
    transport = std::make_unique<systems::runtime::Transport>(
        &sim, &net, &costs, ids, tc, nullptr);
    transport->Start();
  }

  consensus::RaftCluster* raft() { return transport->raft(); }

  void Propose(RaftNode* node, std::string cmd) {
    Simulator::PartitionScope scope(&sim, sim.PartitionOfNode(node->id()));
    node->Propose(std::move(cmd), [](Status, uint64_t) {});
  }

  // Proposes `count` commands at the current leader from `start`, one per
  // 5 ms.
  void ProposeAtLeader(Time start, const std::string& prefix, int count) {
    for (int k = 0; k < count; k++) {
      sim.ScheduleGlobalAt(start + k * 5 * kMs, [this, prefix, k] {
        RaftNode* leader = raft()->leader();
        ASSERT_NE(leader, nullptr);
        Propose(leader, Command(prefix, k));
      });
    }
  }

  // Every replica's log holds entry `index` in the same buffer.
  void ExpectSharedEntry(uint64_t index) {
    const std::string& first = raft()->node(ids[0])->CommittedEntry(index);
    for (NodeId id : ids) {
      EXPECT_EQ(raft()->node(id)->CommittedEntry(index).data(), first.data())
          << "index " << index << " on node " << id;
    }
  }

  Simulator sim;
  SimNetwork net;
  CostModel costs;
  std::vector<NodeId> ids = {0, 1, 2, 3, 4};
  std::unique_ptr<systems::runtime::Transport> transport;
};

TEST(RaftSharedLogTest, EveryReplicaHoldsTheLeadersBuffer) {
  PartitionedGroup g;
  g.ProposeAtLeader(500 * kMs, "cmd", 200);
  g.sim.RunUntil(3 * kSec);

  uint64_t committed = ~uint64_t{0};
  for (NodeId id : g.ids) {
    committed = std::min(committed, g.raft()->node(id)->commit_index());
  }
  // The leader's election no-op at index 1, then the 200 commands.
  ASSERT_EQ(committed, 201u);
  for (uint64_t i = 1; i <= committed; i++) g.ExpectSharedEntry(i);
  RaftNode* leader = g.raft()->leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_EQ(leader->CommittedEntry(1), "");
  EXPECT_EQ(leader->CommittedEntry(2), Command("cmd", 0));
  EXPECT_EQ(leader->CommittedEntry(201), Command("cmd", 199));
}

// A stale leader and one follower, cut off together, share a suffix the
// majority never sees. After the heal both truncate it; the new leader's
// entries, which they adopt, keep their bytes, and every replica ends up
// sharing the new leader's buffers.
TEST(RaftSharedLogTest, TruncatedSuffixLeavesLeaderEntriesIntact) {
  PartitionedGroup g;
  g.ProposeAtLeader(500 * kMs, "base", 20);
  g.sim.RunUntil(1 * kSec);
  RaftNode* stale = g.raft()->leader();
  ASSERT_NE(stale, nullptr);
  const uint64_t base = stale->commit_index();
  ASSERT_EQ(base, 21u);  // the election no-op and 20 commands
  RaftNode* follower = g.raft()->node(stale->id() == 0 ? 1 : 0);
  std::vector<NodeId> majority;
  for (NodeId id : g.ids) {
    if (id != stale->id() && id != follower->id()) majority.push_back(id);
  }

  g.sim.ScheduleGlobalAt(1 * kSec, [&] {
    g.net.Partition({{stale->id(), follower->id()}, majority});
    for (int k = 0; k < 10; k++) g.Propose(stale, Command("stale", k));
  });
  g.sim.RunUntil(1.2 * kSec);
  // The stale suffix reached the follower, in the stale leader's buffers.
  ASSERT_EQ(follower->log_size(), base + 10);
  for (uint64_t i = base + 1; i <= base + 10; i++) {
    EXPECT_EQ(follower->CommittedEntry(i).data(),
              stale->CommittedEntry(i).data());
  }

  // The majority elects a successor within ~0.4 s; proposals after that go
  // to it, the highest-term leader, not to the stale claimant.
  g.ProposeAtLeader(1.8 * kSec, "fresh", 10);
  g.sim.ScheduleGlobalAt(2.5 * kSec, [&] { g.net.HealPartition(); });
  g.sim.RunUntil(4 * kSec);

  RaftNode* leader = g.raft()->leader();
  ASSERT_NE(leader, nullptr);
  ASSERT_NE(leader, stale);
  ASSERT_NE(leader, follower);
  // The successor's election no-op at base + 1, then the 10 fresh entries.
  ASSERT_EQ(leader->commit_index(), base + 11);
  EXPECT_EQ(leader->CommittedEntry(base + 1), "");
  for (int k = 0; k < 10; k++) {
    EXPECT_EQ(leader->CommittedEntry(base + 2 + k), Command("fresh", k));
  }
  for (NodeId id : g.ids) {
    EXPECT_EQ(g.raft()->node(id)->commit_index(), base + 11) << id;
    EXPECT_EQ(g.raft()->node(id)->log_size(), base + 11) << id;
  }
  for (uint64_t i = 1; i <= base + 11; i++) g.ExpectSharedEntry(i);
}

}  // namespace
}  // namespace dicho::sim
