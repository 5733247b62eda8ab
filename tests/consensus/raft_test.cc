#include "consensus/raft.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace dicho::consensus {
namespace {

struct RaftHarness {
  explicit RaftHarness(size_t n, uint64_t seed = 42)
      : sim(seed), net(&sim, sim::NetworkConfig{}) {
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < n; i++) ids.push_back(i);
    cluster = RaftCluster::Create(
        &sim, &net, &costs, ids, RaftConfig{},
        [this](NodeId node, uint64_t index, const std::string& cmd) {
          applied[node].push_back({index, cmd});
        });
    cluster->StartAll();
  }

  RaftNode* WaitForLeader(sim::Time limit = 5 * sim::kSec) {
    sim::Time deadline = sim.Now() + limit;
    while (sim.Now() < deadline) {
      sim.RunFor(10 * sim::kMs);
      if (RaftNode* l = cluster->leader()) return l;
    }
    return nullptr;
  }

  /// Checks the State Machine Safety property: no two nodes applied
  /// different commands at the same index.
  void CheckNoDivergence() {
    std::map<uint64_t, std::string> canonical;
    for (const auto& [node, entries] : applied) {
      for (const auto& [index, cmd] : entries) {
        auto [it, inserted] = canonical.emplace(index, cmd);
        EXPECT_EQ(it->second, cmd)
            << "divergence at index " << index << " on node " << node;
      }
    }
  }

  sim::Simulator sim;
  sim::SimNetwork net;
  sim::CostModel costs;
  std::unique_ptr<RaftCluster> cluster;
  std::map<NodeId, std::vector<std::pair<uint64_t, std::string>>> applied;
};

TEST(RaftTest, ElectsExactlyOneLeader) {
  RaftHarness h(5);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  int leaders = 0;
  for (RaftNode* n : h.cluster->all()) {
    if (n->IsLeader()) leaders++;
  }
  EXPECT_EQ(leaders, 1);
}

TEST(RaftTest, CommitsAndAppliesEverywhere) {
  RaftHarness h(3);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);

  int committed = 0;
  for (int i = 0; i < 10; i++) {
    leader->Propose("cmd" + std::to_string(i), [&](Status s, uint64_t) {
      if (s.ok()) committed++;
    });
  }
  h.sim.RunFor(2 * sim::kSec);
  EXPECT_EQ(committed, 10);
  // The leader's election no-op comes first, then the 10 commands.
  for (RaftNode* n : h.cluster->all()) {
    EXPECT_EQ(h.applied[n->id()].size(), 11u) << "node " << n->id();
  }
  h.CheckNoDivergence();
  // Entries applied in order with the right contents.
  EXPECT_EQ(h.applied[0][0].second, "");
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(h.applied[0][i + 1].second, "cmd" + std::to_string(i));
  }
}

TEST(RaftTest, ProposeOnFollowerFails) {
  RaftHarness h(3);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  RaftNode* follower = nullptr;
  for (RaftNode* n : h.cluster->all()) {
    if (!n->IsLeader()) follower = n;
  }
  ASSERT_NE(follower, nullptr);
  bool called = false;
  follower->Propose("x", [&](Status s, uint64_t) {
    called = true;
    EXPECT_TRUE(s.IsUnavailable());
  });
  EXPECT_TRUE(called);
}

TEST(RaftTest, FailsOverAfterLeaderCrash) {
  RaftHarness h(5);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);

  int committed = 0;
  for (int i = 0; i < 5; i++) {
    leader->Propose("before" + std::to_string(i),
                    [&](Status s, uint64_t) { committed += s.ok(); });
  }
  h.sim.RunFor(2 * sim::kSec);
  EXPECT_EQ(committed, 5);

  NodeId old_leader = leader->id();
  leader->Crash();
  RaftNode* new_leader = h.WaitForLeader(10 * sim::kSec);
  ASSERT_NE(new_leader, nullptr);
  EXPECT_NE(new_leader->id(), old_leader);

  new_leader->Propose("after", [&](Status s, uint64_t) { committed += s.ok(); });
  h.sim.RunFor(2 * sim::kSec);
  EXPECT_EQ(committed, 6);
  h.CheckNoDivergence();
}

TEST(RaftTest, CommittedEntriesSurviveFailover) {
  RaftHarness h(5);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  leader->Propose("durable", [](Status, uint64_t) {});
  h.sim.RunFor(2 * sim::kSec);

  leader->Crash();
  RaftNode* new_leader = h.WaitForLeader(10 * sim::kSec);
  ASSERT_NE(new_leader, nullptr);
  // Index 1 is the first leader's election no-op.
  ASSERT_GE(new_leader->commit_index(), 2u);
  EXPECT_EQ(new_leader->CommittedEntry(1), "");
  EXPECT_EQ(new_leader->CommittedEntry(2), "durable");
}

// Raft §8: an entry of a prior term, replicated everywhere but not yet
// known committed, commits under the next leader with no client traffic,
// because that leader's own no-op carries it.
TEST(RaftTest, NewLeaderCommitsPriorTermEntryWithoutTraffic) {
  RaftHarness h(3);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  h.sim.RunFor(1 * sim::kSec);
  leader->Propose("orphan", [](Status, uint64_t) {});
  const uint64_t index = leader->log_size();
  // Crash the leader once every follower holds the entry, before a
  // heartbeat can tell them it committed.
  auto replicated = [&] {
    for (RaftNode* n : h.cluster->all()) {
      if (n->log_size() < index) return false;
    }
    return true;
  };
  while (!replicated()) h.sim.RunFor(100);
  leader->Crash();
  for (RaftNode* n : h.cluster->all()) {
    if (n == leader) continue;
    ASSERT_LT(n->commit_index(), index) << n->id();
  }

  RaftNode* successor = h.WaitForLeader(10 * sim::kSec);
  ASSERT_NE(successor, nullptr);
  h.sim.RunFor(1 * sim::kSec);
  ASSERT_GE(successor->commit_index(), index);
  EXPECT_EQ(successor->CommittedEntry(index), "orphan");
  EXPECT_EQ(successor->CommittedEntry(index + 1), "");  // its no-op
  for (RaftNode* n : h.cluster->all()) {
    if (n == leader) continue;
    ASSERT_FALSE(h.applied[n->id()].empty());
    EXPECT_EQ(h.applied[n->id()].back().second, "") << n->id();
    EXPECT_EQ(h.applied[n->id()].size(), index + 1) << n->id();
  }
  h.CheckNoDivergence();
}

// A follower hundreds of entries behind a new leader, whose probe starts
// at the leader's log end, answers with its own log end; the leader jumps
// nextIndex there and ships the backlog, instead of walking back one
// rejected probe per entry.
TEST(RaftTest, LaggingFollowerCatchesUpInOneRejectedProbe) {
  RaftHarness h(5);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  RaftNode* laggard = h.cluster->node((leader->id() + 1) % 5);
  laggard->Crash();
  for (int i = 0; i < 400; i++) {
    leader->Propose("cmd" + std::to_string(i), [](Status, uint64_t) {});
  }
  h.sim.RunFor(2 * sim::kSec);
  // A successor sets every nextIndex past its own log end.
  leader->Crash();
  RaftNode* successor = h.WaitForLeader(10 * sim::kSec);
  ASSERT_NE(successor, nullptr);
  h.sim.RunFor(1 * sim::kSec);
  ASSERT_GE(successor->log_size(), laggard->log_size() + 400);

  const uint64_t sent_before = h.net.messages_sent();
  laggard->Restart();
  // One heartbeat interval brings the probe; its rejection and the
  // backlog take a few more round trips.
  h.sim.RunFor(80 * sim::kMs);
  EXPECT_EQ(laggard->log_size(), successor->log_size());
  EXPECT_EQ(laggard->commit_index(), successor->commit_index());
  // Heartbeats, the rejected probe and the backlog take about ten
  // messages; walking back one entry per probe takes hundreds.
  EXPECT_LT(h.net.messages_sent() - sent_before, 40u);
  h.CheckNoDivergence();
}

TEST(RaftTest, MinorityPartitionCannotCommit) {
  RaftHarness h(5);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  NodeId lid = leader->id();

  // Isolate the leader with one other node (minority side).
  std::vector<NodeId> minority{lid, (lid + 1) % 5};
  std::vector<NodeId> majority;
  for (NodeId i = 0; i < 5; i++) {
    if (i != minority[0] && i != minority[1]) majority.push_back(i);
  }
  h.net.Partition({minority, majority});

  bool minority_committed = false;
  leader->Propose("lost", [&](Status s, uint64_t) {
    if (s.ok()) minority_committed = true;
  });
  h.sim.RunFor(3 * sim::kSec);
  EXPECT_FALSE(minority_committed);

  // Majority elects a fresh leader and commits.
  RaftNode* new_leader = nullptr;
  for (NodeId id : majority) {
    if (h.cluster->node(id)->IsLeader()) new_leader = h.cluster->node(id);
  }
  ASSERT_NE(new_leader, nullptr);
  bool majority_committed = false;
  new_leader->Propose("win", [&](Status s, uint64_t) {
    majority_committed = s.ok();
  });
  h.sim.RunFor(2 * sim::kSec);
  EXPECT_TRUE(majority_committed);

  // Heal: the old leader steps down and converges; no divergence.
  h.net.HealPartition();
  h.sim.RunFor(3 * sim::kSec);
  h.CheckNoDivergence();
  EXPECT_FALSE(h.cluster->node(lid)->IsLeader());
}

TEST(RaftTest, RestartedNodeCatchesUp) {
  RaftHarness h(3);
  RaftNode* leader = h.WaitForLeader();
  ASSERT_NE(leader, nullptr);
  RaftNode* victim = nullptr;
  for (RaftNode* n : h.cluster->all()) {
    if (!n->IsLeader()) victim = n;
  }
  victim->Crash();

  for (int i = 0; i < 5; i++) {
    leader->Propose("while-down" + std::to_string(i), [](Status, uint64_t) {});
  }
  h.sim.RunFor(2 * sim::kSec);

  victim->Restart();
  h.sim.RunFor(3 * sim::kSec);
  EXPECT_GE(h.applied[victim->id()].size(), 5u);
  h.CheckNoDivergence();
}

// Property sweep: randomized crash/restart schedules across cluster sizes;
// Raft's State Machine Safety must hold in every run.
class RaftChaosSweep
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(RaftChaosSweep, SafetyUnderRandomCrashes) {
  auto [n, seed] = GetParam();
  RaftHarness h(n, seed);
  Rng chaos(seed * 31);

  int proposed = 0;
  for (int round = 0; round < 30; round++) {
    h.sim.RunFor(200 * sim::kMs);
    // Random crash/restart, keeping a majority alive.
    int down = 0;
    for (RaftNode* node : h.cluster->all()) {
      if (node->crashed()) down++;
    }
    if (chaos.Bernoulli(0.3) && down < (n - 1) / 2) {
      RaftNode* victim = h.cluster->all()[chaos.Uniform(n)];
      if (!victim->crashed()) victim->Crash();
    }
    if (chaos.Bernoulli(0.3)) {
      RaftNode* back = h.cluster->all()[chaos.Uniform(n)];
      if (back->crashed()) back->Restart();
    }
    if (RaftNode* leader = h.cluster->leader()) {
      leader->Propose("p" + std::to_string(proposed++), [](Status, uint64_t) {});
    }
  }
  for (RaftNode* node : h.cluster->all()) {
    if (node->crashed()) node->Restart();
  }
  h.sim.RunFor(5 * sim::kSec);
  h.CheckNoDivergence();

  // Log Matching: all live nodes agree on the committed prefix.
  uint64_t min_commit = UINT64_MAX;
  for (RaftNode* node : h.cluster->all()) {
    min_commit = std::min(min_commit, node->commit_index());
  }
  ASSERT_GT(min_commit, 0u);
  for (uint64_t i = 1; i <= min_commit; i++) {
    std::string expected = h.cluster->all()[0]->CommittedEntry(i);
    for (RaftNode* node : h.cluster->all()) {
      EXPECT_EQ(node->CommittedEntry(i), expected) << "index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, RaftChaosSweep,
    ::testing::Values(std::make_tuple(3, 1ull), std::make_tuple(3, 2ull),
                      std::make_tuple(5, 3ull), std::make_tuple(5, 4ull),
                      std::make_tuple(5, 5ull), std::make_tuple(7, 6ull)));

TEST(RaftTest, DeterministicReplay) {
  auto run = [](uint64_t seed) {
    RaftHarness h(5, seed);
    RaftNode* leader = h.WaitForLeader();
    if (leader == nullptr) return std::string("no-leader");
    for (int i = 0; i < 20; i++) {
      leader->Propose("cmd" + std::to_string(i), [](Status, uint64_t) {});
    }
    h.sim.RunFor(3 * sim::kSec);
    std::string trace;
    for (const auto& [index, cmd] : h.applied[0]) {
      trace += std::to_string(index) + ":" + cmd + ";";
    }
    trace += "t=" + std::to_string(h.sim.executed_events());
    return trace;
  };
  EXPECT_EQ(run(99), run(99));
}

}  // namespace
}  // namespace dicho::consensus
