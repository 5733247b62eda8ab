#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "testing/invariants.h"
#include "testing/nemesis.h"
#include "testing/schedule.h"

namespace dicho::consensus {
namespace {

using testing::BftInvariantChecker;
using testing::FaultAction;
using testing::FaultSchedule;
using testing::Nemesis;
using testing::RaftInvariantChecker;

// Failure injection beyond crashes: lossy networks and flaky links, driven
// by named nemesis schedules (the same machinery sim_fuzz randomizes) and
// checked with the shared safety invariant checkers. Both protocol families
// must preserve safety and (once conditions clear) liveness.

// Steady 10% iid loss for the whole run, never lifted.
FaultSchedule SteadyLossSchedule(double drop_rate) {
  FaultAction start;
  start.at = 0;
  start.kind = FaultAction::Kind::kDropStart;
  start.drop_rate = drop_rate;
  return FaultSchedule{{start}};
}

// A loss storm that ends: brutal drop rate from t=0, restored at `until`.
FaultSchedule LossStormSchedule(double drop_rate, sim::Time until) {
  FaultAction start;
  start.at = 0;
  start.kind = FaultAction::Kind::kDropStart;
  start.drop_rate = drop_rate;
  FaultAction stop;
  stop.at = until;
  stop.kind = FaultAction::Kind::kDropStop;
  return FaultSchedule{{start, stop}};
}

// Light loss plus a single mid-stream crash (f = 1 budget for n = 4 BFT).
FaultSchedule LossAndOneCrashSchedule(double drop_rate, sim::NodeId victim,
                                      sim::Time crash_at) {
  FaultAction drop;
  drop.at = 0;
  drop.kind = FaultAction::Kind::kDropStart;
  drop.drop_rate = drop_rate;
  FaultAction crash;
  crash.at = crash_at;
  crash.kind = FaultAction::Kind::kCrash;
  crash.node = victim;
  return FaultSchedule{{drop, crash}};
}

TEST(RaftLossyNetworkTest, CommitsDespiteMessageLoss) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  RaftInvariantChecker* checker = nullptr;
  auto cluster = RaftCluster::Create(
      &sim, &net, &costs, {0, 1, 2, 3, 4}, RaftConfig{},
      [&checker](NodeId node, uint64_t index, const std::string& cmd) {
        if (checker != nullptr) checker->OnApply(node, index, cmd);
      });
  RaftInvariantChecker check(cluster->all());
  checker = &check;

  Nemesis nemesis(&sim, &net, Nemesis::Hooks{});  // network faults only
  nemesis.Arm(SteadyLossSchedule(0.10));
  cluster->StartAll();

  std::function<void()> observe = [&] {
    check.Observe();
    sim.Schedule(20 * sim::kMs, observe);
  };
  sim.Schedule(20 * sim::kMs, observe);

  // Find a leader under loss (may take several election rounds).
  RaftNode* leader = nullptr;
  for (int i = 0; i < 300 && leader == nullptr; i++) {
    sim.RunFor(100 * sim::kMs);
    leader = cluster->leader();
  }
  ASSERT_NE(leader, nullptr);

  int committed = 0;
  for (int i = 0; i < 20; i++) {
    if (cluster->leader() != nullptr) {
      cluster->leader()->Propose(
          "cmd" + std::to_string(i),
          [&](Status s, uint64_t) { committed += s.ok(); });
    }
    sim.RunFor(200 * sim::kMs);
  }
  sim.RunFor(10 * sim::kSec);
  EXPECT_GT(committed, 10);  // most commit despite loss

  // Safety: election safety, log matching, and identical applies at every
  // index, accumulated live plus a final pairwise sweep.
  check.CheckFinal();
  EXPECT_TRUE(check.report()->ok()) << check.report()->Summary();
}

TEST(RaftLossyNetworkTest, RecoversAfterLossStops) {
  sim::Simulator sim(7);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  auto cluster =
      RaftCluster::Create(&sim, &net, &costs, {0, 1, 2}, RaftConfig{}, nullptr);

  Nemesis nemesis(&sim, &net, Nemesis::Hooks{});
  nemesis.Arm(LossStormSchedule(0.6, 3 * sim::kSec));  // brutal, then clear
  cluster->StartAll();

  sim.RunFor(3 * sim::kSec);
  RaftNode* leader = nullptr;
  for (int i = 0; i < 100 && leader == nullptr; i++) {
    sim.RunFor(100 * sim::kMs);
    leader = cluster->leader();
  }
  ASSERT_NE(leader, nullptr);
  bool committed = false;
  leader->Propose("after-storm",
                  [&](Status s, uint64_t) { committed = s.ok(); });
  sim.RunFor(3 * sim::kSec);
  EXPECT_TRUE(committed);
}

TEST(PbftLossyNetworkTest, SafetyUnderLossAndCrash) {
  sim::Simulator sim(13);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  BftConfig config;
  config.view_change_timeout = 400 * sim::kMs;
  BftInvariantChecker* checker = nullptr;
  auto cluster = BftCluster::Create(
      &sim, &net, &costs, {0, 1, 2, 3}, config,
      [&checker](NodeId node, uint64_t seq, const std::string& cmd) {
        if (checker != nullptr) checker->OnApply(node, seq, cmd);
      });
  BftInvariantChecker check(cluster->all(), /*byzantine=*/{});
  checker = &check;

  Nemesis nemesis(&sim, &net,
                  Nemesis::Hooks{
                      [&](sim::NodeId id) { cluster->node(id)->Crash(); },
                      [&](sim::NodeId id) { cluster->node(id)->Restart(); },
                      /*join=*/nullptr,
                      /*leave=*/nullptr,
                      /*drain=*/nullptr,
                  });
  // One crash mid-stream (f = 1): node 3 dies while request 5 is in flight.
  nemesis.Arm(LossAndOneCrashSchedule(0.05, 3, 1500 * sim::kMs));
  cluster->StartAll();

  for (int i = 0; i < 10; i++) {
    BftNode* target = cluster->node(i % 4);
    if (!target->crashed()) {
      std::string cmd = "cmd" + std::to_string(i);
      check.NoteSubmitted(cmd);
      target->Submit(cmd, [](Status, uint64_t) {});
    }
    sim.RunFor(300 * sim::kMs);
  }
  sim.RunFor(15 * sim::kSec);

  // Agreement at every sequence number across live replicas, validity of
  // every executed command, and gap-free execution.
  check.CheckFinal();
  EXPECT_TRUE(check.report()->ok()) << check.report()->Summary();
  EXPECT_GT(check.executed_total(), 0u);
}

}  // namespace
}  // namespace dicho::consensus
