#include "systems/harmonylike.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "contract/contract.h"
#include "crypto/sha256.h"
#include "tests/systems/completion_pinning.h"
#include "tests/systems/replica_convergence.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dicho::systems {
namespace {

core::TxnRequest RmwTxn(uint64_t id, const std::string& key,
                        const std::string& value) {
  core::TxnRequest req;
  req.txn_id = id;
  req.client_id = id;
  req.contract = "ycsb";
  req.ops = {{core::OpType::kReadModifyWrite, key, value}};
  return req;
}

struct HarmonyHarness {
  explicit HarmonyHarness(HarmonyConsensus consensus = HarmonyConsensus::kRaft,
                          uint32_t n = 5)
      : sim(42), net(&sim, sim::NetworkConfig{}) {
    HarmonyConfig config;
    config.num_nodes = n;
    config.consensus = consensus;
    config.epoch_interval = 50 * sim::kMs;
    system = std::make_unique<HarmonySystem>(&sim, &net, &costs, config);
    system->Start();
    sim.RunFor(1 * sim::kSec);
  }
  sim::Simulator sim;
  sim::SimNetwork net;
  sim::CostModel costs;
  std::unique_ptr<HarmonySystem> system;
};

TEST(HarmonySystemTest, CommitsThroughOrderedEpochs) {
  HarmonyHarness h;
  ASSERT_TRUE(h.system->HasSequencer());
  core::TxnResult result;
  h.system->Submit(RmwTxn(1, "k", "v"),
                   [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(2 * sim::kSec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // Order-then-execute phases: proposal wait, consensus order, then the
  // deterministic execution — and nothing else (no validate phase exists).
  EXPECT_TRUE(result.phases.Has(core::Phase::kProposal));
  EXPECT_TRUE(result.phases.Has(core::Phase::kOrder));
  EXPECT_TRUE(result.phases.Has(core::Phase::kExecute));
  EXPECT_FALSE(result.phases.Has(core::Phase::kValidate));
  EXPECT_EQ(h.system->stats().committed, 1u);
  EXPECT_EQ(h.system->stats().aborted, 0u);
}

TEST(HarmonySystemTest, ReplicasConvergeToIdenticalStateAndChain) {
  HarmonyHarness h;
  for (uint64_t i = 1; i <= 40; i++) {
    // Deliberate hot-key contention: all replicas must still agree.
    h.system->Submit(RmwTxn(i, "hot" + std::to_string(i % 3), "v"),
                     [](const core::TxnResult&) {});
  }
  h.sim.RunFor(5 * sim::kSec);
  EXPECT_EQ(h.system->stats().committed, 40u);
  EXPECT_EQ(h.system->stats().aborted, 0u);

  ExpectReplicasConverged(*h.system);
  // Scheduling happened: epochs were cut and conflicts were layered.
  EXPECT_GT(h.system->epoch_stats().epochs, 0u);
  EXPECT_GT(h.system->epoch_stats().conflict_edges, 0u);
  EXPECT_GE(h.system->epoch_stats().LaneSpeedup(), 1.0);
}

TEST(HarmonySystemTest, CompletionReplicaAnswersItsEpochsAfterLeaderMoves) {
  HarmonyHarness h;
  ExpectWritesAnsweredOnceAcrossLeaderMove(&h, [](uint64_t id) {
    core::TxnRequest req = RmwTxn(id, "key" + std::to_string(id), "v");
    req.ops[0].type = core::OpType::kWrite;
    return req;
  });
}

TEST(HarmonySystemTest, RunsUnderBftConsensus) {
  HarmonyHarness h(HarmonyConsensus::kBft, 4);
  core::TxnResult result;
  h.system->Submit(RmwTxn(1, "k", "v"),
                   [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(3 * sim::kSec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(h.system->stats().committed, 1u);
}

TEST(HarmonySystemTest, QueryServesLoadedValueAtNativeSpeed) {
  HarmonyHarness h;
  h.system->Load("k", "loaded");
  core::ReadResult result;
  h.system->Query({1, "k"}, [&](const core::ReadResult& r) { result = r; });
  h.sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.value, "loaded");
  // Native read path, no VM: well under Quorum's ~4 ms query latency.
  EXPECT_LT(result.latency(), 2 * sim::kMs);
}

TEST(HarmonySystemTest, ConstraintAbortIsTheOnlyAbortClass) {
  HarmonyHarness h;
  h.system->Load(contract::SmallbankContract::CheckingKey("a"), "10");
  h.system->Load(contract::SmallbankContract::SavingsKey("a"), "0");
  h.system->Load(contract::SmallbankContract::CheckingKey("b"), "10");
  h.system->Load(contract::SmallbankContract::SavingsKey("b"), "0");
  core::TxnRequest payment;
  payment.txn_id = 1;
  payment.client_id = 1;
  payment.contract = "smallbank";
  payment.method = "send_payment";
  payment.args = {"a", "b", "5000"};
  core::TxnResult result;
  h.system->Submit(payment, [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(2 * sim::kSec);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.reason, core::AbortReason::kConstraint);
  EXPECT_EQ(h.system->stats().aborted, 1u);
  auto it = h.system->stats().aborts_by_reason.find(
      core::AbortReason::kConstraint);
  ASSERT_NE(it, h.system->stats().aborts_by_reason.end());
  EXPECT_EQ(it->second, 1u);
}

TEST(HarmonySystemTest, RunsReplayIdentically) {
  auto run = [](uint64_t seed) {
    sim::Simulator simulator(seed);
    sim::SimNetwork network(&simulator, sim::NetworkConfig{});
    sim::CostModel costs;
    HarmonyConfig config;
    config.num_nodes = 4;
    config.epoch_interval = 50 * sim::kMs;
    HarmonySystem system(&simulator, &network, &costs, config);
    system.Start();
    simulator.RunFor(1 * sim::kSec);
    for (uint64_t i = 1; i <= 25; i++) {
      system.Submit(RmwTxn(i, "k" + std::to_string(i % 5), "v"),
                    [](const core::TxnResult&) {});
    }
    simulator.RunFor(5 * sim::kSec);
    return crypto::DigestHex(
               system.state_of(system.node_ids()[0]).RootDigest()) +
           "/" + std::to_string(simulator.executed_events()) + "/" +
           std::to_string(system.stats().committed);
  };
  EXPECT_EQ(run(3), run(3));
}

// Submits `count` hot-key read-modify-writes, one every 10 ms, and runs
// the world until every replica has applied them.
void DriveHotKeys(HarmonyHarness* h, uint64_t count) {
  for (uint64_t i = 1; i <= count; i++) {
    h->sim.Schedule(static_cast<sim::Time>(i) * 10 * sim::kMs, [h, i] {
      h->system->Submit(RmwTxn(i, "hot" + std::to_string(i % 3), "v"),
                        [](const core::TxnResult&) {});
    });
  }
}

// Replicas that agree adopt the epoch one of them computed, so the
// executor runs once per epoch however many replicas apply it.
void ExpectOneExecutionPerEpoch(HarmonyConsensus consensus, uint32_t n) {
  HarmonyHarness h(consensus, n);
  for (int i = 0; i < 20; i++) {
    h.system->Load("seed" + std::to_string(i), "loaded");
  }
  DriveHotKeys(&h, 60);
  h.sim.RunFor(6 * sim::kSec);
  EXPECT_EQ(h.system->stats().committed, 60u);
  ExpectReplicasConverged(*h.system);
  const HarmonyEpochStats& stats = h.system->epoch_stats();
  EXPECT_GT(stats.epochs, 1u);
  EXPECT_EQ(stats.executions, stats.epochs);
  const auto& ids = h.system->node_ids();
  for (sim::NodeId id : ids) {
    EXPECT_TRUE(h.system->state_of(id).SharesStoresWith(
        h.system->state_of(ids[0])));
    // Adopted updates carry the computing replica's accounting.
    EXPECT_EQ(h.system->state_of(id).TotalNodeBytes(),
              h.system->state_of(ids[0]).TotalNodeBytes());
    EXPECT_EQ(h.system->state_of(id).batch_reuse_hits(),
              h.system->state_of(ids[0]).batch_reuse_hits());
  }
  // Every replica has applied every epoch, so nothing is left to adopt.
  EXPECT_EQ(h.system->transitions_held(), 0u);
}

TEST(HarmonySystemTest, ExecutesEachEpochOnceUnderRaft) {
  ExpectOneExecutionPerEpoch(HarmonyConsensus::kRaft, 5);
}

TEST(HarmonySystemTest, ExecutesEachEpochOnceUnderBft) {
  ExpectOneExecutionPerEpoch(HarmonyConsensus::kBft, 4);
}

// A replica whose pre-state differs must not adopt its peers' epochs: it
// executes every epoch itself and keeps its own, different root.
TEST(HarmonySystemTest, DivergedReplicaMissesTheMemo) {
  HarmonyHarness h;
  const auto& ids = h.system->node_ids();
  for (int i = 0; i < 20; i++) {
    h.system->Load("seed" + std::to_string(i), "loaded");
  }
  h.system->PutForTest(ids[0], "rogue", "value");
  DriveHotKeys(&h, 60);
  h.sim.RunFor(6 * sim::kSec);
  EXPECT_EQ(h.system->stats().committed, 60u);

  const HarmonyEpochStats& stats = h.system->epoch_stats();
  EXPECT_GT(stats.epochs, 1u);
  // Once for the healthy replicas, once more for the diverged one.
  EXPECT_EQ(stats.executions, 2 * stats.epochs);
  EXPECT_NE(h.system->state_of(ids[0]).RootDigest(),
            h.system->state_of(ids[1]).RootDigest());
  for (size_t i = 2; i < ids.size(); i++) {
    EXPECT_EQ(h.system->state_of(ids[i]).RootDigest(),
              h.system->state_of(ids[1]).RootDigest());
  }
  // Its own computation still lands every committed write.
  for (int k = 0; k < 3; k++) {
    const std::string key = "hot" + std::to_string(k);
    std::string diverged_value;
    std::string healthy_value;
    ASSERT_TRUE(h.system->state_of(ids[0]).Get(key, &diverged_value).ok());
    ASSERT_TRUE(h.system->state_of(ids[1]).Get(key, &healthy_value).ok());
    EXPECT_EQ(diverged_value, healthy_value);
  }
  EXPECT_LE(h.system->transitions_held(), HarmonySystem::kMaxTransitions);
}

// A replica that applies nothing for many epochs would pin every computed
// epoch; the memo instead holds at most kMaxTransitions, and the replica
// recomputes what aged out once it is back.
TEST(HarmonySystemTest, MemoStaysBoundedWhileReplicaIsCutOff) {
  HarmonyHarness h;
  const auto& ids = h.system->node_ids();
  const sim::NodeId cut = ids[0];
  std::vector<sim::NodeId> rest(ids.begin() + 1, ids.end());
  DriveHotKeys(&h, 300);
  const sim::Time start = h.sim.Now();
  h.sim.Schedule(200 * sim::kMs,
                 [&] { h.net.Partition({{cut}, rest}); });
  uint64_t epochs_at_heal = 0;
  h.sim.Schedule(2700 * sim::kMs, [&] {
    epochs_at_heal = h.system->epoch_stats().epochs;
    h.net.HealPartition();
  });
  size_t most_held = 0;
  while (h.sim.Now() < start + 8 * sim::kSec) {
    h.sim.RunFor(10 * sim::kMs);
    most_held = std::max(most_held, h.system->transitions_held());
    ASSERT_LE(h.system->transitions_held(), HarmonySystem::kMaxTransitions);
  }
  // The cut-off spanned more epochs than the memo holds, so it filled.
  EXPECT_GT(epochs_at_heal, HarmonySystem::kMaxTransitions + 10);
  EXPECT_EQ(most_held, HarmonySystem::kMaxTransitions);
  EXPECT_EQ(h.system->stats().committed, 300u);
  // The rejoined replica replayed the log and recomputed what aged out.
  const HarmonyEpochStats& stats = h.system->epoch_stats();
  EXPECT_GT(stats.executions, stats.epochs);
  ExpectReplicasConverged(*h.system);
}

// Replicas that apply an epoch to the same txns append one sealed body.
void ExpectOneBodyPerEpoch(HarmonyConsensus consensus, uint32_t n) {
  HarmonyHarness h(consensus, n);
  DriveHotKeys(&h, 60);
  h.sim.RunFor(6 * sim::kSec);
  EXPECT_EQ(h.system->stats().committed, 60u);
  EXPECT_GT(h.system->chain_of(h.system->node_ids()[0]).height(), 1u);
  ExpectReplicasConverged(*h.system);
  ExpectOneBodyPerHeight(*h.system);
}

TEST(HarmonySystemTest, SealsEachEpochOnceUnderRaft) {
  ExpectOneBodyPerEpoch(HarmonyConsensus::kRaft, 5);
}

TEST(HarmonySystemTest, SealsEachEpochOnceUnderBft) {
  ExpectOneBodyPerEpoch(HarmonyConsensus::kBft, 4);
}

core::TxnRequest SmallbankTxn(uint64_t id, const std::string& method,
                              std::vector<std::string> args) {
  core::TxnRequest req;
  req.txn_id = id;
  req.client_id = id;
  req.contract = "smallbank";
  req.method = method;
  req.args = std::move(args);
  return req;
}

// One replica's balance is lower, so one payment aborts there and commits
// everywhere else. That replica seals its own body (a different root) for
// the epoch carrying the payment; the others keep sharing one, and every
// epoch whose outcome agrees is shared by all five again.
TEST(HarmonySystemTest, ReplicaWithOtherOutcomeSealsItsOwnBody) {
  HarmonyHarness h;
  const auto& ids = h.system->node_ids();
  const std::string alice = contract::SmallbankContract::CheckingKey("alice");
  h.system->Load(alice, "1000");
  h.system->PutForTest(ids[0], alice, "100");
  const uint64_t payment = 31;
  for (uint64_t i = 1; i <= 60; i++) {
    h.sim.Schedule(static_cast<sim::Time>(i) * 10 * sim::kMs, [&h, i] {
      h.system->Submit(
          i == payment ? SmallbankTxn(i, "send_payment", {"alice", "bob", "500"})
                       : RmwTxn(i, "hot" + std::to_string(i % 3), "v"),
          [](const core::TxnResult&) {});
    });
  }
  h.sim.RunFor(6 * sim::kSec);
  EXPECT_EQ(h.system->stats().committed + h.system->stats().aborted, 60u);

  const ledger::Chain& odd = h.system->chain_of(ids[0]);
  const ledger::Chain& healthy = h.system->chain_of(ids[1]);
  ASSERT_EQ(odd.height(), healthy.height());
  uint64_t own_bodies = 0;
  for (uint64_t b = 0; b < healthy.height(); b++) {
    for (size_t i = 2; i < ids.size(); i++) {
      EXPECT_EQ(h.system->chain_of(ids[i]).body(b).get(),
                healthy.body(b).get())
          << "block " << b;
    }
    bool carries_payment = false;
    const std::vector<ledger::LedgerTxn>& txns = healthy.block(b).txns;
    for (size_t t = 0; t < txns.size(); t++) {
      if (txns[t].txn_id != payment) continue;
      carries_payment = true;
      EXPECT_TRUE(txns[t].valid);
      EXPECT_FALSE(odd.block(b).txns.at(t).valid);
    }
    if (carries_payment) {
      own_bodies++;
      EXPECT_NE(odd.body(b).get(), healthy.body(b).get());
      EXPECT_NE(odd.block(b).header.txn_root, healthy.block(b).header.txn_root);
    } else {
      EXPECT_EQ(odd.body(b).get(), healthy.body(b).get()) << "block " << b;
    }
  }
  EXPECT_EQ(own_bodies, 1u);
  EXPECT_TRUE(odd.Verify().ok());
  EXPECT_TRUE(healthy.Verify().ok());
  EXPECT_LE(h.system->bodies_held(), runtime::BlockPipeline::kMaxBodies);
}

// A replica that appends nothing for many epochs would pin every sealed
// body; the pipeline instead holds at most kMaxBodies, and the replica
// seals what aged out once it is back.
TEST(HarmonySystemTest, SealedBodiesStayBoundedWhileReplicaIsCutOff) {
  HarmonyHarness h;
  const auto& ids = h.system->node_ids();
  const sim::NodeId cut = ids[0];
  std::vector<sim::NodeId> rest(ids.begin() + 1, ids.end());
  DriveHotKeys(&h, 300);
  const sim::Time start = h.sim.Now();
  h.sim.Schedule(200 * sim::kMs, [&] { h.net.Partition({{cut}, rest}); });
  h.sim.Schedule(2700 * sim::kMs, [&] { h.net.HealPartition(); });
  size_t most_held = 0;
  while (h.sim.Now() < start + 8 * sim::kSec) {
    h.sim.RunFor(10 * sim::kMs);
    most_held = std::max(most_held, h.system->bodies_held());
    ASSERT_LE(h.system->bodies_held(), runtime::BlockPipeline::kMaxBodies);
  }
  EXPECT_EQ(most_held, runtime::BlockPipeline::kMaxBodies);
  EXPECT_EQ(h.system->stats().committed, 300u);
  ExpectReplicasConverged(*h.system);
  // The rejoined replica sealed its own copies of the bodies that aged out,
  // equal in content and root.
  const ledger::Chain& rejoined = h.system->chain_of(cut);
  const ledger::Chain& healthy = h.system->chain_of(ids[1]);
  uint64_t own = 0;
  for (uint64_t b = 0; b < healthy.height(); b++) {
    EXPECT_EQ(rejoined.block(b).txns, healthy.block(b).txns);
    own += rejoined.body(b).get() != healthy.body(b).get();
  }
  EXPECT_GT(own, runtime::BlockPipeline::kMaxBodies);
}

// The replicas share node stores and sealed bodies without a lock, so a
// replica placed on another simulator partition stops the world at once.
TEST(HarmonySystemDeathTest, ReplicaOffPartitionZeroAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Simulator sim(1);
        sim.AssignNode(runtime::kHarmonyBase + 2, sim.AddPartition());
        sim::SimNetwork net(&sim, sim::NetworkConfig{});
        sim::CostModel costs;
        HarmonySystem system(&sim, &net, &costs, HarmonyConfig{});
      },
      "partition 0");
}

}  // namespace
}  // namespace dicho::systems
