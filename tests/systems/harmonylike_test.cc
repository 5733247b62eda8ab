#include "systems/harmonylike.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "crypto/sha256.h"
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

}  // namespace
}  // namespace dicho::systems
