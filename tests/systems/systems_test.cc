#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "contract/contract.h"
#include "systems/etcd.h"
#include "systems/fabric.h"
#include "systems/quorum.h"
#include "tests/systems/completion_pinning.h"
#include "tests/systems/replica_convergence.h"
#include "systems/tidb.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dicho::systems {
namespace {

core::TxnRequest PutTxn(uint64_t id, const std::string& key,
                        const std::string& value) {
  core::TxnRequest req;
  req.txn_id = id;
  req.client_id = id;
  req.contract = "ycsb";
  req.ops = {{core::OpType::kWrite, key, value}};
  return req;
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

// ---------------------------------------------------------------------------
// etcd
// ---------------------------------------------------------------------------

struct EtcdHarness {
  explicit EtcdHarness(uint32_t n = 5)
      : sim(42), net(&sim, sim::NetworkConfig{}) {
    EtcdConfig config;
    config.num_nodes = n;
    system = std::make_unique<EtcdSystem>(&sim, &net, &costs, config);
    system->Start();
    sim.RunFor(1 * sim::kSec);
  }
  sim::Simulator sim;
  sim::SimNetwork net;
  sim::CostModel costs;
  std::unique_ptr<EtcdSystem> system;
};

TEST(EtcdSystemTest, CommitsAndReplicatesWrites) {
  EtcdHarness h;
  ASSERT_TRUE(h.system->HasLeader());
  core::TxnResult result;
  h.system->Submit(PutTxn(1, "k", "v"),
                   [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.latency(), 0);
  // Full replication: every node has the value.
  h.sim.RunFor(1 * sim::kSec);
  for (NodeId n = 0; n < 5; n++) {
    std::string value;
    ASSERT_TRUE(h.system->state_of(n)->Get("k", &value).ok()) << n;
    EXPECT_EQ(value, "v");
  }
  EXPECT_EQ(h.system->stats().committed, 1u);
}

TEST(EtcdSystemTest, RejectsMultiOpTransactions) {
  EtcdHarness h;
  core::TxnRequest multi = PutTxn(1, "a", "1");
  multi.ops.push_back({core::OpType::kWrite, "b", "2"});
  core::TxnResult result;
  h.system->Submit(multi, [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(100 * sim::kMs);
  EXPECT_EQ(result.status.code(), StatusCode::kNotSupported);
}

TEST(EtcdSystemTest, QueryReturnsLoadedValue) {
  EtcdHarness h;
  h.system->Load("k", "loaded");
  core::ReadResult result;
  h.system->Query({1, "k"}, [&](const core::ReadResult& r) { result = r; });
  h.sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.value, "loaded");
  // Sub-millisecond reads (paper Fig. 5).
  EXPECT_LT(result.latency(), 2 * sim::kMs);
}

// Full replication keeps one copy of each value per world: every replica's
// leaf points into the shared Raft command (or the one loaded record).
TEST(EtcdSystemTest, ReplicasShareOneValueBuffer) {
  EtcdHarness h;
  ASSERT_TRUE(h.system->HasLeader());
  std::map<std::string, std::string> expected;
  for (int i = 0; i < 30; i++) {  // keys 25-29 keep their loaded value
    const std::string key = "key" + std::to_string(i);
    expected[key] = "loaded" + std::to_string(i);
    h.system->Load(key, expected[key]);
  }
  int committed = 0;
  for (int i = 0; i < 30; i++) {
    const std::string key = "key" + std::to_string(i % 25);
    const std::string value = std::string(1000, 'a' + i % 26) +
                              std::to_string(i);
    expected[key] = value;
    h.sim.Schedule(static_cast<sim::Time>(i) * 2 * sim::kMs, [&, i, key,
                                                              value] {
      h.system->Submit(PutTxn(static_cast<uint64_t>(i + 1), key, value),
                       [&](const core::TxnResult& r) {
                         if (r.status.ok()) committed++;
                       });
    });
  }
  h.sim.RunFor(2 * sim::kSec);
  ASSERT_EQ(committed, 30);

  std::vector<std::unique_ptr<storage::Iterator>> its;
  for (NodeId n = 0; n < 5; n++) {
    its.push_back(h.system->state_of(n)->NewIterator());
    its.back()->SeekToFirst();
  }
  for (const auto& [key, value] : expected) {
    ASSERT_TRUE(its[0]->Valid());
    const char* shared = its[0]->value().data();
    for (NodeId n = 0; n < 5; n++) {
      ASSERT_TRUE(its[n]->Valid()) << n;
      ASSERT_EQ(its[n]->key().ToString(), key) << n;
      EXPECT_EQ(its[n]->value().ToString(), value) << key << " @" << n;
      EXPECT_EQ(static_cast<const void*>(its[n]->value().data()),
                static_cast<const void*>(shared))
          << key << " @" << n;
      its[n]->Next();
    }
  }
  for (NodeId n = 0; n < 5; n++) EXPECT_FALSE(its[n]->Valid()) << n;
}

// A leader cut off by a partition still believes it leads. Writes must go
// to its successor, the leader of the higher term, so commits resume while
// the old leader is away.
TEST(EtcdSystemTest, CommitsResumeThroughSuccessorOfCutOffLeader) {
  EtcdHarness h;
  consensus::RaftCluster* raft = h.system->transport()->raft();
  ASSERT_NE(raft->leader(), nullptr);
  const NodeId cut = raft->leader()->id();
  std::vector<NodeId> rest;
  for (NodeId id = 0; id < 5; id++) {
    if (id != cut) rest.push_back(id);
  }
  h.net.Partition({{cut}, rest});
  h.sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(raft->node(cut)->IsLeader());
  consensus::RaftNode* successor = raft->leader();
  ASSERT_NE(successor, nullptr);
  EXPECT_NE(successor->id(), cut);

  int committed = 0;
  for (int i = 0; i < 100; i++) {
    h.sim.Schedule(static_cast<sim::Time>(i) * 5 * sim::kMs, [&, i] {
      h.system->Submit(PutTxn(static_cast<uint64_t>(i + 1),
                              "key" + std::to_string(i), "value"),
                       [&](const core::TxnResult& r) {
                         if (r.status.ok()) committed++;
                       });
    });
  }
  h.sim.RunFor(2 * sim::kSec);
  EXPECT_EQ(committed, 100);
  std::string value;
  ASSERT_TRUE(h.system->state_of(successor->id())->Get("key99", &value).ok());
  EXPECT_EQ(value, "value");
}

// ---------------------------------------------------------------------------
// Quorum
// ---------------------------------------------------------------------------

struct QuorumHarness {
  explicit QuorumHarness(QuorumConsensus consensus = QuorumConsensus::kRaft,
                         uint32_t n = 5)
      : sim(42), net(&sim, sim::NetworkConfig{}) {
    QuorumConfig config;
    config.num_nodes = n;
    config.consensus = consensus;
    config.block_interval = 100 * sim::kMs;  // faster tests
    system = std::make_unique<QuorumSystem>(&sim, &net, &costs, config);
    system->Start();
    sim.RunFor(1 * sim::kSec);
  }
  sim::Simulator sim;
  sim::SimNetwork net;
  sim::CostModel costs;
  std::unique_ptr<QuorumSystem> system;
};

TEST(QuorumSystemTest, CommitsThroughBlocks) {
  QuorumHarness h;
  ASSERT_TRUE(h.system->HasProposer());
  int committed = 0;
  for (int i = 0; i < 5; i++) {
    h.system->Submit(PutTxn(i + 1, "key" + std::to_string(i), "value"),
                     [&](const core::TxnResult& r) {
                       committed += r.status.ok();
                     });
  }
  h.sim.RunFor(5 * sim::kSec);
  EXPECT_EQ(committed, 5);
  // Ledger grew and verifies on every node; state identical everywhere.
  for (NodeId n = 0; n < 5; n++) {
    EXPECT_GT(h.system->chain_of(n).height(), 0u);
    EXPECT_TRUE(h.system->chain_of(n).Verify().ok());
    std::string value;
    ASSERT_TRUE(h.system->state_of(n).Get("key0", &value).ok());
    EXPECT_EQ(value, "value");
  }
  // All replicas agree on the state digest.
  auto root = h.system->state_of(0).RootDigest();
  for (NodeId n = 1; n < 5; n++) {
    EXPECT_EQ(h.system->state_of(n).RootDigest(), root);
  }
}

TEST(QuorumSystemTest, IbftAlsoCommits) {
  QuorumHarness h(QuorumConsensus::kIbft, 4);
  int committed = 0;
  for (int i = 0; i < 5; i++) {
    h.system->Submit(PutTxn(i + 1, "k" + std::to_string(i), "v"),
                     [&](const core::TxnResult& r) {
                       committed += r.status.ok();
                     });
  }
  h.sim.RunFor(8 * sim::kSec);
  EXPECT_EQ(committed, 5);
}

TEST(QuorumSystemTest, SmallbankConstraintAbortRecordedOnChain) {
  QuorumHarness h;
  h.system->Load(contract::SmallbankContract::CheckingKey("alice"), "50");
  h.system->Load(contract::SmallbankContract::CheckingKey("bob"), "0");
  core::TxnResult result;
  // alice has 50, sends 500: aborts in the contract.
  h.system->Submit(SmallbankTxn(1, "send_payment", {"alice", "bob", "500"}),
                   [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(5 * sim::kSec);
  EXPECT_TRUE(result.status.IsAborted());
  EXPECT_EQ(result.reason, core::AbortReason::kConstraint);
  // The aborted transaction is still recorded on the ledger.
  EXPECT_GT(h.system->chain_of(0).TotalTxns(), 0u);
}

TEST(QuorumSystemTest, QueriesAreMillisecondScale) {
  QuorumHarness h;
  h.system->Load("k", "v");
  core::ReadResult result;
  h.system->Query({1, "k"}, [&](const core::ReadResult& r) { result = r; });
  h.sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(result.status.ok());
  // ~4ms per the paper (well above database reads, far below updates).
  EXPECT_GT(result.latency(), 2 * sim::kMs);
  EXPECT_LT(result.latency(), 10 * sim::kMs);
}

TEST(QuorumSystemTest, ReplicasConvergeToIdenticalStateAndChain) {
  for (auto [consensus, nodes] :
       {std::pair{QuorumConsensus::kRaft, 5u},
        std::pair{QuorumConsensus::kIbft, 4u}}) {
    QuorumHarness h(consensus, nodes);
    workload::YcsbConfig wcfg;
    wcfg.record_count = 200;
    wcfg.record_size = 100;
    workload::YcsbWorkload workload(wcfg, 5);
    for (uint64_t i = 0; i < wcfg.record_count; i++) {
      h.system->Load(workload.KeyAt(i), workload.RandomValue());
    }
    workload::DriverConfig dcfg;
    dcfg.num_clients = 16;
    dcfg.warmup = 1 * sim::kSec;
    dcfg.measure = 3 * sim::kSec;
    workload::Driver driver(
        &h.sim, h.system.get(), [&] { return workload.NextTxn(); }, dcfg);
    workload::RunMetrics m = driver.Run();
    // Let the blocks still in flight commit on every replica.
    h.sim.RunFor(5 * sim::kSec);

    EXPECT_GT(m.committed, 0u);
    ExpectReplicasConverged(*h.system);
  }
}

// Replicas that apply a block to the same txns append one sealed body, so
// each block is Merkle-hashed once per world (plus the proposer's cut).
TEST(QuorumSystemTest, SealsEachBlockOncePerWorld) {
  for (auto [consensus, nodes] :
       {std::pair{QuorumConsensus::kRaft, 5u},
        std::pair{QuorumConsensus::kIbft, 4u}}) {
    QuorumHarness h(consensus, nodes);
    h.system->Load(contract::SmallbankContract::CheckingKey("alice"), "50");
    uint64_t id = 0;
    for (int i = 0; i < 40; i++) {
      h.sim.Schedule(i * 25 * sim::kMs, [&h, &id, i] {
        ++id;
        // Every fourth txn overdraws, so blocks mix valid and aborted txns.
        h.system->Submit(
            i % 4 == 0 ? SmallbankTxn(id, "send_payment",
                                      {"alice", "bob", "500"})
                       : PutTxn(id, "key" + std::to_string(i % 7), "v"),
            [](const core::TxnResult&) {});
      });
    }
    h.sim.RunFor(8 * sim::kSec);
    EXPECT_EQ(h.system->stats().committed + h.system->stats().aborted, 40u);
    EXPECT_EQ(h.system->stats().aborted, 10u);
    EXPECT_GT(h.system->chain_of(0).height(), 1u);
    ExpectReplicasConverged(*h.system);
    ExpectOneBodyPerHeight(*h.system);
  }
}

// Sealed bodies are shared without a lock: a replica on another simulator
// partition aborts at its first committed block.
TEST(QuorumSystemDeathTest, ReplicaOffPartitionZeroAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Simulator sim(1);
        sim.AssignNode(runtime::kReplicaBase + 3, sim.AddPartition());
        sim::SimNetwork net(&sim, sim::NetworkConfig{});
        sim::CostModel costs;
        QuorumConfig config;
        QuorumSystem system(&sim, &net, &costs, config);
        system.Start();
        sim.RunFor(1 * sim::kSec);
        system.Submit(PutTxn(1, "k", "v"), [](const core::TxnResult&) {});
        sim.RunFor(5 * sim::kSec);
      },
      "partition 0");
}

TEST(QuorumSystemTest, CompletionReplicaAnswersItsBlocksAfterLeaderMoves) {
  QuorumHarness h;
  ExpectWritesAnsweredOnceAcrossLeaderMove(&h, [](uint64_t id) {
    return PutTxn(id, "key" + std::to_string(id), "value");
  });
}

// The proposer pre-executes a deposit into its own state, then its block is
// lost: the proposer was cut off, and Raft reports the loss at the heal.
// When the same proposer cuts the deposit again, it must not run it on top
// of its own earlier execution: the balance ends at 1 on every replica.
TEST(QuorumSystemTest, LostBlockCutAgainByItsProposerDepositsOnce) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  QuorumConfig config;
  config.num_nodes = 5;
  // Cuts at 1 s, 2 s, ...: room to move leadership between two cuts.
  config.block_interval = 1 * sim::kSec;
  QuorumSystem system(&sim, &net, &costs, config);
  system.Start();
  consensus::RaftCluster* raft = system.transport()->raft();
  sim.RunUntil(1500 * sim::kMs);
  ASSERT_NE(raft->leader(), nullptr);
  const NodeId proposer = raft->leader()->id();
  std::vector<NodeId> others;
  for (NodeId id : system.node_ids()) {
    if (id != proposer) others.push_back(id);
  }
  const std::string key = contract::SmallbankContract::CheckingKey("carol");
  auto balance = [&](NodeId id) -> int64_t {
    std::string value;
    if (!system.state_of(id).Get(key, &value).ok()) return 0;
    return contract::SmallbankContract::DecodeBalance(value);
  };

  int answers = 0;
  bool ok = false;
  system.Submit(SmallbankTxn(1, "deposit_checking",
                             {"carol", contract::SmallbankContract::
                                           EncodeBalance(1)}),
                [&](const core::TxnResult& r) {
                  answers++;
                  ok = r.status.ok();
                });
  sim.RunUntil(1999 * sim::kMs);
  net.Partition({{proposer}, others});
  sim.RunUntil(2100 * sim::kMs);
  ASSERT_EQ(balance(proposer), 1);  // pre-executed at the 2 s cut
  ASSERT_EQ(balance(others.front()), 0);

  // Heal just after the 3 s cut, which found the mempool empty; the
  // proposer hears of the higher term and reports its block lost.
  sim.RunUntil(3010 * sim::kMs);
  ASSERT_NE(raft->leader(), nullptr);
  ASSERT_NE(raft->leader()->id(), proposer);
  net.HealPartition();
  sim.RunUntil(3300 * sim::kMs);
  ASSERT_EQ(system.stats().stages.mempool_depth, 1u);  // requeued
  ASSERT_NE(raft->leader()->id(), proposer);
  ASSERT_TRUE(raft->leader()->TransferLeadership(proposer));
  sim.RunUntil(3900 * sim::kMs);
  ASSERT_EQ(raft->leader()->id(), proposer);  // it cuts the deposit at 4 s

  sim.RunUntil(8 * sim::kSec);
  EXPECT_EQ(answers, 1);
  EXPECT_TRUE(ok);
  for (NodeId id : system.node_ids()) EXPECT_EQ(balance(id), 1) << id;
  ExpectReplicasConverged(system);
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

struct FabricHarness {
  explicit FabricHarness(uint32_t peers = 5)
      : sim(42), net(&sim, sim::NetworkConfig{}) {
    FabricConfig config;
    config.num_peers = peers;
    config.ordering.batch_timeout = 100 * sim::kMs;  // faster tests
    system = std::make_unique<FabricSystem>(&sim, &net, &costs, config);
    system->Start();
    sim.RunFor(1 * sim::kSec);
  }
  sim::Simulator sim;
  sim::SimNetwork net;
  sim::CostModel costs;
  std::unique_ptr<FabricSystem> system;
};

TEST(FabricSystemTest, ExecuteOrderValidateCommit) {
  FabricHarness h;
  ASSERT_TRUE(h.system->Ready());
  core::TxnResult result;
  h.system->Submit(PutTxn(1, "k", "v"),
                   [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(3 * sim::kSec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // All three phases measured.
  EXPECT_GT(result.phases.Get(core::Phase::kExecute), 0);
  EXPECT_GT(result.phases.Get(core::Phase::kOrder), 0);
  EXPECT_GT(result.phases.Get(core::Phase::kValidate), 0);
  // Replicated to every peer; ledgers verify.
  for (NodeId p = 0; p < 5; p++) {
    std::string value;
    uint64_t version;
    h.system->state_of(p).Get("k", &value, &version);
    EXPECT_EQ(value, "v") << "peer " << p;
    EXPECT_TRUE(h.system->chain_of(p).Verify().ok());
  }
}

TEST(FabricSystemTest, StaleReadAbortsAtValidation) {
  FabricHarness h;
  h.system->Load("x", "0");
  // Two read-modify-write transactions on the same key submitted together:
  // both endorse against the same version; the one ordered second fails the
  // MVCC check (paper Fig. 9).
  core::TxnRequest t1 = PutTxn(1, "x", "a");
  t1.ops[0].type = core::OpType::kReadModifyWrite;
  core::TxnRequest t2 = PutTxn(2, "x", "b");
  t2.ops[0].type = core::OpType::kReadModifyWrite;
  core::TxnResult r1, r2;
  h.system->Submit(t1, [&](const core::TxnResult& r) { r1 = r; });
  h.system->Submit(t2, [&](const core::TxnResult& r) { r2 = r; });
  h.sim.RunFor(3 * sim::kSec);
  EXPECT_TRUE(r1.status.ok() != r2.status.ok());  // exactly one wins
  const core::TxnResult& loser = r1.status.ok() ? r2 : r1;
  EXPECT_EQ(loser.reason, core::AbortReason::kReadConflict);
  EXPECT_EQ(h.system->stats().aborts_by_reason.at(
                core::AbortReason::kReadConflict),
            1u);
}

TEST(FabricSystemTest, QueryDominatedByAuth) {
  FabricHarness h;
  h.system->Load("k", "v");
  core::ReadResult result;
  h.system->Query({1, "k"}, [&](const core::ReadResult& r) { result = r; });
  h.sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(result.status.ok());
  // ~9ms query dominated by client authentication (paper Fig. 8b).
  EXPECT_GT(result.latency(), 5 * sim::kMs);
  EXPECT_GT(result.phases.Get(core::Phase::kAuth),
            result.phases.Get(core::Phase::kRead));
}

TEST(FabricSystemTest, EndorsementsGrowWithPeerCount) {
  // More peers => more endorsement signatures per txn => heavier validation
  // (the Table 4 mechanism). Check the ledger carries N endorsements.
  FabricHarness h(7);
  core::TxnResult result;
  h.system->Submit(PutTxn(1, "k", "v"),
                   [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(3 * sim::kSec);
  ASSERT_TRUE(result.status.ok());
  const auto& chain = h.system->chain_of(0);
  ASSERT_GT(chain.height(), 0u);
  EXPECT_EQ(chain.block(0).txns[0].endorsements.size(), 7u);
}

// ---------------------------------------------------------------------------
// TiDB
// ---------------------------------------------------------------------------

struct TidbHarness {
  explicit TidbHarness(uint32_t servers = 3, uint32_t tikv = 3)
      : sim(42), net(&sim, sim::NetworkConfig{}) {
    TidbConfig config;
    config.num_tidb_servers = servers;
    config.num_tikv_nodes = tikv;
    system = std::make_unique<TidbSystem>(&sim, &net, &costs, config);
  }
  sim::Simulator sim;
  sim::SimNetwork net;
  sim::CostModel costs;
  std::unique_ptr<TidbSystem> system;
};

TEST(TidbSystemTest, CommitsReadModifyWrite) {
  TidbHarness h;
  h.system->Load("k", "1");
  core::TxnRequest txn = PutTxn(1, "k", "2");
  txn.ops[0].type = core::OpType::kReadModifyWrite;
  core::TxnResult result;
  h.system->Submit(txn, [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(2 * sim::kSec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.reads["k"], "1");
  EXPECT_GT(result.phases.Get(core::Phase::kPrewrite), 0);
  EXPECT_GT(result.phases.Get(core::Phase::kCommit), 0);
  // Milliseconds, not blockchain-scale latency.
  EXPECT_LT(result.latency(), 50 * sim::kMs);
}

TEST(TidbSystemTest, SmallbankTransfersAreAtomic) {
  TidbHarness h;
  h.system->Load(contract::SmallbankContract::CheckingKey("alice"), "1000");
  h.system->Load(contract::SmallbankContract::CheckingKey("bob"), "0");
  core::TxnResult result;
  h.system->Submit(SmallbankTxn(1, "send_payment", {"alice", "bob", "300"}),
                   [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(2 * sim::kSec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  core::ReadResult alice, bob;
  h.system->Query({1, contract::SmallbankContract::CheckingKey("alice")},
                  [&](const core::ReadResult& r) { alice = r; });
  h.system->Query({2, contract::SmallbankContract::CheckingKey("bob")},
                  [&](const core::ReadResult& r) { bob = r; });
  h.sim.RunFor(1 * sim::kSec);
  EXPECT_EQ(alice.value, "700");
  EXPECT_EQ(bob.value, "300");
}

TEST(TidbSystemTest, WriteWriteConflictOneWinsOrRetries) {
  TidbHarness h;
  h.system->Load("hot", "0");
  // A burst of conflicting RMWs on one key: with retries most eventually
  // commit, occupying the coordinator (the skew-collapse mechanism).
  int done = 0, ok = 0;
  for (int i = 0; i < 10; i++) {
    core::TxnRequest txn = PutTxn(i + 1, "hot", "v" + std::to_string(i));
    txn.ops[0].type = core::OpType::kReadModifyWrite;
    h.system->Submit(txn, [&](const core::TxnResult& r) {
      done++;
      ok += r.status.ok();
    });
  }
  h.sim.RunFor(10 * sim::kSec);
  EXPECT_EQ(done, 10);
  EXPECT_GT(ok, 0);
  // The final value is one of the writes (no lost intermediate state).
  core::ReadResult result;
  h.system->Query({1, "hot"}, [&](const core::ReadResult& r) { result = r; });
  h.sim.RunFor(1 * sim::kSec);
  EXPECT_EQ(result.value.rfind("v", 0), 0u);
}

TEST(TidbSystemTest, ConstraintAbortDoesNotRetry) {
  TidbHarness h;
  h.system->Load(contract::SmallbankContract::SavingsKey("carl"), "100");
  core::TxnResult result;
  h.system->Submit(SmallbankTxn(1, "transact_savings", {"carl", "-500"}),
                   [&](const core::TxnResult& r) { result = r; });
  h.sim.RunFor(2 * sim::kSec);
  EXPECT_TRUE(result.status.IsAborted());
  EXPECT_EQ(result.reason, core::AbortReason::kConstraint);
}

TEST(TidbSystemTest, RawTikvPathIsFasterThanTxnPath) {
  TidbHarness h;
  h.system->Load("k", "v");
  // Transactional write.
  core::TxnResult txn_result;
  core::TxnRequest txn = PutTxn(1, "k", "w");
  txn.ops[0].type = core::OpType::kReadModifyWrite;
  h.system->Submit(txn, [&](const core::TxnResult& r) { txn_result = r; });
  h.sim.RunFor(2 * sim::kSec);
  ASSERT_TRUE(txn_result.status.ok());

  // Raw put.
  double raw_latency = -1;
  sim::Time t0 = h.sim.Now();
  h.system->RawPut("k2", "v2", [&](Status s) {
    ASSERT_TRUE(s.ok());
    raw_latency = h.sim.Now() - t0;
  });
  h.sim.RunFor(2 * sim::kSec);
  ASSERT_GT(raw_latency, 0);
  EXPECT_LT(raw_latency, txn_result.latency());
}

// ---------------------------------------------------------------------------
// Cross-system: the paper's headline ordering under a small YCSB run
// ---------------------------------------------------------------------------

TEST(SystemsIntegrationTest, ThroughputOrderingMatchesPaper) {
  // Small-scale YCSB update-only: etcd > TiDB > Fabric > Quorum.
  auto run = [](auto make_system, auto start) {
    sim::Simulator sim(7);
    sim::SimNetwork net(&sim, sim::NetworkConfig{});
    sim::CostModel costs;
    auto system = make_system(&sim, &net, &costs);
    start(system.get(), &sim);

    workload::YcsbConfig wcfg;
    wcfg.record_count = 1000;
    wcfg.record_size = 1000;
    workload::YcsbWorkload workload(wcfg, 3);
    for (uint64_t i = 0; i < wcfg.record_count; i++) {
      system->Load(workload.KeyAt(i), workload.RandomValue());
    }
    workload::DriverConfig dcfg;
    // Saturating concurrency: the comparison is peak capacity, and etcd's
    // group-commit batching needs enough in-flight requests to express it.
    dcfg.num_clients = 320;
    dcfg.warmup = 2 * sim::kSec;
    dcfg.measure = 5 * sim::kSec;
    workload::Driver driver(
        &sim, system.get(), [&] { return workload.NextTxn(); }, dcfg);
    return driver.Run().throughput_tps;
  };

  double etcd_tps = run(
      [](auto* sim, auto* net, auto* costs) {
        EtcdConfig config;
        return std::make_unique<EtcdSystem>(sim, net, costs, config);
      },
      [](EtcdSystem* s, sim::Simulator* sim) {
        s->Start();
        sim->RunFor(1 * sim::kSec);
      });
  double tidb_tps = run(
      [](auto* sim, auto* net, auto* costs) {
        TidbConfig config;
        return std::make_unique<TidbSystem>(sim, net, costs, config);
      },
      [](TidbSystem*, sim::Simulator*) {});
  double fabric_tps = run(
      [](auto* sim, auto* net, auto* costs) {
        FabricConfig config;
        return std::make_unique<FabricSystem>(sim, net, costs, config);
      },
      [](FabricSystem* s, sim::Simulator* sim) {
        s->Start();
        sim->RunFor(1 * sim::kSec);
      });
  double quorum_tps = run(
      [](auto* sim, auto* net, auto* costs) {
        QuorumConfig config;
        return std::make_unique<QuorumSystem>(sim, net, costs, config);
      },
      [](QuorumSystem* s, sim::Simulator* sim) {
        s->Start();
        sim->RunFor(1 * sim::kSec);
      });

  EXPECT_GT(etcd_tps, tidb_tps) << "etcd should beat TiDB";
  EXPECT_GT(tidb_tps, fabric_tps) << "TiDB should beat Fabric";
  EXPECT_GT(fabric_tps, quorum_tps) << "Fabric should beat Quorum at 1KB";
  EXPECT_GT(quorum_tps, 50) << "Quorum should still make progress";
}

}  // namespace
}  // namespace dicho::systems
