#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "systems/etcd.h"
#include "systems/fabric.h"
#include "systems/harmonylike.h"
#include "systems/harmonyshard.h"

namespace dicho::systems {
namespace {

// System-level replica lifecycle: AddReplica/AddPeer mid-traffic must end
// with the joiner's state digest equal to an original replica's — the
// catch-up-correctness oracle — while the pre-join replicas keep committing.

core::TxnRequest PutTxn(uint64_t id, const std::string& key,
                        const std::string& value) {
  core::TxnRequest req;
  req.txn_id = id;
  req.client_id = id;
  req.contract = "ycsb";
  req.ops = {{core::OpType::kWrite, key, value}};
  return req;
}

runtime::ElasticityConfig TestElasticity() {
  runtime::ElasticityConfig elasticity;
  elasticity.enabled = true;
  // Small interval so the run folds several snapshots and the transfer
  // actually crosses compaction anchors.
  elasticity.snapshot_every = 16;
  return elasticity;
}

template <typename System>
int DriveWrites(sim::Simulator* sim, System* system, int count,
                sim::Time spacing, int* committed) {
  for (int i = 0; i < count; i++) {
    sim->Schedule(static_cast<sim::Time>(i + 1) * spacing,
                  [system, i, committed] {
                    system->Submit(
                        PutTxn(static_cast<uint64_t>(i + 1),
                               "key" + std::to_string(i % 40),
                               "value" + std::to_string(i)),
                        [committed](const core::TxnResult& r) {
                          if (r.status.ok()) (*committed)++;
                        });
                  });
  }
  return count;
}

TEST(ElasticityTest, EtcdJoinerConvergesToLeaderDigest) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  EtcdConfig config;
  config.num_nodes = 3;
  config.elasticity = TestElasticity();
  EtcdSystem system(&sim, &net, &costs, config);
  system.Start();
  sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(system.HasLeader());
  for (int i = 0; i < 20; i++) {
    system.Load("seed" + std::to_string(i), "loaded");
  }

  int committed = 0;
  DriveWrites(&sim, &system, 300, 5 * sim::kMs, &committed);

  runtime::JoinReport report;
  NodeId joiner = 0;
  sim.Schedule(400 * sim::kMs, [&] {
    joiner = system.AddReplica(
        [&report](const runtime::JoinReport& r) { report = r; });
  });
  sim.RunFor(30 * sim::kSec);

  ASSERT_TRUE(report.ok) << "join never completed";
  EXPECT_GT(report.anchor, 0u);
  EXPECT_GT(committed, 250);
  // Catch-up correctness oracle: the joiner's shadow digest matches an
  // original replica's once traffic quiesces.
  ASSERT_NE(system.tracker(joiner), nullptr);
  EXPECT_EQ(system.tracker(joiner)->Digest(), system.tracker(0)->Digest());
  // The transferred keys landed in the joiner's real storage engine too.
  std::string value;
  ASSERT_TRUE(system.state_of(joiner)->Get("seed0", &value).ok());
  EXPECT_EQ(value, "loaded");
}

TEST(ElasticityTest, HarmonylikeJoinerMatchesMptRoot) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  HarmonyConfig config;
  config.num_nodes = 3;
  config.elasticity = TestElasticity();
  HarmonySystem system(&sim, &net, &costs, config);
  system.Start();
  sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(system.HasSequencer());
  for (int i = 0; i < 20; i++) {
    system.Load("seed" + std::to_string(i), "loaded");
  }

  int committed = 0;
  DriveWrites(&sim, &system, 300, 5 * sim::kMs, &committed);

  runtime::JoinReport report;
  sim::NodeId joiner = 0;
  sim.Schedule(400 * sim::kMs, [&] {
    joiner = system.AddReplica(
        [&report](const runtime::JoinReport& r) { report = r; });
  });
  sim.RunFor(30 * sim::kSec);

  ASSERT_TRUE(report.ok) << "join never completed";
  EXPECT_GT(committed, 250);
  ASSERT_NE(system.tracker(joiner), nullptr);
  EXPECT_EQ(system.tracker(joiner)->Digest(),
            system.tracker(system.node_ids()[0])->Digest());
  // Deterministic execution's stronger promise: the joiner's authenticated
  // state root is byte-identical to its elders'.
  EXPECT_EQ(system.state_of(joiner).RootDigest(),
            system.state_of(system.node_ids()[0]).RootDigest());
}

// A follower cut off across many fold anchors comes back only through a
// lifecycle transfer: every replica compacted its Raft log past the cut-off
// one's position while it was away, so log back-fill cannot reach it.
// `ids[cut_index]` is cut off; the first other replica is the reference.
template <typename System>
void ExpectIsolatedReplicaRecovers(sim::Simulator* sim, sim::SimNetwork* net,
                                   System* system,
                                   const std::vector<sim::NodeId>& ids,
                                   size_t cut_index) {
  system->Start();
  sim->RunFor(1 * sim::kSec);
  for (int i = 0; i < 20; i++) {
    system->Load("seed" + std::to_string(i), "loaded");
  }
  int committed = 0;
  DriveWrites(sim, system, 600, 5 * sim::kMs, &committed);
  const sim::NodeId cut = ids[cut_index];
  std::vector<sim::NodeId> rest;
  for (sim::NodeId id : ids) {
    if (id != cut) rest.push_back(id);
  }
  const runtime::ReplicaTracker* healthy = system->tracker(rest[0]);
  sim->Schedule(200 * sim::kMs,
                [net, cut, rest] { net->Partition({{cut}, rest}); });
  uint64_t anchor_at_cut = 0;
  sim->Schedule(210 * sim::kMs, [&] {
    anchor_at_cut = healthy->manifest().anchor;
  });
  uint64_t anchor_at_heal = 0;
  sim->Schedule(2500 * sim::kMs, [&] {
    anchor_at_heal = healthy->manifest().anchor;
    net->HealPartition();
  });
  sim->RunFor(30 * sim::kSec);

  // The cut spanned at least two folds on the healthy side.
  EXPECT_GE(anchor_at_heal, anchor_at_cut + 2 * 16);
  EXPECT_GT(committed, 500);
  const runtime::ReplicaTracker* rejoined = system->tracker(cut);
  ASSERT_NE(rejoined, nullptr);
  EXPECT_EQ(rejoined->applied_seq(), healthy->applied_seq());
  EXPECT_EQ(rejoined->Digest(), healthy->Digest());
}

TEST(ElasticityTest, EtcdIsolatedFollowerRecoversAfterCompaction) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  EtcdConfig config;
  config.num_nodes = 3;
  config.elasticity = TestElasticity();
  EtcdSystem system(&sim, &net, &costs, config);
  ExpectIsolatedReplicaRecovers(&sim, &net, &system, {0, 1, 2},
                                /*cut_index=*/2);
}

TEST(ElasticityTest, HarmonylikeIsolatedFollowerRecoversAfterCompaction) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  HarmonyConfig config;
  config.num_nodes = 3;
  config.elasticity = TestElasticity();
  HarmonySystem system(&sim, &net, &costs, config);
  // At this seed replica 1 leads and replica 2 completes client requests
  // (BlockPipeline's completion rule), so replica 0 is the follower to cut.
  ExpectIsolatedReplicaRecovers(&sim, &net, &system, system.node_ids(),
                                /*cut_index=*/0);
  // Deterministic execution: the rejoined replica's authenticated root is
  // its elders' too, so the rescue wrote into the real MPT.
  EXPECT_EQ(system.state_of(system.node_ids()[0]).RootDigest(),
            system.state_of(system.node_ids()[1]).RootDigest());
}

TEST(ElasticityTest, EtcdDrainedLeaderIsRemovedUnderTraffic) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  EtcdConfig config;
  config.num_nodes = 5;
  config.elasticity = TestElasticity();
  EtcdSystem system(&sim, &net, &costs, config);
  system.Start();
  sim.RunFor(1 * sim::kSec);
  consensus::RaftCluster* raft = system.transport()->raft();
  ASSERT_NE(raft->leader(), nullptr);
  const NodeId drained = raft->leader()->id();

  // Commits are counted by completion time, split at the hand-off.
  int committed = 0;
  sim::Time removed_at = 0;
  int committed_after = 0;
  for (int i = 0; i < 600; i++) {
    sim.Schedule(static_cast<sim::Time>(i + 1) * 5 * sim::kMs, [&, i] {
      system.Submit(PutTxn(static_cast<uint64_t>(i + 1),
                           "key" + std::to_string(i % 40),
                           "value" + std::to_string(i)),
                    [&](const core::TxnResult& r) {
                      if (!r.status.ok()) return;
                      committed++;
                      if (removed_at > 0) committed_after++;
                    });
    });
  }
  bool removed = false;
  sim.Schedule(500 * sim::kMs, [&] {
    system.RemoveReplica(drained, /*drain=*/true, [&] {
      removed = true;
      removed_at = sim.Now();
    });
  });
  sim.RunFor(30 * sim::kSec);

  ASSERT_TRUE(removed) << "drain + removal never completed";
  consensus::RaftNode* leader = raft->leader();
  ASSERT_NE(leader, nullptr);
  EXPECT_NE(leader->id(), drained);
  EXPECT_FALSE(leader->membership().Contains(drained));
  EXPECT_EQ(leader->membership().members.size(), 4u);
  // The hand-off left the group committing: well over half the writes were
  // submitted after it (removal takes well under a second).
  EXPECT_GT(committed, 550);
  EXPECT_GT(committed_after, 200);
  const runtime::ReplicaTracker* reference = nullptr;
  for (NodeId id = 0; id < 5; id++) {
    if (id == drained) continue;
    if (reference == nullptr) {
      reference = system.tracker(id);
      continue;
    }
    EXPECT_EQ(system.tracker(id)->Digest(), reference->Digest()) << id;
    EXPECT_EQ(system.tracker(id)->applied_seq(), reference->applied_seq())
        << id;
  }
}

TEST(ElasticityTest, FabricJoinedPeerCarriesMvccVersions) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  FabricConfig config;
  config.num_peers = 4;
  config.elasticity = TestElasticity();
  FabricSystem system(&sim, &net, &costs, config);
  system.Start();
  sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(system.Ready());
  for (int i = 0; i < 20; i++) {
    system.Load("seed" + std::to_string(i), "loaded");
  }

  int committed = 0;
  DriveWrites(&sim, &system, 200, 10 * sim::kMs, &committed);

  runtime::JoinReport report;
  NodeId joiner = 0;
  sim.Schedule(500 * sim::kMs, [&] {
    joiner = system.AddPeer(
        [&report](const runtime::JoinReport& r) { report = r; });
  });
  sim.RunFor(30 * sim::kSec);

  ASSERT_TRUE(report.ok) << "join never completed";
  EXPECT_GT(committed, 100);
  ASSERT_NE(system.tracker(joiner), nullptr);
  EXPECT_EQ(system.tracker(joiner)->Digest(),
            system.tracker(runtime::kReplicaBase)->Digest());
  // The joiner received values *with* their MVCC versions: spot-check that
  // some committed key reads back with the exact version peer 0 holds —
  // without it, every post-join endorsement this peer served would diverge.
  const txn::VersionedState& elder = system.state_of(runtime::kReplicaBase);
  const txn::VersionedState& young = system.state_of(joiner);
  int checked = 0;
  for (int i = 0; i < 40; i++) {
    std::string key = "key" + std::to_string(i);
    std::string ev, yv;
    uint64_t eversion = 0, yversion = 0;
    elder.Get(key, &ev, &eversion);
    young.Get(key, &yv, &yversion);
    if (eversion == 0) continue;
    EXPECT_EQ(ev, yv) << key;
    EXPECT_EQ(eversion, yversion) << key;
    checked++;
  }
  EXPECT_GT(checked, 0);
}

TEST(ElasticityTest, HarmonyShardGroupAdmitsReplica) {
  sim::Simulator sim(42);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;
  HarmonyShardConfig config;
  config.num_shards = 2;
  config.nodes_per_shard = 3;
  config.elasticity = TestElasticity();
  HarmonyShardSystem system(&sim, &net, &costs, config);
  system.Start();
  sim.RunFor(1 * sim::kSec);
  ASSERT_TRUE(system.HasSequencer());

  int committed = 0;
  DriveWrites(&sim, &system, 300, 5 * sim::kMs, &committed);

  runtime::JoinReport report;
  sim.Schedule(400 * sim::kMs, [&] {
    system.AddShardReplica(
        0, [&report](const runtime::JoinReport& r) { report = r; });
  });
  sim.RunFor(30 * sim::kSec);

  ASSERT_TRUE(report.ok) << "join never completed";
  EXPECT_GT(committed, 250);
  // The group tracker kept folding past the join; the joiner's anchor is a
  // real point in that history.
  sharding::ShardExecutor* shard = system.mutable_shard(0);
  ASSERT_NE(shard->tracker(), nullptr);
  EXPECT_LE(report.anchor, shard->tracker()->applied_seq());
  EXPECT_GT(shard->applied_epochs(), 0u);
  // The epoch path still never pays a 2PC round, grown or not.
  EXPECT_EQ(system.sharding_stats().two_pc_rounds, 0u);
}

}  // namespace
}  // namespace dicho::systems
