#ifndef DICHO_TESTS_SYSTEMS_COMPLETION_PINNING_H_
#define DICHO_TESTS_SYSTEMS_COMPLETION_PINNING_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "consensus/raft.h"
#include "core/types.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dicho::systems {

/// Completion duty across a leadership move, for a Raft block pipeline.
/// The last replica proposes, so the one before it answers clients. That
/// replica is cut off while the proposer commits blocks; at the heal the
/// proposer is cut off instead, so leadership moves and the duty passes
/// to the last replica while the old completion replica applies the
/// backlog from the successor. Every write must still be answered, once,
/// with ok. Harness must expose `sim`, `net` and `system` (with
/// transport() and node_ids()).
template <typename Harness>
void ExpectWritesAnsweredOnceAcrossLeaderMove(
    Harness* h, const std::function<core::TxnRequest(uint64_t)>& write) {
  consensus::RaftCluster* raft = h->system->transport()->raft();
  const std::vector<sim::NodeId> ids = h->system->node_ids();
  ASSERT_GE(ids.size(), 4u);
  const sim::NodeId proposer = ids.back();
  const sim::NodeId completion = ids[ids.size() - 2];
  auto others = [&](sim::NodeId cut) {
    std::vector<sim::NodeId> rest;
    for (sim::NodeId id : ids) {
      if (id != cut) rest.push_back(id);
    }
    return rest;
  };
  ASSERT_NE(raft->leader(), nullptr);
  if (raft->leader()->id() != proposer) {
    ASSERT_TRUE(raft->leader()->TransferLeadership(proposer));
    h->sim.RunFor(1 * sim::kSec);
  }
  ASSERT_EQ(raft->leader()->id(), proposer);

  std::map<uint64_t, int> answers;
  std::map<uint64_t, bool> ok;
  auto submit = [&](uint64_t first, uint64_t count) {
    for (uint64_t i = 0; i < count; i++) {
      h->sim.Schedule(static_cast<sim::Time>(i) * 10 * sim::kMs,
                      [&, id = first + i] {
                        h->system->Submit(
                            write(id), [&, id](const core::TxnResult& r) {
                              answers[id]++;
                              ok[id] = r.status.ok();
                            });
                      });
    }
  };

  h->net.Partition({{completion}, others(completion)});
  const uint64_t height_before = h->system->chain_of(proposer).height();
  submit(1, 50);
  h->sim.RunFor(1 * sim::kSec);
  ASSERT_EQ(raft->leader()->id(), proposer);
  ASSERT_GT(h->system->chain_of(proposer).height(), height_before);
  EXPECT_TRUE(answers.empty());  // the completion replica is cut off

  h->net.HealPartition();
  h->net.Partition({{proposer}, others(proposer)});
  h->sim.RunFor(1 * sim::kSec);
  ASSERT_NE(raft->leader(), nullptr);
  ASSERT_NE(raft->leader()->id(), proposer);
  submit(51, 50);
  h->sim.RunFor(1 * sim::kSec);

  h->net.HealPartition();
  h->sim.RunFor(3 * sim::kSec);
  EXPECT_EQ(answers.size(), 100u);
  for (uint64_t id = 1; id <= 100; id++) {
    EXPECT_EQ(answers[id], 1) << "txn " << id;
    EXPECT_TRUE(ok[id]) << "txn " << id;
  }
}

}  // namespace dicho::systems

#endif  // DICHO_TESTS_SYSTEMS_COMPLETION_PINNING_H_
