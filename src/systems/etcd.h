#ifndef DICHO_SYSTEMS_ETCD_H_
#define DICHO_SYSTEMS_ETCD_H_

#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "storage/btree/btree.h"
#include "systems/runtime/elasticity.h"
#include "systems/runtime/runtime.h"
#include "systems/runtime/transport.h"

namespace dicho::systems {

using sim::NodeId;
using sim::Time;

struct EtcdConfig {
  uint32_t num_nodes = 5;
  consensus::RaftConfig raft;
  /// Client endpoint node id used as the "source" of requests on the wire.
  NodeId client_node = runtime::kClientNode;
  /// Replica-lifecycle support (default-off; enables AddReplica).
  runtime::ElasticityConfig elasticity;
};

/// etcd-like NoSQL store (Table 2's etcd row): storage-based replication,
/// one Raft group over all nodes (full replication), serial apply into a
/// B+-tree (BoltDB-like), no transactions — multi-op requests are rejected,
/// matching the paper's note that etcd cannot run Smallbank.
///
/// Design-dimension choices: storage-based replication / consensus (CFT
/// Raft) / serial execution / no ledger / B-tree index / no sharding.
class EtcdSystem : public core::TransactionalSystem {
 public:
  EtcdSystem(sim::Simulator* sim, sim::SimNetwork* net,
             const sim::CostModel* costs, EtcdConfig config);

  /// Elects the leader; run the simulator for ~1 virtual second afterwards.
  void Start() override;
  bool HasLeader() const { return transport_->raft()->leader() != nullptr; }

  void Submit(const core::TxnRequest& request, core::TxnCallback cb) override;
  void Query(const core::ReadRequest& request, core::ReadCallback cb) override;
  const core::SystemStats& stats() const override { return stats_; }
  std::string name() const override { return "etcd"; }

  /// Pre-populates every replica directly (benchmark setup; bypasses
  /// consensus the way a bulk load would). The replicas share one copy of
  /// the value.
  void Load(const std::string& key, const std::string& value) override;

  /// The replication group (raw Raft access for tests and inspection).
  runtime::Transport* transport() { return transport_.get(); }

  /// Every node's full copy of the state (full replication). Values are
  /// shared: each replica's leaves point into the replicated Raft command
  /// (or the loaded record) rather than holding private bytes.
  storage::btree::BTree* state_of(NodeId node) { return &nodes_.at(node).state; }
  uint64_t StateBytes() const;

  /// Lifecycle (requires config.elasticity.enabled): scales the group out
  /// by one replica — content-addressed snapshot + log-tail transfer from
  /// the leader, then Raft §6 single-server admission — all under live
  /// traffic. `done` fires once the replica is admitted and inside the
  /// leader's retained log. Returns the new replica's id.
  NodeId AddReplica(std::function<void(const runtime::JoinReport&)> done);
  /// Lifecycle (requires config.elasticity.enabled): removes `id` from the
  /// group under live traffic; with `drain`, a leading `id` first hands
  /// leadership to its most caught-up follower. `done` fires once the
  /// leader's membership no longer contains it.
  void RemoveReplica(NodeId id, bool drain, std::function<void()> done);
  /// The replica's lifecycle tracker (null when elasticity is disabled).
  runtime::ReplicaTracker* tracker(NodeId node) {
    return lifecycle_ != nullptr ? lifecycle_->tracker(node) : nullptr;
  }

 private:
  struct Node {
    explicit Node(sim::Simulator* sim) : cpu(sim) {}
    storage::btree::BTree state;
    sim::CpuResource cpu;  // serial apply thread (BoltDB writer)
  };

  void ApplyEntry(NodeId node, uint64_t seq, const std::string& cmd);

  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  const sim::CostModel* costs_;
  EtcdConfig config_;
  core::SystemStats stats_;
  runtime::NodeSet<Node> nodes_;
  /// One Raft group over all nodes; Submit goes through the raw raft()
  /// accessor because etcd rejects leaderless writes instead of retrying.
  std::unique_ptr<runtime::Transport> transport_;
  /// Null when elasticity is disabled (the default, so goldens are
  /// untouched).
  std::unique_ptr<runtime::RaftLifecycle> lifecycle_;
};

}  // namespace dicho::systems

#endif  // DICHO_SYSTEMS_ETCD_H_
