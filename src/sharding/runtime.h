#ifndef DICHO_SHARDING_RUNTIME_H_
#define DICHO_SHARDING_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adt/mpt.h"
#include "contract/contract.h"
#include "core/types.h"
#include "crypto/sha256.h"
#include "sharding/partition.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "systems/runtime/elasticity.h"
#include "systems/runtime/mempool.h"
#include "systems/runtime/runtime.h"
#include "systems/runtime/transport.h"
#include "txn/deterministic.h"

namespace dicho::sharding {

/// The layered cross-shard runtime (paper Section 3.4 meets Calvin):
///
///   Partitioner  ->  EpochSequencer  ->  ShardExecutor (x num_shards)
///
/// A global sequencing group (Raft or PBFT) cuts seed-deterministic epochs
/// of *whole-batch* transactions and fans each ordered epoch out to every
/// shard over exactly-once links. Each shard orders the epoch in its own
/// replication group, snapshots the pre-epoch values of the keys it owns,
/// forwards them once to every other active shard (the one-shot ReadForward
/// message), and then drives the deterministic conflict-layer scheduler
/// (txn/deterministic.h) over the batch — charging its CPU only for its own
/// slice's makespan. Because every active shard executes the same ordered
/// batch against the same forwarded base views, execution is bit-identical
/// across shards: there are no locks, no concurrency aborts, and no
/// prepare/decide round. Classic 2PC (sharding/two_pc.h, systems/ahl,
/// systems/spannerlike) remains one coordination *strategy* behind the same
/// Partitioner + ShardPlanner routing layer; the epoch path is the other.

/// Cumulative counters every sharded system reports through its routing
/// layer. `two_pc_rounds` counts prepare/decide coordination rounds — the
/// tax the epoch path structurally never pays (it stays 0 for harmonyshard
/// at every sweep point, which the Fig 14 bench asserts).
struct ShardingStats {
  uint64_t single_shard_txns = 0;
  uint64_t cross_shard_txns = 0;
  uint64_t two_pc_rounds = 0;     // prepare/decide waves (ahl, spannerlike)
  uint64_t read_forwards = 0;     // one-shot ReadForward messages sent
  uint64_t forward_retransmits = 0;
  uint64_t epochs_ordered = 0;    // epochs the sequencer fanned out
  uint64_t epochs_applied = 0;    // per-shard applies (sums over shards)
};

/// Where one transaction's static key set lands: the sorted distinct shard
/// list plus its keys grouped per shard. The routing decision every sharded
/// system makes, factored out of ahl/spannerlike's private copies.
struct TxnShardPlan {
  /// Sorted, de-duplicated static key set.
  std::vector<std::string> keys;
  /// Sorted distinct shards touching the transaction. Empty key set => {0}
  /// (keyless transactions home on shard 0).
  std::vector<uint32_t> shards;
  std::map<uint32_t, std::vector<std::string>> keys_by_shard;

  bool cross_shard() const { return shards.size() > 1; }
  /// The shard that owns the client-visible outcome (lowest involved id).
  uint32_t home() const { return shards.empty() ? 0 : shards.front(); }
};

/// Pure routing over a Partitioner — no simulator interaction, so planning
/// is free to run anywhere (client, sequencer, every shard) and always
/// agrees.
class ShardPlanner {
 public:
  explicit ShardPlanner(const Partitioner* partitioner)
      : partitioner_(partitioner) {}

  TxnShardPlan Plan(const core::TxnRequest& request) const;

  const Partitioner* partitioner() const { return partitioner_; }

 private:
  const Partitioner* partitioner_;
};

/// One ordered epoch: the sequencer's batch number plus the whole-batch
/// transaction list every shard receives (Calvin-style full dissemination —
/// inactive shards skip execution but still advance their epoch cursor, so
/// "applied on all shards or none" is the natural atomicity invariant).
struct EpochBatch {
  uint64_t number = 0;
  std::vector<core::TxnRequest> txns;

  std::string Serialize() const;
  static bool Deserialize(const std::string& data, EpochBatch* out);
  uint64_t ByteSize() const;
  /// Content digest (number + payloads) — the cross-shard order-agreement
  /// oracle the shard_epoch fuzz scenario compares.
  crypto::Digest Digest() const;
};

/// Exactly-once, in-order-retransmitted unicast between two fixed nodes on
/// the simulated network: sequence numbers, acks, periodic retransmit while
/// anything is unacked, and receiver-side dedup. Partitions and drop bursts
/// delay delivery; they can no longer lose it. Carries the sequencer's
/// epoch fan-out and the shard-to-shard ReadForward messages.
class ReliableLink {
 public:
  /// deliver(seq, payload) runs on the receiving node, exactly once per
  /// Send, in any order (receivers that need order buffer by content).
  using DeliverFn = std::function<void(uint64_t seq, const std::string&)>;

  ReliableLink(sim::Simulator* sim, sim::SimNetwork* net, sim::NodeId from,
               sim::NodeId to, DeliverFn deliver,
               sim::Time retry_interval = 30 * sim::kMs);

  void Send(std::string payload);

  uint64_t sent() const { return next_seq_; }
  uint64_t delivered() const { return delivered_count_; }
  uint64_t retransmits() const { return retransmits_; }
  uint64_t acked() const { return acked_count_; }

 private:
  /// An unacked message with its individual retransmit clock. Per-message
  /// exponential backoff (doubling to 16x the base interval) keeps a
  /// congested egress queue from melting down: without it, any message
  /// whose delivery takes longer than the retry interval — routine for
  /// MB-sized epoch payloads behind a serializing NIC — would be
  /// re-enqueued every tick, and the duplicates themselves deepen the
  /// backlog they are reacting to.
  struct Pending {
    std::string payload;
    sim::Time next_due = 0;
    sim::Time interval = 0;
  };

  void Transmit(uint64_t seq, const std::string& payload);
  void ArmRetry();

  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  sim::NodeId from_;
  sim::NodeId to_;
  sim::Time retry_interval_;
  DeliverFn deliver_;
  uint64_t next_seq_ = 0;
  std::map<uint64_t, Pending> unacked_;
  std::set<uint64_t> received_;  // receiver-side dedup
  uint64_t delivered_count_ = 0;
  uint64_t retransmits_ = 0;
  uint64_t acked_count_ = 0;
  bool retry_armed_ = false;
};

/// The global sequencing layer: a Raft- or PBFT-replicated group that cuts
/// seed-deterministic epochs of whole-batch transactions on a fixed cadence
/// and surfaces each ordered batch exactly once (on the fixed distributor
/// replica, in commit order). It does not execute anything — execution is
/// the shards' job.
class EpochSequencer {
 public:
  struct Config {
    sim::NodeId base = 0;  // first node id of the sequencer span
    uint32_t num_nodes = 3;
    bool bft = false;
    sim::Time epoch_interval = 50 * sim::kMs;
    size_t max_epoch_txns = 500;
    uint64_t max_epoch_bytes = 1ull << 20;
    consensus::RaftConfig raft;
    consensus::BftConfig bft_config;
  };

  /// Fired on the distributor replica in commit order, once per epoch.
  using OrderedFn = std::function<void(EpochBatch batch)>;
  /// Fired as each transaction is pulled out of the mempool into an epoch
  /// (the kProposal -> kOrder boundary). May be null.
  using CutFn = std::function<void(const core::TxnRequest&)>;

  EpochSequencer(sim::Simulator* sim, sim::SimNetwork* net,
                 const sim::CostModel* costs, Config config,
                 core::StageGauges* gauges, CutFn on_cut, OrderedFn on_ordered);

  void Start();

  bool HasLeader() const { return transport_->HasLeader(); }
  /// Current leader/primary — where clients send transactions.
  sim::NodeId EntryId() const {
    return transport_->LeaderId(nodes_.id_of(0));
  }
  /// Fixed replica (index 0) that fans ordered epochs out to the shards.
  sim::NodeId DistributorId() const { return nodes_.id_of(0); }

  void Enqueue(core::TxnRequest request) { mempool_.Push(std::move(request)); }

  size_t mempool_depth() const { return mempool_.size(); }
  uint64_t epochs_cut() const { return epochs_cut_; }
  const std::vector<sim::NodeId>& node_ids() const { return nodes_.ids(); }

 private:
  void Tick();
  void CutAndOrder();
  void OnCommitted(size_t node_index, const std::string& payload);

  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  const sim::CostModel* costs_;
  Config config_;
  systems::runtime::NodeSet<systems::runtime::CpuSlot> nodes_;
  std::unique_ptr<systems::runtime::Transport> transport_;
  systems::runtime::Mempool<core::TxnRequest> mempool_;
  CutFn on_cut_;
  OrderedFn on_ordered_;
  uint64_t next_epoch_number_ = 0;
  uint64_t epochs_cut_ = 0;
};

/// One shard of the epoch runtime: its own replication group (Raft/PBFT)
/// orders incoming epochs, and the shard executes them strictly in epoch
/// order against its slice of the key space. Cross-shard reads resolve
/// through one-shot ReadForward messages: before executing epoch e, every
/// active shard sends the pre-epoch values of its owned keys in e's union
/// key set to every other active shard, exactly once, then waits for the
/// symmetric forwards. Execution of the full batch is bit-identical on all
/// active shards (same order, same base views), so a shard can acknowledge
/// its slice the moment it executes — no prepare/decide round exists.
class ShardExecutor {
 public:
  struct Config {
    uint32_t shard = 0;
    sim::NodeId base = 0;  // first node id of this shard's span
    uint32_t num_nodes = 3;
    bool bft = false;
    uint32_t exec_lanes = 4;
    consensus::RaftConfig raft;
    consensus::BftConfig bft_config;
    /// ReliableLink retransmit cadence for ReadForwards.
    sim::Time forward_retry_interval = 30 * sim::kMs;
    /// Entry-node re-propose cadence while an epoch is not yet ordered in
    /// the shard group (covers proposals lost to leadership churn).
    sim::Time propose_retry_interval = 200 * sim::kMs;
    /// Keep serialized batches of applied epochs (replay oracle; fuzz only).
    bool record_payloads = false;
    /// Replica-lifecycle support (default-off; enables AddReplica — Raft
    /// groups only).
    systems::runtime::ElasticityConfig elasticity;
  };

  /// Fired on the shard's entry replica after the epoch's writes are in the
  /// shard state and the modeled slice makespan has drained.
  using AppliedFn =
      std::function<void(uint32_t shard, const EpochBatch& batch,
                         const txn::EpochOutcome& outcome,
                         sim::Time ordered_time)>;

  ShardExecutor(sim::Simulator* sim, sim::SimNetwork* net,
                const sim::CostModel* costs, const ShardPlanner* planner,
                const contract::ContractRegistry* contracts, Config config,
                ShardingStats* stats, AppliedFn on_applied);

  void Start() { transport_->Start(); }

  /// Wires the one-shot ReadForward mesh. `peers` is indexed by shard id
  /// (this shard's own slot is ignored). Call once, after all executors
  /// exist, before Start().
  void ConnectPeers(const std::vector<ShardExecutor*>& peers);

  /// Epoch payload arriving from the sequencer's link (at the entry node):
  /// proposes it into the shard's own replication group, retrying until the
  /// group orders it.
  void DeliverEpoch(const std::string& serialized);

  void Load(const std::string& key, const std::string& value) {
    state_.Put(key, value);
    if (tracker_ != nullptr) tracker_->OnLoad(key, value);
  }

  uint32_t shard() const { return config_.shard; }
  sim::NodeId EntryId() const { return nodes_.id_of(0); }
  const std::vector<sim::NodeId>& node_ids() const { return nodes_.ids(); }
  const adt::MerklePatriciaTrie& state() const { return state_; }
  crypto::Digest StateDigest() const { return state_.RootDigest(); }
  /// Next epoch number this shard will apply == count applied so far.
  uint64_t applied_epochs() const { return next_epoch_; }
  /// Content digest per applied epoch, in epoch order — all shards must
  /// agree on the whole vector (order agreement + atomicity oracle).
  const std::vector<crypto::Digest>& epoch_digests() const {
    return epoch_digests_;
  }
  /// Serialized batches of applied epochs (config.record_payloads only).
  const std::vector<std::string>& applied_payloads() const {
    return applied_payloads_;
  }
  /// ReadForward retransmits across this shard's outbound links.
  uint64_t ForwardRetransmits() const {
    uint64_t total = 0;
    for (const auto& [shard, link] : forward_links_) {
      total += link->retransmits();
    }
    return total;
  }

  /// Lifecycle (requires config.elasticity.enabled and a Raft group):
  /// scales this shard's replication group out by one. Shard state is
  /// materialized once per group, so the joiner's data plane is just the
  /// group tracker's snapshot + log-tail transfer (install is a no-op);
  /// what the joiner really gains is a consensus vote — Raft §6
  /// single-server admission with a snapshot anchored at the group's last
  /// fold.
  sim::NodeId AddReplica(
      std::function<void(const systems::runtime::JoinReport&)> done);
  /// The shard group's lifecycle tracker (null when elasticity is off).
  systems::runtime::ReplicaTracker* tracker() { return tracker_.get(); }

 private:
  /// Buffered, not-yet-executed epoch.
  struct PendingEpoch {
    EpochBatch batch;
    std::string serialized;
    sim::Time ordered_time = 0;
    bool forwards_sent = false;
    /// Consensus slot (raft log index / BFT sequence) and term the group
    /// committed this epoch at — the tracker's snapshot anchor currency.
    uint64_t seq = 0;
    uint64_t term = 0;
  };

  void OnOrdered(uint64_t seq, uint64_t term, const std::string& payload);
  /// Feeds one applied epoch's own-slice writes into the group tracker.
  void TrackEpoch(const PendingEpoch& pending,
                  std::vector<std::pair<std::string, std::string>> writes);
  void OnForward(uint32_t from_shard, const std::string& payload);
  void ProposeRetry(uint64_t number);
  /// Executes every ready epoch in order; returns when the next epoch is
  /// missing or still waiting for forwards.
  void TryAdvance();
  std::vector<uint32_t> ActiveShards(const EpochBatch& batch) const;

  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  const sim::CostModel* costs_;
  const ShardPlanner* planner_;
  Config config_;
  systems::runtime::NodeSet<systems::runtime::CpuSlot> nodes_;
  std::unique_ptr<systems::runtime::Transport> transport_;
  txn::DeterministicExecutor executor_;
  ShardingStats* stats_;
  AppliedFn on_applied_;

  /// Shard state, materialized once per shard (replicas agree bit-for-bit
  /// by the deterministic-execution contract; the group replicates order).
  adt::MerklePatriciaTrie state_;
  /// One lifecycle tracker per shard *group* (state is materialized once);
  /// null when elasticity is disabled. Joiner-side sinks live in
  /// joiner_trackers_ for the duration of their transfers.
  std::unique_ptr<systems::runtime::ReplicaTracker> tracker_;
  std::vector<std::unique_ptr<systems::runtime::ReplicaTracker>>
      joiner_trackers_;

  uint64_t next_epoch_ = 0;                    // next epoch number to apply
  std::map<uint64_t, PendingEpoch> ordered_;   // ordered, not yet applied
  std::map<uint64_t, std::string> unordered_;  // delivered, awaiting order
  /// forwards_[epoch][from_shard] -> forwarded pre-epoch values.
  std::map<uint64_t, std::map<uint32_t, std::map<std::string, std::string>>>
      forwards_;
  /// Outbound ReadForward links, keyed by destination shard.
  std::map<uint32_t, std::unique_ptr<ReliableLink>> forward_links_;
  std::vector<crypto::Digest> epoch_digests_;
  std::vector<std::string> applied_payloads_;
};

}  // namespace dicho::sharding

#endif  // DICHO_SHARDING_RUNTIME_H_
