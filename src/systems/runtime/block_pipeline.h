#ifndef DICHO_SYSTEMS_RUNTIME_BLOCK_PIPELINE_H_
#define DICHO_SYSTEMS_RUNTIME_BLOCK_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "adt/mpt.h"
#include "contract/contract.h"
#include "core/types.h"
#include "ledger/ledger.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "systems/runtime/mempool.h"
#include "systems/runtime/runtime.h"
#include "systems/runtime/transport.h"

namespace dicho::systems::runtime {

/// One replica of a block pipeline: MPT-authenticated state, the replica's
/// hash chain, and the serial CPU thread that cuts and applies blocks.
struct BlockNode {
  explicit BlockNode(sim::Simulator* sim) : cpu(sim) {}
  adt::MerklePatriciaTrie state;
  ledger::Chain chain;
  sim::CpuResource cpu;
};

/// Read view over a replica's MPT state.
class MptView : public contract::StateView {
 public:
  explicit MptView(const adt::MerklePatriciaTrie* state) : state_(state) {}
  Status Get(const Slice& key, std::string* value) override {
    return state_->Get(key, value);
  }

 private:
  const adt::MerklePatriciaTrie* state_;
};

/// A submitted transaction: in the proposer's mempool until a cut, then in
/// the inflight table until its block completes.
struct PendingTxn {
  core::TxnRequest request;
  core::TxnCallback cb;
  sim::Time submit_time = 0;
  sim::Time proposed_time = 0;  // when a cut pulled it into a block
};

struct BlockPipelineConfig {
  /// Metric-name prefix ("quorum", "harmony").
  std::string name;
  sim::NodeId base = kReplicaBase;
  uint32_t num_nodes = 5;
  TransportConfig transport;
  /// The proposer cuts a block on this cadence.
  sim::Time interval = 0;
  BatchPolicy policy;
  sim::NodeId client_node = kClientNode;
  /// Read path: service time at the replica and the phase it is stamped as.
  sim::Time read_cost = 0;
  core::Phase read_phase = core::Phase::kRead;
};

/// The order-then-apply pipeline of the paper's private blockchains (§3,
/// Table 2): clients submit to the current Raft leader or PBFT primary,
/// which cuts its mempool into a block of signed transactions on a fixed
/// cadence and proposes it; every replica applies each committed block on
/// its CPU and appends it to its own chain. A pinned non-proposer replica
/// acts as the client's local peer, so observed latency includes the apply.
///
/// The systems differ only in how a replica executes an ordered block
/// (Quorum pre-executes on the proposer and re-executes elsewhere;
/// harmonylike runs a deterministic epoch), so that is what the hooks
/// carry. Read-only queries go to one replica's state without consensus.
class BlockPipeline {
 public:
  struct Hooks {
    /// Cost of pulling one transaction into a block, charged to the
    /// proposer's CPU before the block is proposed. May record an outcome
    /// (valid, write set) on the ledger txn.
    std::function<sim::Time(BlockNode& proposer, const core::TxnRequest&,
                            ledger::LedgerTxn*)>
        cut_cost;
    /// Optional: finishes a cut block after its txn root is sealed.
    std::function<void(sim::NodeId proposer, ledger::Block*)> seal;
    /// Executes a committed block on one replica and returns the time it
    /// occupies that replica's CPU; sets each txn's `valid`.
    std::function<sim::Time(sim::NodeId node, uint64_t seq, ledger::Block*)>
        apply;
    /// Stamps the phase breakdown of a completed transaction. ordered_time
    /// is when its block reached the completion replica.
    std::function<void(const PendingTxn&, sim::NodeId completion,
                       sim::Time ordered_time, core::TxnResult*)>
        stamp;
    /// Optional: runs on every cadence tick, before the cut.
    std::function<void()> on_tick;
  };

  BlockPipeline(sim::Simulator* sim, sim::SimNetwork* net,
                const sim::CostModel* costs, BlockPipelineConfig config,
                Hooks hooks);

  // Transport and simulator callbacks hold `this`.
  BlockPipeline(const BlockPipeline&) = delete;
  BlockPipeline& operator=(const BlockPipeline&) = delete;

  void Start();
  void Submit(const core::TxnRequest& request, core::TxnCallback cb);
  void Query(const core::ReadRequest& request, core::ReadCallback cb);
  /// Seeds one record into every replica's state (benchmark setup).
  void Load(const std::string& key, const std::string& value);

  /// Returns every inflight txn proposed at or before `cutoff` to the
  /// mempool for the next cut (geth-raft's minter re-mint).
  void RequeueProposedBefore(sim::Time cutoff);

  const core::SystemStats& stats() const { return stats_; }
  Transport& transport() { return *transport_; }
  const Transport& transport() const { return *transport_; }
  NodeSet<BlockNode>& nodes() { return nodes_; }
  const NodeSet<BlockNode>& nodes() const { return nodes_; }
  BlockNode& node(sim::NodeId id) { return nodes_.at(id); }
  const BlockNode& node(sim::NodeId id) const { return nodes_.at(id); }

 private:
  sim::NodeId ProposerId() const;
  /// The replica whose commit completes client requests: the last replica
  /// of the construction-time span, or the one before it while the last
  /// is the proposer. A replica joining later never takes the duty.
  sim::NodeId CompletionId() const;
  void Tick();
  void CutAndPropose();
  void OnCommitted(sim::NodeId node_id, uint64_t seq, const std::string& cmd);
  void Reply(sim::NodeId node_id, PendingTxn pending, bool valid,
             sim::Time ordered_time);

  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  BlockPipelineConfig config_;
  Hooks hooks_;
  core::SystemStats stats_;
  NodeSet<BlockNode> nodes_;
  std::unique_ptr<Transport> transport_;
  Mempool<PendingTxn> mempool_;
  InflightTable<PendingTxn> inflight_;  // txn_id -> waiting client
  uint64_t next_block_number_ = 0;
};

}  // namespace dicho::systems::runtime

#endif  // DICHO_SYSTEMS_RUNTIME_BLOCK_PIPELINE_H_
