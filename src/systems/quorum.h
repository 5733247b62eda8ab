#ifndef DICHO_SYSTEMS_QUORUM_H_
#define DICHO_SYSTEMS_QUORUM_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "adt/mpt.h"
#include "contract/contract.h"
#include "core/types.h"
#include "ledger/ledger.h"
#include "sim/cost_model.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "systems/runtime/block_pipeline.h"
#include "systems/runtime/runtime.h"

namespace dicho::systems {

using sim::NodeId;
using sim::Time;

enum class QuorumConsensus { kRaft, kIbft };

struct QuorumConfig {
  uint32_t num_nodes = 5;
  QuorumConsensus consensus = QuorumConsensus::kRaft;
  /// Proposer cuts a block on this cadence (geth-raft mints continuously; the
  /// effective cadence bounds latency).
  Time block_interval = 250 * sim::kMs;
  size_t max_block_txns = 500;
  uint64_t max_block_bytes = 1ull << 20;  // the gas-limit analog
  /// Re-mint timeout (geth-raft minter idiom): a txn whose block has not
  /// committed after this long returns to the mempool for the next cut —
  /// proposals lost to leadership churn would otherwise strand their txns
  /// in the inflight table forever. A late commit of the original block is
  /// harmless: the first commit resolves the client, replays are skipped.
  /// 0 (default) disables re-proposal.
  Time reproposal_timeout = 0;
  NodeId client_node = runtime::kClientNode;
  consensus::RaftConfig raft;
  consensus::BftConfig ibft;
};

/// Quorum: an order-execute permissioned blockchain (geth fork). The
/// proposer pre-executes transactions serially through the contract VM
/// against its MPT-authenticated state, batches them into a hash-linked
/// block, runs Raft or IBFT on the block, and every other node re-executes
/// serially on commit — the "double execution" the paper blames for
/// Quorum's record-size sensitivity (Section 5.3.3, Fig. 11).
///
/// Design-dimension choices: transaction-based replication / consensus
/// (CFT Raft or BFT IBFT) / serial execution / ledger / MPT-authenticated
/// state / no sharding.
class QuorumSystem : public core::TransactionalSystem {
 public:
  QuorumSystem(sim::Simulator* sim, sim::SimNetwork* net,
               const sim::CostModel* costs, QuorumConfig config);

  void Start() override { pipeline_.Start(); }
  bool HasProposer() const { return pipeline_.transport().HasLeader(); }

  void Submit(const core::TxnRequest& request, core::TxnCallback cb) override {
    pipeline_.Submit(request, std::move(cb));
  }
  void Query(const core::ReadRequest& request, core::ReadCallback cb) override {
    pipeline_.Query(request, std::move(cb));
  }
  const core::SystemStats& stats() const override { return pipeline_.stats(); }
  std::string name() const override {
    return config_.consensus == QuorumConsensus::kRaft ? "quorum-raft"
                                                       : "quorum-ibft";
  }

  /// Pre-populates every node's state trie directly (benchmark setup).
  void Load(const std::string& key, const std::string& value) override {
    pipeline_.Load(key, value);
  }

  /// Per-node authenticated state and ledger (full replication).
  const adt::MerklePatriciaTrie& state_of(NodeId node) const {
    return pipeline_.node(node).state;
  }
  const ledger::Chain& chain_of(NodeId node) const {
    return pipeline_.node(node).chain;
  }
  const std::vector<NodeId>& node_ids() const {
    return pipeline_.nodes().ids();
  }

 private:
  runtime::BlockPipeline::Hooks MakeHooks(sim::Simulator* sim);
  /// Executes `request` against node's MPT for real; returns modeled cost
  /// and fills the ledger transaction's write set / status.
  Time ExecuteTxn(runtime::BlockNode* node, const core::TxnRequest& request,
                  ledger::LedgerTxn* out, bool apply_writes);
  Time ApplyBlock(NodeId node, ledger::Block* block);

  const sim::CostModel* costs_;
  QuorumConfig config_;
  std::unique_ptr<contract::ContractRegistry> contracts_;
  // node -> txn roots of blocks that node built (skip re-execution).
  std::map<NodeId, std::set<std::string>> locally_built_;
  runtime::BlockPipeline pipeline_;
};

}  // namespace dicho::systems

#endif  // DICHO_SYSTEMS_QUORUM_H_
