#include "systems/quorum.h"

#include "obs/trace.h"

namespace dicho::systems {

namespace {

runtime::BlockPipelineConfig PipelineConfig(const sim::CostModel* costs,
                                            const QuorumConfig& config) {
  runtime::BlockPipelineConfig pipeline;
  pipeline.name = "quorum";
  pipeline.base = runtime::kReplicaBase;
  pipeline.num_nodes = config.num_nodes;
  pipeline.transport.kind = config.consensus == QuorumConsensus::kRaft
                                ? runtime::TransportKind::kRaft
                                : runtime::TransportKind::kBft;
  pipeline.transport.raft = config.raft;
  pipeline.transport.bft = config.ibft;
  pipeline.interval = config.block_interval;
  pipeline.policy.max_txns = config.max_block_txns;
  pipeline.policy.max_bytes = config.max_block_bytes;
  pipeline.client_node = config.client_node;
  pipeline.read_cost = costs->quorum_query_us;
  pipeline.read_phase = core::Phase::kEvmRead;
  return pipeline;
}

}  // namespace

QuorumSystem::QuorumSystem(sim::Simulator* sim, sim::SimNetwork* net,
                           const sim::CostModel* costs, QuorumConfig config)
    : costs_(costs),
      config_(config),
      contracts_(contract::ContractRegistry::CreateDefault()),
      pipeline_(sim, net, costs, PipelineConfig(costs, config_),
                MakeHooks(sim)) {}

runtime::BlockPipeline::Hooks QuorumSystem::MakeHooks(sim::Simulator* sim) {
  runtime::BlockPipeline::Hooks hooks;
  hooks.cut_cost = [this](NodeId proposer_id,
                          const core::TxnRequest& request,
                          ledger::LedgerTxn* txn) {
    auto& pre_executed = pre_executed_[proposer_id];
    auto it = pre_executed.find(request.txn_id);
    if (it != pre_executed.end()) {
      txn->valid = it->second.valid;
      txn->write_set = it->second.write_set;
      return Time{0};
    }
    // Serial pre-execution against the proposer's state, applied now: the
    // proposer's head advances as it builds.
    Time cost = ExecuteTxn(&pipeline_.node(proposer_id), request, txn,
                           /*apply_writes=*/true);
    pre_executed.emplace(request.txn_id,
                         PreExecuted{txn->valid, txn->write_set});
    return cost;
  };
  hooks.seal = [this](NodeId proposer_id, ledger::Block* block) {
    const runtime::BlockNode& proposer = pipeline_.node(proposer_id);
    block->header.parent = proposer.chain.TipDigest();
    block->header.state_digest = proposer.state.RootDigest();
  };
  hooks.apply = [this](NodeId node, uint64_t, ledger::Block* block) {
    return ApplyBlock(node, block);
  };
  hooks.stamp = [sim](const runtime::PendingTxn& pending, NodeId node, Time,
                      core::TxnResult* result) {
    result->phases.Set(core::Phase::kProposal,
                       pending.proposed_time - pending.submit_time);
    result->phases.Set(core::Phase::kConsensusCommit,
                       result->finish_time - pending.proposed_time);
    obs::EmitPhaseSpan(sim, core::Phase::kProposal, node,
                       pending.request.txn_id, pending.submit_time,
                       pending.proposed_time);
    obs::EmitPhaseSpan(sim, core::Phase::kConsensusCommit, node,
                       pending.request.txn_id, pending.proposed_time,
                       result->finish_time);
  };
  return hooks;
}

Time QuorumSystem::ExecuteTxn(runtime::BlockNode* node,
                              const core::TxnRequest& request,
                              ledger::LedgerTxn* out, bool apply_writes) {
  contract::Contract* contract = contracts_->Lookup(
      request.contract.empty() ? "ycsb" : request.contract);
  Time cost = costs_->sig_verify_us;  // transaction signature check
  if (contract == nullptr) {
    out->valid = false;
    return cost;
  }
  runtime::MptView view(&node->state);
  contract::WriteSet writes;
  Status s = contract->Execute(request, &view, &writes, nullptr);

  // Read ops: state-trie lookups.
  for (const auto& op : request.ops) {
    if (op.type == core::OpType::kRead) {
      cost += costs_->lsm_read_us;
    }
  }
  // Write ops: EVM interpretation + MPT path rebuild per record.
  for (const auto& [key, value] : writes) {
    cost += costs_->QuorumOpCost(key.size() + value.size());
  }
  if (request.ops.empty()) {
    // Contract-method transactions (Smallbank): charge the VM base per
    // state access via the contract's own estimate.
    cost += contract->ExecCost(request, *costs_);
  }

  out->valid = s.ok();
  out->write_set.assign(writes.begin(), writes.end());
  if (s.ok() && apply_writes) {
    for (const auto& [key, value] : writes) {
      node->state.Put(key, value);  // real MPT hashing work
    }
  }
  return cost;
}

Time QuorumSystem::ApplyBlock(NodeId node_id, ledger::Block* block) {
  // A txn this node pre-executed at its own cut is already in its state,
  // so it is neither executed nor replayed again (geth's miner does not
  // re-process its own blocks).
  auto& pre_executed = pre_executed_[node_id];
  std::vector<const ledger::LedgerTxn*> others;
  for (const auto& txn : block->txns) {
    if (pre_executed.erase(txn.txn_id) == 0) others.push_back(&txn);
  }

  runtime::BlockNode* node = &pipeline_.node(node_id);
  Time cost = 0;
  for (const ledger::LedgerTxn* txn : others) {
    core::TxnRequest request;
    if (!core::TxnRequest::Deserialize(txn->payload, &request)) continue;
    ledger::LedgerTxn scratch;
    cost += ExecuteTxn(node, request, &scratch, /*apply_writes=*/false);
  }
  // Apply the block's write sets (deterministic replay).
  for (const ledger::LedgerTxn* txn : others) {
    if (!txn->valid) continue;
    for (const auto& [key, value] : txn->write_set) {
      node->state.Put(key, value);
    }
  }
  return cost;
}

}  // namespace dicho::systems
