#include "systems/runtime/block_pipeline.h"

#include <utility>
#include <vector>

#include "crypto/signature.h"
#include "obs/trace.h"

namespace dicho::systems::runtime {

BlockPipeline::BlockPipeline(sim::Simulator* sim, sim::SimNetwork* net,
                             const sim::CostModel* costs,
                             BlockPipelineConfig config, Hooks hooks)
    : sim_(sim),
      net_(net),
      config_(std::move(config)),
      hooks_(std::move(hooks)),
      nodes_(sim, config_.base, config_.num_nodes),
      mempool_(&stats_.stages),
      inflight_(&stats_.stages) {
  transport_ = std::make_unique<Transport>(
      sim, net, costs, nodes_.ids(), config_.transport,
      [this](size_t node_index, uint64_t seq, const std::string& cmd) {
        OnCommitted(nodes_.id_of(node_index), seq, cmd);
      });
  if (obs::MetricsRegistry* registry = sim_->metrics()) {
    RegisterSystemStats(registry, config_.name, &stats_);
    mempool_.AttachMetrics(registry, config_.name + ".mempool");
    inflight_.AttachMetrics(registry, config_.name + ".inflight");
    RegisterNodeCpuGauges(registry, config_.name, &nodes_,
                          [](BlockNode& node) { return &node.cpu; });
  }
}

void BlockPipeline::Start() {
  transport_->Start();
  sim_->Schedule(config_.interval, [this] { Tick(); });
}

sim::NodeId BlockPipeline::ProposerId() const {
  return transport_->LeaderId(nodes_.id_of(0));
}

sim::NodeId BlockPipeline::CompletionId() const {
  sim::NodeId completion = nodes_.id_of(config_.num_nodes - 1);
  if (completion == ProposerId() && config_.num_nodes > 1) {
    completion = nodes_.id_of(config_.num_nodes - 2);
  }
  return completion;
}

void BlockPipeline::Load(const std::string& key, const std::string& value) {
  SeedAllReplicas(&nodes_,
                  [&](BlockNode& node) { node.state.Put(key, value); });
}

void BlockPipeline::Tick() {
  if (hooks_.on_tick) hooks_.on_tick();
  if (!mempool_.empty() && transport_->HasLeader()) CutAndPropose();
  sim_->Schedule(config_.interval, [this] { Tick(); });
}

void BlockPipeline::RequeueProposedBefore(sim::Time cutoff) {
  std::vector<PendingTxn> stale = inflight_.ExtractIf(
      [cutoff](uint64_t, const PendingTxn& pending) {
        return pending.proposed_time <= cutoff;
      });
  for (PendingTxn& pending : stale) mempool_.Push(std::move(pending));
}

void BlockPipeline::CutAndPropose() {
  sim::NodeId proposer_id = ProposerId();
  BlockNode& proposer = nodes_.at(proposer_id);

  ledger::Block block;
  block.header.number = next_block_number_;
  block.header.timestamp_us = static_cast<uint64_t>(sim_->Now());

  sim::Time cut_cost = 0;
  mempool_.Cut(config_.policy, [&](PendingTxn pending) {
    pending.proposed_time = sim_->Now();

    ledger::LedgerTxn txn;
    txn.txn_id = pending.request.txn_id;
    txn.client_id = pending.request.client_id;
    txn.payload = pending.request.Serialize();
    txn.client_signature =
        crypto::Signer(pending.request.client_id).Sign(txn.payload);
    cut_cost += hooks_.cut_cost(proposer, pending.request, &txn);
    uint64_t bytes = txn.ByteSize();
    block.txns.push_back(std::move(txn));
    uint64_t txn_id = pending.request.txn_id;
    inflight_.Insert(txn_id, std::move(pending));
    return bytes;
  });
  if (block.txns.empty()) return;
  next_block_number_++;
  block.SealTxnRoot();
  if (hooks_.seal) hooks_.seal(proposer_id, &block);

  // The cut occupies the proposer's CPU; the block goes to consensus when
  // it finishes, provided the proposer still leads.
  proposer.cpu.Submit(cut_cost, [this, proposer_id,
                                 serialized = block.Serialize()] {
    if (transport_->raft() != nullptr) {
      consensus::RaftNode* leader = transport_->raft()->leader();
      if (leader == nullptr || leader->id() != proposer_id) return;
      leader->Propose(serialized, [](Status, uint64_t) {});
    } else {
      consensus::BftNode* primary = transport_->bft()->primary();
      if (primary == nullptr) return;
      primary->Submit(serialized, [](Status, uint64_t) {});
    }
  });
}

void BlockPipeline::OnCommitted(sim::NodeId node_id, uint64_t seq,
                                const std::string& cmd) {
  ledger::Block block;
  if (!ledger::Block::Deserialize(cmd, &block)) return;
  sim::Time ordered_time = sim_->Now();
  sim::Time cost = hooks_.apply(node_id, seq, &block);

  BlockNode* node = &nodes_.at(node_id);
  auto shared = std::make_shared<ledger::Block>(std::move(block));
  node->cpu.Submit(cost, [this, node_id, node, shared, ordered_time] {
    // Re-link the block onto this replica's own chain (proposer chains can
    // briefly diverge across view changes; every chain stays linear).
    ledger::Block to_append = *shared;
    to_append.header.number = node->chain.height();
    to_append.header.parent = node->chain.TipDigest();
    to_append.SealTxnRoot();
    node->chain.Append(std::move(to_append));

    if (node_id != CompletionId()) return;
    for (const auto& txn : shared->txns) {
      PendingTxn pending;
      if (!inflight_.Take(txn.txn_id, &pending)) continue;
      Reply(node_id, std::move(pending), txn.valid, ordered_time);
    }
  });
}

void BlockPipeline::Reply(sim::NodeId node_id, PendingTxn pending, bool valid,
                          sim::Time ordered_time) {
  net_->Send(node_id, config_.client_node, 64,
             [this, node_id, pending = std::move(pending), valid,
              ordered_time]() mutable {
               core::TxnResult result;
               result.submit_time = pending.submit_time;
               result.finish_time = sim_->Now();
               hooks_.stamp(pending, node_id, ordered_time, &result);
               if (valid) {
                 result.status = Status::Ok();
                 stats_.committed++;
               } else {
                 // Replicas execute the same order, so the only abort is
                 // an application constraint, identical everywhere.
                 result.status = Status::Aborted("contract aborted");
                 result.reason = core::AbortReason::kConstraint;
                 stats_.aborted++;
                 stats_.aborts_by_reason[result.reason]++;
               }
               pending.cb(result);
             });
}

void BlockPipeline::Submit(const core::TxnRequest& request,
                           core::TxnCallback cb) {
  PendingTxn pending;
  pending.request = request;
  pending.cb = std::move(cb);
  pending.submit_time = sim_->Now();
  // The client sends the signed transaction to the proposer's mempool.
  net_->Send(config_.client_node, ProposerId(), request.PayloadBytes() + 96,
             [this, pending = std::move(pending)]() mutable {
               mempool_.Push(std::move(pending));
             });
}

void BlockPipeline::Query(const core::ReadRequest& request,
                          core::ReadCallback cb) {
  stats_.queries++;
  sim::Time submit_time = sim_->Now();
  // Reads route over the construction-time span only: a joiner still
  // catching up must not serve stale reads.
  sim::NodeId target = nodes_.id_of(request.client_id % config_.num_nodes);
  net_->Send(config_.client_node, target, 64 + request.key.size(),
             [this, target, key = request.key, cb = std::move(cb),
              submit_time]() mutable {
               // Served by the replica's RPC layer, without consensus.
               sim_->Schedule(config_.read_cost, [this, target, key,
                                                  cb = std::move(cb),
                                                  submit_time]() mutable {
                 std::string value;
                 Status s = nodes_.at(target).state.Get(key, &value);
                 net_->Send(target, config_.client_node, 64 + value.size(),
                            [this, target, cb = std::move(cb), submit_time, s,
                             value = std::move(value)] {
                              core::ReadResult result;
                              result.status = s;
                              result.value = value;
                              result.submit_time = submit_time;
                              result.finish_time = sim_->Now();
                              result.phases.Set(config_.read_phase,
                                                result.finish_time -
                                                    submit_time);
                              obs::EmitPhaseSpan(sim_, config_.read_phase,
                                                 target, 0, submit_time,
                                                 result.finish_time);
                              cb(result);
                            });
               });
             });
}

}  // namespace dicho::systems::runtime
