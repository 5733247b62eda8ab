#include "systems/runtime/block_pipeline.h"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "crypto/signature.h"
#include "obs/trace.h"

namespace dicho::systems::runtime {

void RequireSerialReplica(const sim::Simulator* sim, sim::NodeId node) {
  if (sim->PartitionOfNode(node) == 0) return;
  std::fprintf(stderr,
               "block pipeline: replica %u runs on simulator partition %u; "
               "state shared across replicas needs every one on partition 0\n",
               static_cast<unsigned>(node),
               static_cast<unsigned>(sim->PartitionOfNode(node)));
  std::abort();
}

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

sim::NodeId BlockPipeline::CompletionId(sim::NodeId proposer) const {
  sim::NodeId completion = nodes_.id_of(config_.num_nodes - 1);
  if (completion == proposer && config_.num_nodes > 1) {
    completion = nodes_.id_of(config_.num_nodes - 2);
  }
  return completion;
}

void BlockPipeline::Load(const std::string& key, const std::string& value) {
  // Every replica is seeded (queries read any replica). The first hashes
  // the path; a replica filing into its node stores adopts the result
  // instead of hashing it again, and any other replica puts on its own.
  adt::MerklePatriciaTrie& first = nodes_.at_index(0).state;
  const adt::MerklePatriciaTrie::Checkpoint before = first.checkpoint();
  first.Put(key, value);
  const adt::MerklePatriciaTrie::Checkpoint after = first.checkpoint();
  for (size_t i = 1; i < nodes_.size(); i++) {
    adt::MerklePatriciaTrie& state = nodes_.at_index(i).state;
    if (!state.Adopt(before, after)) state.Put(key, value);
  }
}

void BlockPipeline::Tick() {
  if (!mempool_.empty() && transport_->HasLeader()) CutAndPropose();
  sim_->Schedule(config_.interval, [this] { Tick(); });
}

void BlockPipeline::Requeue(uint64_t block,
                            const std::vector<uint64_t>& txn_ids) {
  for (uint64_t txn_id : txn_ids) {
    PendingTxn* pending = inflight_.Find(txn_id);
    if (pending == nullptr || pending->block != block) continue;
    PendingTxn lost;
    inflight_.Take(txn_id, &lost);
    mempool_.Push(std::move(lost));
  }
}

void BlockPipeline::CutAndPropose() {
  sim::NodeId proposer_id = ProposerId();
  BlockNode& proposer = nodes_.at(proposer_id);
  const sim::NodeId completion = CompletionId(proposer_id);

  ledger::Block block;
  block.header.number = next_block_number_;
  block.header.timestamp_us = static_cast<uint64_t>(sim_->Now());

  sim::Time cut_cost = 0;
  std::vector<uint64_t> txn_ids;
  mempool_.Cut(config_.policy, [&](PendingTxn pending) -> uint64_t {
    pending.proposed_time = sim_->Now();
    // Requeued from a block reported lost that committed after all: answer
    // with that commit's outcome instead of running it again.
    auto first = committed_.find(pending.request.txn_id);
    if (first != committed_.end()) {
      Reply(proposer_id, std::move(pending), first->second.valid,
            sim_->Now());
      return 0;
    }
    pending.block = block.header.number;
    pending.completion = completion;

    ledger::LedgerTxn txn;
    txn.txn_id = pending.request.txn_id;
    txn.client_id = pending.request.client_id;
    txn.payload = pending.request.Serialize();
    txn.client_signature =
        crypto::Signer(pending.request.client_id).Sign(txn.payload);
    cut_cost += hooks_.cut_cost(proposer_id, pending.request, &txn);
    uint64_t bytes = txn.ByteSize();
    block.txns.push_back(std::move(txn));
    uint64_t txn_id = pending.request.txn_id;
    txn_ids.push_back(txn_id);
    inflight_.Insert(txn_id, std::move(pending));
    return bytes;
  });
  if (block.txns.empty()) return;
  next_block_number_++;
  block.SealTxnRoot();
  if (hooks_.seal) hooks_.seal(proposer_id, &block);

  // The cut occupies the proposer's CPU; the block goes to consensus when
  // it finishes, provided the proposer still leads. A block lost on the way
  // (the proposer no longer leads, Raft reports leadership lost, or the
  // PBFT submit fails) hands its txns back to the mempool.
  proposer.cpu.Submit(cut_cost, [this, proposer_id, cut = block.header.number,
                                 txn_ids = std::move(txn_ids),
                                 serialized = block.Serialize()]() mutable {
    auto on_result = [this, cut, txn_ids = std::move(txn_ids)](Status s,
                                                                uint64_t) {
      if (!s.ok()) Requeue(cut, txn_ids);
    };
    if (transport_->raft() != nullptr) {
      consensus::RaftNode* leader = transport_->raft()->leader();
      if (leader != nullptr && leader->id() == proposer_id) {
        leader->Propose(std::move(serialized), std::move(on_result));
        return;
      }
    } else if (consensus::BftNode* primary = transport_->bft()->primary()) {
      primary->Submit(std::move(serialized), std::move(on_result));
      return;
    }
    on_result(Status::Unavailable("proposer no longer leads"), 0);
  });
}

void BlockPipeline::OnCommitted(sim::NodeId node_id, uint64_t seq,
                                const std::string& cmd) {
  ledger::Block block;
  if (!ledger::Block::Deserialize(cmd, &block)) return;
  const uint64_t cut = block.header.number;
  std::vector<uint64_t> txn_ids;
  txn_ids.reserve(block.txns.size());
  for (const auto& txn : block.txns) txn_ids.push_back(txn.txn_id);
  // A txn whose earlier block committed first is not applied again.
  std::erase_if(block.txns, [&](const ledger::LedgerTxn& txn) {
    auto first = committed_.find(txn.txn_id);
    return first != committed_.end() && first->second.seq < seq;
  });
  sim::Time ordered_time = sim_->Now();
  sim::Time cost = hooks_.apply(node_id, seq, &block);
  for (const auto& txn : block.txns) {
    committed_.try_emplace(txn.txn_id, FirstCommit{seq, txn.valid});
  }
  RequireSerialReplica(sim_, node_id);
  ledger::SealedBodyPtr body = SealOnce(std::move(block.txns));

  BlockNode* node = &nodes_.at(node_id);
  node->cpu.Submit(cost, [this, node_id, node, header = block.header,
                          body = std::move(body), cut,
                          txn_ids = std::move(txn_ids),
                          ordered_time]() mutable {
    // Replies only enqueue sends, so answering before the append below
    // changes no event. A txn is answered by the replica its cut pinned,
    // and only for the block that last carried it: leadership may have
    // moved since the cut, and a block reported lost may still commit after
    // its txns were re-cut. The outcome is that of the txn's first commit.
    for (uint64_t txn_id : txn_ids) {
      const PendingTxn* pinned = inflight_.Find(txn_id);
      if (pinned == nullptr || pinned->block != cut ||
          pinned->completion != node_id) {
        continue;
      }
      PendingTxn pending;
      inflight_.Take(txn_id, &pending);
      Reply(node_id, std::move(pending), committed_.at(txn_id).valid,
            ordered_time);
    }
    // Re-link the block onto this replica's own chain (proposer chains can
    // briefly diverge across view changes; every chain stays linear).
    header.number = node->chain.height();
    header.parent = node->chain.TipDigest();
    node->chain.AppendSealed(header, std::move(body));
  });
}

ledger::SealedBodyPtr BlockPipeline::SealOnce(
    std::vector<ledger::LedgerTxn> txns) {
  // Replicas that applied the same txns to the same outcome append the same
  // body. Equality covers every field, so a replica that diverged, applied
  // a different block at this height or executed differently misses and
  // seals its own.
  for (auto held = bodies_.begin(); held != bodies_.end(); ++held) {
    if (held->body->txns() != txns) continue;
    ledger::SealedBodyPtr body = held->body;
    if (--held->adopters_left == 0) bodies_.erase(held);
    return body;
  }
  ledger::SealedBodyPtr body = ledger::SealedBody::Seal(std::move(txns));
  if (nodes_.size() > 1) {
    // Bounded so that a replica that stops applying cannot make it grow.
    if (bodies_.size() == kMaxBodies) bodies_.pop_front();
    bodies_.push_back({body, nodes_.size() - 1});
  }
  return body;
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
