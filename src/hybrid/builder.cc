#include "hybrid/builder.h"

#include "common/coding.h"
#include "crypto/signature.h"

namespace dicho::hybrid {

namespace {

class VersionedView : public contract::StateView {
 public:
  VersionedView(const txn::VersionedState* state,
                std::vector<std::pair<std::string, uint64_t>>* read_set)
      : state_(state), read_set_(read_set) {}
  Status Get(const Slice& key, std::string* value) override {
    uint64_t version;
    state_->Get(key, value, &version);
    if (read_set_ != nullptr) read_set_->emplace_back(key.ToString(), version);
    if (value->empty() && version == 0) return Status::NotFound();
    return Status::Ok();
  }

 private:
  const txn::VersionedState* state_;
  std::vector<std::pair<std::string, uint64_t>>* read_set_;
};

std::string SerializeBatch(const std::vector<ledger::LedgerTxn>& txns) {
  std::string out;
  PutVarint64(&out, txns.size());
  for (const auto& txn : txns) PutLengthPrefixed(&out, txn.Serialize());
  return out;
}

bool DeserializeBatch(const std::string& data,
                      std::vector<ledger::LedgerTxn>* txns) {
  Slice in(data);
  uint64_t count;
  if (!GetVarint64(&in, &count)) return false;
  txns->clear();
  for (uint64_t i = 0; i < count; i++) {
    Slice bytes;
    if (!GetLengthPrefixed(&in, &bytes)) return false;
    ledger::LedgerTxn txn;
    if (!ledger::LedgerTxn::Deserialize(bytes.ToString(), &txn)) return false;
    txns->push_back(std::move(txn));
  }
  return in.empty();
}

}  // namespace

namespace {

using systems::runtime::TransportKind;

/// The taxonomy point (approach x failure model) picks the transport.
TransportKind SelectTransport(ReplicationApproach approach,
                              FailureModel failure) {
  switch (approach) {
    case ReplicationApproach::kConsensus:
      if (failure == FailureModel::kCft) return TransportKind::kRaft;
      if (failure == FailureModel::kBft) return TransportKind::kBft;
      return TransportKind::kPow;
    case ReplicationApproach::kSharedLog:
      return TransportKind::kSharedLog;
    case ReplicationApproach::kPrimaryBackup:
      break;
  }
  return TransportKind::kPrimaryBackup;
}

}  // namespace

HybridSystem::HybridSystem(sim::Simulator* sim, sim::SimNetwork* net,
                           const sim::CostModel* costs, HybridConfig config)
    : sim_(sim),
      net_(net),
      costs_(costs),
      config_(std::move(config)),
      nodes_(sim, config_.base_node, config_.num_nodes),
      contracts_(contract::ContractRegistry::CreateDefault()),
      batch_queue_(&stats_.stages),
      inflight_(&stats_.stages),
      batch_timer_(sim, config_.batch_interval) {
  switch (config_.design.index) {
    case StateIndex::kMpt:
      mpt_ = std::make_unique<adt::MerklePatriciaTrie>();
      break;
    case StateIndex::kMbt:
      mbt_ = std::make_unique<adt::MerkleBucketTree>();
      break;
    case StateIndex::kPlain:
      break;
  }

  systems::runtime::TransportConfig transport;
  transport.kind =
      SelectTransport(config_.design.approach, config_.design.failure);
  transport.raft = config_.raft;
  transport.bft = config_.bft;
  transport.log = config_.log;
  transport.pow = config_.pow;
  transport_ = std::make_unique<systems::runtime::Transport>(
      sim, net, costs, nodes_.ids(), transport,
      [this](size_t node_index, uint64_t, const std::string& batch) {
        ApplyBatch(node_index, batch);
      });
}

void HybridSystem::Start() { transport_->Start(); }

void HybridSystem::Load(const std::string& key, const std::string& value) {
  systems::runtime::SeedAllReplicas(
      &nodes_, [&](Node& node) { node.state.Apply({{key, value}}, 0); });
  if (mpt_ != nullptr) mpt_->Put(key, value);
  if (mbt_ != nullptr) mbt_->Put(key, value);
}

Time HybridSystem::IndexCost(uint64_t bytes) const {
  switch (config_.design.index) {
    case StateIndex::kMpt:
      return costs_->MptUpdateCost(bytes);
    case StateIndex::kMbt:
      return costs_->MbtUpdateCost(bytes);
    case StateIndex::kPlain:
      return 0;
  }
  return 0;
}

Time HybridSystem::ExecCost(const core::TxnRequest& request) const {
  contract::Contract* contract = contracts_->Lookup(
      request.contract.empty() ? "ycsb" : request.contract);
  return contract == nullptr ? 0 : contract->ExecCost(request, *costs_);
}

ledger::LedgerTxn HybridSystem::MakeEnvelope(const PendingTxn& pending) {
  ledger::LedgerTxn envelope;
  envelope.txn_id = pending.request.txn_id;
  envelope.client_id = pending.request.client_id;
  envelope.payload = pending.request.Serialize();
  envelope.client_signature =
      crypto::Signer(pending.request.client_id).Sign(envelope.payload);

  if (!IsTxnBased()) {
    // Storage-based: execute once at the coordinator (node 0), replicate
    // the effects.
    VersionedView view(&nodes_.at_index(0).state, &envelope.read_set);
    contract::Contract* contract = contracts_->Lookup(
        pending.request.contract.empty() ? "ycsb" : pending.request.contract);
    contract::WriteSet writes;
    Status s = contract == nullptr
                   ? Status::NotSupported("unknown contract")
                   : contract->Execute(pending.request, &view, &writes, nullptr);
    envelope.valid = s.ok();
    envelope.write_set.assign(writes.begin(), writes.end());
  }
  return envelope;
}

void HybridSystem::Submit(const core::TxnRequest& request,
                          core::TxnCallback cb) {
  auto pending = std::make_shared<PendingTxn>();
  pending->request = request;
  pending->cb = std::move(cb);
  pending->submit_time = sim_->Now();
  inflight_.Insert(request.txn_id, pending);

  // Client -> coordinator/entry node.
  net_->Send(config_.client_node, nodes_.id_of(0), request.PayloadBytes() + 96,
             [this, pending] {
               if (!IsTxnBased()) {
                 // Coordinator-side execution happens concurrently (the
                 // underlying database), modeled as a delay.
                 sim_->Schedule(ExecCost(pending->request),
                                [this, pending] { EnqueueForOrdering(pending); });
               } else {
                 EnqueueForOrdering(pending);
               }
             });
}

void HybridSystem::EnqueueForOrdering(std::shared_ptr<PendingTxn> pending) {
  ledger::LedgerTxn envelope = MakeEnvelope(*pending);
  if (!IsTxnBased() && !envelope.valid) {
    // Constraint failure discovered at the coordinator.
    inflight_.Erase(pending->request.txn_id);
    core::TxnResult result;
    result.status = Status::Aborted("constraint");
    result.reason = core::AbortReason::kConstraint;
    result.submit_time = pending->submit_time;
    result.finish_time = sim_->Now();
    stats_.aborted++;
    stats_.aborts_by_reason[result.reason]++;
    pending->cb(result);
    return;
  }

  if (transport_->kind() == TransportKind::kSharedLog ||
      transport_->kind() == TransportKind::kPrimaryBackup) {
    // Shared log: ordering is cheap and decoupled, no batch window.
    // Primary-backup: the primary applies immediately, no batch window.
    std::vector<ledger::LedgerTxn> single{std::move(envelope)};
    transport_->Disseminate(SerializeBatch(single));
    return;
  }
  batch_queue_.Push(std::move(envelope));
  if (batch_queue_.size() >= config_.max_batch) {
    FlushBatch();
  } else {
    batch_timer_.Arm([this] {
      if (!batch_queue_.empty()) FlushBatch();
    });
  }
}

void HybridSystem::FlushBatch() {
  transport_->Disseminate(SerializeBatch(batch_queue_.DrainAll()));
}

void HybridSystem::ApplyBatch(size_t node_index, const std::string& batch) {
  auto txns = std::make_shared<std::vector<ledger::LedgerTxn>>();
  if (!DeserializeBatch(batch, txns.get())) return;
  Node* node = &nodes_.at_index(node_index);

  // Cost: execution (txn-based serial designs re-run contracts on the
  // node's serial thread; concurrent designs overlap it with the local
  // database), plus storage + authenticated-index maintenance per write.
  Time cost = 0;
  for (auto& txn : *txns) {
    core::TxnRequest request;
    if (!core::TxnRequest::Deserialize(txn.payload, &request)) continue;
    if (IsTxnBased() &&
        config_.design.concurrency == ConcurrencyModel::kSerial) {
      cost += ExecCost(request) + costs_->sig_verify_us;
    }
    for (const auto& [key, value] : txn.write_set) {
      cost += costs_->LsmWriteCost(key.size() + value.size()) +
              IndexCost(key.size() + value.size());
    }
    if (IsTxnBased()) {
      // Write sets come from local execution below; charge a nominal
      // storage cost per op instead.
      cost += static_cast<Time>(request.ops.size() + request.args.size()) *
              costs_->lsm_write_base_us;
    }
  }
  if (config_.design.ledger == LedgerAbstraction::kChain) {
    cost += costs_->hash_base_us * static_cast<Time>(txns->size());
  }

  node->cpu.Submit(cost, [this, node_index, node, txns] {
    uint64_t version = node->chain.height() + 1;
    ledger::Block block;
    block.header.number = node->chain.height();
    block.header.parent = node->chain.TipDigest();

    for (auto& txn : *txns) {
      bool valid = txn.valid;
      if (IsTxnBased()) {
        // Every node executes the transaction against its own state; the
        // global order makes the outcome deterministic.
        core::TxnRequest request;
        if (core::TxnRequest::Deserialize(txn.payload, &request)) {
          VersionedView view(&node->state, nullptr);
          contract::Contract* contract = contracts_->Lookup(
              request.contract.empty() ? "ycsb" : request.contract);
          contract::WriteSet writes;
          Status s = contract == nullptr
                         ? Status::NotSupported("unknown")
                         : contract->Execute(request, &view, &writes, nullptr);
          valid = s.ok();
          txn.write_set.assign(writes.begin(), writes.end());
        } else {
          valid = false;
        }
      } else if (config_.design.concurrency == ConcurrencyModel::kOccCommit) {
        // Veritas/FalconDB-style optimistic validation at commit.
        std::string conflict;
        valid = valid && node->state.Validate(txn.read_set, &conflict);
      }
      txn.valid = valid;
      if (valid) {
        node->state.Apply(txn.write_set, version);
        if (node_index == 0) {
          for (const auto& [key, value] : txn.write_set) {
            if (mpt_ != nullptr) mpt_->Put(key, value);
            if (mbt_ != nullptr) mbt_->Put(key, value);
          }
        }
      }
      if (node_index == 0) {
        Finish(txn.txn_id, valid,
               valid ? core::AbortReason::kNone
                     : core::AbortReason::kReadConflict);
      }
      if (config_.design.ledger == LedgerAbstraction::kChain) {
        block.txns.push_back(txn);
      }
    }
    if (config_.design.ledger == LedgerAbstraction::kChain) {
      node->chain.AppendSealed(
          block.header, ledger::SealedBody::Seal(std::move(block.txns)));
    }
  });
}

void HybridSystem::Finish(uint64_t txn_id, bool valid,
                          core::AbortReason reason) {
  std::shared_ptr<PendingTxn> pending;
  if (!inflight_.Take(txn_id, &pending)) return;
  net_->Send(nodes_.id_of(0), config_.client_node, 64, [this, pending, valid,
                                                     reason] {
    core::TxnResult result;
    result.submit_time = pending->submit_time;
    result.finish_time = sim_->Now();
    if (valid) {
      result.status = Status::Ok();
      stats_.committed++;
    } else {
      result.status = Status::Aborted(core::AbortReasonName(reason));
      result.reason = reason;
      stats_.aborted++;
      stats_.aborts_by_reason[reason]++;
    }
    pending->cb(result);
  });
}

void HybridSystem::Query(const core::ReadRequest& request,
                         core::ReadCallback cb) {
  stats_.queries++;
  Time submit_time = sim_->Now();
  net_->Send(config_.client_node, nodes_.id_of(0), 64 + request.key.size(),
             [this, key = request.key, cb = std::move(cb),
              submit_time]() mutable {
               sim_->Schedule(costs_->lsm_read_us, [this, key,
                                                    cb = std::move(cb),
                                                    submit_time]() mutable {
                 std::string value;
                 uint64_t version;
                 nodes_.at_index(0).state.Get(key, &value, &version);
                 Status s = (value.empty() && version == 0)
                                ? Status::NotFound()
                                : Status::Ok();
                 net_->Send(nodes_.id_of(0), config_.client_node,
                            64 + value.size(),
                            [this, cb = std::move(cb), submit_time, s,
                             value = std::move(value)] {
                              core::ReadResult result;
                              result.status = s;
                              result.value = value;
                              result.submit_time = submit_time;
                              result.finish_time = sim_->Now();
                              cb(result);
                            });
               });
             });
}

uint64_t HybridSystem::LedgerBytes() const {
  return nodes_.at_index(0).chain.TotalBytes();
}

crypto::Digest HybridSystem::StateDigest() const {
  if (mpt_ != nullptr) return mpt_->RootDigest();
  if (mbt_ != nullptr) return mbt_->RootDigest();
  return crypto::ZeroDigest();
}

}  // namespace dicho::hybrid
