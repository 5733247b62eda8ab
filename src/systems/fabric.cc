#include "systems/fabric.h"

#include <algorithm>

#include "crypto/batch_verify.h"
#include "crypto/signature.h"
#include "obs/trace.h"

namespace dicho::systems {

namespace {

/// Read view over a peer's committed versioned state; records the MVCC
/// read set as a side effect (Fabric's simulation phase).
class EndorseView : public contract::StateView {
 public:
  EndorseView(const txn::VersionedState* state,
              std::vector<std::pair<std::string, uint64_t>>* read_set)
      : state_(state), read_set_(read_set) {}

  Status Get(const Slice& key, std::string* value) override {
    uint64_t version;
    state_->Get(key, value, &version);
    read_set_->emplace_back(key.ToString(), version);
    if (value->empty() && version == 0) return Status::NotFound();
    return Status::Ok();
  }

 private:
  const txn::VersionedState* state_;
  std::vector<std::pair<std::string, uint64_t>>* read_set_;
};

}  // namespace

FabricSystem::FabricSystem(sim::Simulator* sim, sim::SimNetwork* net,
                           const sim::CostModel* costs, FabricConfig config)
    : sim_(sim),
      net_(net),
      costs_(costs),
      config_(config),
      peers_(sim, runtime::kReplicaBase, config_.num_peers),
      contracts_(contract::ContractRegistry::CreateDefault()),
      inflight_(&stats_.stages) {
  // The paper fixes three orderers regardless of peer count.
  std::vector<NodeId> orderers{runtime::kOrdererBase,
                               runtime::kOrdererBase + 1,
                               runtime::kOrdererBase + 2};
  ordering_ = std::make_unique<sharedlog::OrderingService>(
      sim, net, costs, orderers, config_.ordering);
  for (NodeId peer : peers_.ids()) {
    ordering_->Subscribe(peer, [this, peer](const sharedlog::OrderedBlock& b) {
      OnBlockDelivered(peer, b);
    });
  }
  if (config_.fast_storage) {
    peers_.ForEach([](NodeId, Peer& peer) { peer.state.EnableDeltaBacking(); });
  }
  if (config_.elasticity.enabled) {
    for (NodeId peer : peers_.ids()) MakeTracker(peer);
  }
  if (obs::MetricsRegistry* registry = sim_->metrics()) {
    runtime::RegisterSystemStats(registry, "fabric", &stats_);
    inflight_.AttachMetrics(registry, "fabric.inflight");
    runtime::RegisterNodeCpuGauges(
        registry, "fabric", &peers_,
        [](Peer& peer) { return &peer.validate_cpu; });
  }
}

void FabricSystem::Start() { ordering_->Start(); }

runtime::ReplicaTracker* FabricSystem::MakeTracker(NodeId peer) {
  // No fold hook: peers have no consensus log to compact — the ordering
  // service keeps the block log, folds just roll the snapshot anchor.
  trackers_.push_back(std::make_unique<runtime::ReplicaTracker>(
      &config_.elasticity,
      lifecycle::LifecycleMetrics::For(sim_->metrics(), "lifecycle.fabric")));
  (void)peer;
  return trackers_.back().get();
}

NodeId FabricSystem::AddPeer(
    std::function<void(const runtime::JoinReport&)> done) {
  NodeId joiner = peers_.Grow(sim_);
  peers_.at(joiner).catching_up = true;
  runtime::ReplicaTracker* sink = MakeTracker(joiner);
  // Subscribe before the transfer starts: blocks ordered during catch-up
  // land in the backlog, so nothing is lost between the snapshot anchor
  // and live delivery.
  ordering_->Subscribe(joiner,
                       [this, joiner](const sharedlog::OrderedBlock& b) {
                         OnBlockDelivered(joiner, b);
                       });
  NodeId source = peers_.id_of(0);
  runtime::StartReplicaJoin(
      sim_, net_, source, joiner, tracker(source), sink, config_.elasticity,
      nullptr,
      [this, joiner, done = std::move(done)](
          const runtime::JoinReport& report,
          const std::map<std::string, std::string>& state) {
        if (!report.ok) {
          done(report);
          return;
        }
        Peer* peer = &peers_.at(joiner);
        for (const auto& [key, encoded] : state) {
          // Decode "value@version": MVCC versions are block heights and
          // all peers apply all blocks, so the source's versions are
          // exactly what this peer's own validation would have written.
          size_t at = encoded.rfind('@');
          uint64_t version = 0;
          std::string value = encoded;
          if (at != std::string::npos) {
            version = std::stoull(encoded.substr(at + 1));
            value = encoded.substr(0, at);
          }
          peer->state.Apply({{key, value}}, version);
        }
        peer->catching_up = false;
        std::vector<sharedlog::OrderedBlock> backlog;
        backlog.swap(peer->backlog);
        for (const auto& block : backlog) {
          // Tracker seqs are 1-based block numbers; anything at or below
          // the transferred anchor is already in the restored state.
          if (block.number + 1 > report.anchor) OnBlockDelivered(joiner, block);
        }
        done(report);
      });
  return joiner;
}

void FabricSystem::Submit(const core::TxnRequest& request,
                          core::TxnCallback cb) {
  auto pending = std::make_shared<PendingTxn>();
  pending->request = request;
  pending->cb = std::move(cb);
  pending->submit_time = sim_->Now();
  pending->envelope.txn_id = request.txn_id;
  pending->envelope.client_id = request.client_id;
  pending->envelope.payload = request.Serialize();
  pending->envelope.client_signature =
      crypto::Signer(request.client_id).Sign(pending->envelope.payload);
  inflight_.Insert(request.txn_id, pending);

  // Execute phase: proposal broadcast to every endorsing peer; peers
  // simulate concurrently against their committed state.
  uint32_t required = EndorsersRequired();
  uint64_t proposal_bytes = request.PayloadBytes() + 96;
  for (uint32_t i = 0; i < required; i++) {
    NodeId peer_id = peers_.id_of(i);
    net_->Send(config_.client_node, peer_id, proposal_bytes,
               [this, peer_id, pending] {
                 Peer* peer = &peers_.at(peer_id);
                 // Chaincode simulation is concurrent on the peer (its
                 // endorsement executors), so it is a latency, not a queue.
                 Time delay = costs_->sig_verify_us + costs_->fabric_endorse_us +
                              costs_->sig_sign_us;
                 sim_->Schedule(delay, [this, peer_id, peer, pending] {
                   std::vector<std::pair<std::string, uint64_t>> read_set;
                   EndorseView view(&peer->state, &read_set);
                   contract::Contract* contract = contracts_->Lookup(
                       pending->request.contract.empty()
                           ? "ycsb"
                           : pending->request.contract);
                   contract::WriteSet writes;
                   Status exec =
                       contract == nullptr
                           ? Status::NotSupported("unknown contract")
                           : contract->Execute(pending->request, &view,
                                               &writes, nullptr);
                   // Endorsement response back to the client.
                   uint64_t resp_bytes = 96;
                   for (const auto& [k, v] : writes) {
                     resp_bytes += k.size() + v.size();
                   }
                   net_->Send(peer_id, config_.client_node, resp_bytes,
                              [this, peer_id, pending, read_set, writes,
                               exec] {
                                pending->responses++;
                                pending->read_sets.push_back(read_set);
                                if (pending->responses == 1) {
                                  pending->envelope.read_set = read_set;
                                  pending->envelope.write_set.assign(
                                      writes.begin(), writes.end());
                                  pending->envelope.valid = exec.ok();
                                }
                                pending->envelope.endorsements.emplace_back(
                                    peer_id, std::string(32, 'e'));
                                if (pending->responses ==
                                    EndorsersRequired()) {
                                  OnEndorsementsComplete(pending);
                                }
                              });
                 });
               });
  }
}

void FabricSystem::OnEndorsementsComplete(std::shared_ptr<PendingTxn> pending) {
  pending->endorsed_time = sim_->Now();
  // The client must receive *identical* simulation results from all
  // endorsers; peers at different commit heights return different versions
  // and the client aborts immediately (paper Section 5.3.2).
  for (size_t i = 1; i < pending->read_sets.size(); i++) {
    if (pending->read_sets[i] != pending->read_sets[0]) {
      pending->endorsement_diverged = true;
      break;
    }
  }
  if (pending->endorsement_diverged) {
    FinishTxn(pending->request.txn_id, false,
              core::AbortReason::kInconsistentEndorsement);
    return;
  }
  if (!pending->envelope.valid) {
    // Application-level abort discovered during simulation.
    FinishTxn(pending->request.txn_id, false, core::AbortReason::kConstraint);
    return;
  }
  // Order phase: the endorsed envelope goes to the ordering service.
  ordering_->Submit(config_.client_node, pending->envelope.Serialize(),
                    [](Status) {});
}

void FabricSystem::OnBlockDelivered(NodeId peer_id,
                                    const sharedlog::OrderedBlock& block) {
  Peer* peer = &peers_.at(peer_id);
  Time delivered = sim_->Now();
  if (peer->catching_up) {
    peer->backlog.push_back(block);
    return;
  }

  // Validation cost: per transaction, verify the client signature plus one
  // signature per endorsement (42% of validation time in the paper's
  // profile), then the MVCC check and the state/ledger write. Under
  // fast_storage the per-byte commit charge is the delta-encode rate — the
  // state write stores a small delta against the previous version instead
  // of the whole value.
  Time per_byte_us = config_.fast_storage ? costs_->delta_encode_per_byte_us
                                          : costs_->fabric_commit_per_byte_us;
  Time cost = 0;
  for (const auto& envelope : block.envelopes) {
    cost += costs_->sig_verify_us;  // client signature
    cost += static_cast<Time>(EndorsersRequired()) * costs_->sig_verify_us;
    cost += costs_->fabric_commit_us +
            per_byte_us * static_cast<Time>(envelope.size());
  }
  cost /= static_cast<Time>(config_.validation_parallelism);

  // Deserialize up front and *really* verify every client signature for the
  // block in one thread-pooled batch (crypto::VerifyBatch; results land in
  // block order, so downstream processing — and the goldens — are
  // independent of worker count). The modeled cost above still charges the
  // simulated CPU; the batch spends the host's wall clock.
  auto txns = std::make_shared<std::vector<ledger::LedgerTxn>>();
  txns->reserve(block.envelopes.size());
  for (const auto& env : block.envelopes) {
    ledger::LedgerTxn txn;
    if (ledger::LedgerTxn::Deserialize(env, &txn)) {
      txns->push_back(std::move(txn));
    }
  }
  std::vector<crypto::BatchVerifyItem> items;
  items.reserve(txns->size());
  for (const auto& txn : *txns) {
    items.push_back({txn.client_id, Slice(txn.payload),
                     Slice(txn.client_signature)});
  }
  auto sig_ok =
      std::make_shared<std::vector<uint8_t>>(crypto::VerifyBatch(items));

  uint64_t block_seq = block.number + 1;  // tracker seqs are 1-based
  peer->validate_cpu.Submit(cost, [this, peer_id, peer, txns, sig_ok,
                                   delivered, block_seq] {
    ledger::Block ledger_block;
    ledger_block.header.number = peer->chain.height();
    ledger_block.header.parent = peer->chain.TipDigest();
    ledger_block.header.timestamp_us = static_cast<uint64_t>(sim_->Now());
    // MVCC versions are global block heights, not local chain positions: a
    // joined peer's own ledger starts at its transfer anchor, but its
    // versions must match what the elders stamped for the same block.
    uint64_t version = block_seq;

    std::vector<std::pair<std::string, std::string>> writes;
    for (size_t i = 0; i < txns->size(); i++) {
      ledger::LedgerTxn txn = (*txns)[i];
      // Client signature first (a forged envelope must not reach MVCC),
      // then the read-set check against this peer's committed state.
      bool sig_valid = (*sig_ok)[i] != 0;
      std::string conflict;
      bool valid = sig_valid && txn.valid &&
                   peer->state.Validate(txn.read_set, &conflict);
      txn.valid = valid;
      if (valid) {
        peer->state.Apply(txn.write_set, version);
        if (!trackers_.empty()) {
          for (const auto& [k, v] : txn.write_set) {
            writes.emplace_back(k, v + "@" + std::to_string(version));
          }
        }
      }
      // Aborted transactions stay on the ledger, marked invalid.
      bool is_completion_peer = peer_id == peers_.id_of(0);
      if (is_completion_peer) {
        auto* entry = inflight_.Find(txn.txn_id);
        if (entry != nullptr) (*entry)->ordered_time = delivered;
        core::AbortReason reason = core::AbortReason::kNone;
        if (!valid) {
          reason = sig_valid ? core::AbortReason::kReadConflict
                             : core::AbortReason::kBadSignature;
        }
        FinishTxn(txn.txn_id, valid, reason);
      }
      ledger_block.txns.push_back(std::move(txn));
    }
    peer->chain.AppendSealed(
        ledger_block.header,
        ledger::SealedBody::Seal(std::move(ledger_block.txns)));
    if (runtime::ReplicaTracker* t = tracker(peer_id)) {
      t->OnEntry(block_seq, 0, writes);
    }
  });
}

void FabricSystem::FinishTxn(uint64_t txn_id, bool valid,
                             core::AbortReason reason) {
  std::shared_ptr<PendingTxn> pending;
  if (!inflight_.Take(txn_id, &pending)) return;

  net_->Send(peers_.id_of(0), config_.client_node, 64, [this, pending, valid,
                                                     reason] {
    core::TxnResult result;
    result.submit_time = pending->submit_time;
    result.finish_time = sim_->Now();
    Time endorsed = pending->endorsed_time > 0 ? pending->endorsed_time
                                               : result.finish_time;
    result.phases.Set(core::Phase::kExecute, endorsed - pending->submit_time);
    if (pending->ordered_time > 0) {
      result.phases.Set(core::Phase::kOrder, pending->ordered_time - endorsed);
      result.phases.Set(core::Phase::kValidate,
                        result.finish_time - pending->ordered_time);
    }
    const NodeId completion_peer = peers_.id_of(0);
    obs::EmitPhaseSpan(sim_, core::Phase::kExecute, completion_peer,
                       pending->request.txn_id, pending->submit_time, endorsed);
    if (pending->ordered_time > 0) {
      obs::EmitPhaseSpan(sim_, core::Phase::kOrder, completion_peer,
                         pending->request.txn_id, endorsed,
                         pending->ordered_time);
      obs::EmitPhaseSpan(sim_, core::Phase::kValidate, completion_peer,
                         pending->request.txn_id, pending->ordered_time,
                         result.finish_time);
    }
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

void FabricSystem::Query(const core::ReadRequest& request,
                         core::ReadCallback cb) {
  stats_.queries++;
  Time submit_time = sim_->Now();
  // Reads route over the construction-time span only — a joiner still
  // catching up must not serve stale reads.
  NodeId target = peers_.id_of(request.client_id % config_.num_peers);
  net_->Send(config_.client_node, target, 64 + request.key.size(),
             [this, target, key = request.key, cb = std::move(cb),
              submit_time]() mutable {
               // Client authentication dominates the Fabric query path
               // (paper Fig. 8b): x509 chain + channel ACL evaluation.
               Time arrive = sim_->Now();
               obs::EmitPhaseSpan(sim_, core::Phase::kAuth, target, 0, arrive,
                                  arrive + costs_->fabric_query_auth_us);
               obs::EmitPhaseSpan(
                   sim_, core::Phase::kRead, target, 0,
                   arrive + costs_->fabric_query_auth_us,
                   arrive + costs_->fabric_query_auth_us + costs_->lsm_read_us);
               Time delay = costs_->fabric_query_auth_us + costs_->lsm_read_us;
               sim_->Schedule(delay, [this, target, key, cb = std::move(cb),
                                      submit_time]() mutable {
                 std::string value;
                 uint64_t version;
                 peers_.at(target).state.Get(key, &value, &version);
                 Status s = (value.empty() && version == 0)
                                ? Status::NotFound()
                                : Status::Ok();
                 net_->Send(target, config_.client_node, 64 + value.size(),
                            [this, cb = std::move(cb), submit_time, s,
                             value = std::move(value)] {
                              core::ReadResult result;
                              result.status = s;
                              result.value = value;
                              result.submit_time = submit_time;
                              result.finish_time = sim_->Now();
                              result.phases.Set(core::Phase::kAuth,
                                                costs_->fabric_query_auth_us);
                              result.phases.Set(
                                  core::Phase::kRead,
                                  result.finish_time - submit_time -
                                      costs_->fabric_query_auth_us);
                              cb(result);
                            });
               });
             });
}

}  // namespace dicho::systems
