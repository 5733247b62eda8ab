#include "systems/harmonylike.h"

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace dicho::systems {

namespace {

runtime::BlockPipelineConfig PipelineConfig(const sim::CostModel* costs,
                                            const HarmonyConfig& config) {
  runtime::BlockPipelineConfig pipeline;
  pipeline.name = "harmony";
  pipeline.base = runtime::kHarmonyBase;
  pipeline.num_nodes = config.num_nodes;
  pipeline.transport.kind = config.consensus == HarmonyConsensus::kRaft
                                ? runtime::TransportKind::kRaft
                                : runtime::TransportKind::kBft;
  pipeline.transport.raft = config.raft;
  pipeline.transport.bft = config.bft;
  pipeline.interval = config.epoch_interval;
  pipeline.policy.max_txns = config.max_epoch_txns;
  pipeline.policy.max_bytes = config.max_epoch_bytes;
  pipeline.client_node = config.client_node;
  // Native read path — no VM between the RPC layer and the storage engine
  // (contrast quorum_query_us).
  pipeline.read_cost = costs->native_op_us + costs->lsm_read_us;
  pipeline.read_phase = core::Phase::kRead;
  return pipeline;
}

// Whether `block` carries exactly `payloads`, in order: the executor's
// input besides the pre-state, compared byte for byte.
bool SamePayloads(const std::vector<std::string>& payloads,
                  const ledger::Block& block) {
  if (payloads.size() != block.txns.size()) return false;
  for (size_t i = 0; i < payloads.size(); i++) {
    if (payloads[i] != block.txns[i].payload) return false;
  }
  return true;
}

}  // namespace

HarmonySystem::HarmonySystem(sim::Simulator* sim, sim::SimNetwork* net,
                             const sim::CostModel* costs, HarmonyConfig config)
    : sim_(sim),
      config_(config),
      contracts_(contract::ContractRegistry::CreateDefault()),
      executor_(contracts_.get(), costs, config_.exec_lanes,
                config_.fast_storage),
      pipeline_(sim, net, costs, PipelineConfig(costs, config_),
                MakeHooks(sim, costs)) {
  pipeline_.nodes().ForEach(
      [this](sim::NodeId id, runtime::BlockNode&) { ShareWorldState(id); });
  if (config_.elasticity.enabled &&
      config_.consensus == HarmonyConsensus::kRaft) {
    lifecycle_ = std::make_unique<runtime::RaftLifecycle>(
        sim, net, &pipeline_.transport(), &config_.elasticity,
        "lifecycle.harmony",
        [this](sim::NodeId id, const std::map<std::string, std::string>& state) {
          runtime::BlockNode* node = &pipeline_.node(id);
          for (const auto& [key, value] : state) node->state.Put(key, value);
        });
  }
  if (obs::MetricsRegistry* registry = sim_->metrics()) {
    registry->GetCallbackGauge("harmony.epochs", [this] {
      return static_cast<double>(epoch_stats_.epochs);
    });
    registry->GetCallbackGauge("harmony.conflict_edges", [this] {
      return static_cast<double>(epoch_stats_.conflict_edges);
    });
    registry->GetCallbackGauge("harmony.lane_speedup", [this] {
      return epoch_stats_.LaneSpeedup();
    });
  }
}

runtime::BlockPipeline::Hooks HarmonySystem::MakeHooks(
    sim::Simulator* sim, const sim::CostModel* costs) {
  runtime::BlockPipeline::Hooks hooks;
  hooks.cut_cost = [costs](sim::NodeId, const core::TxnRequest&,
                           ledger::LedgerTxn*) {
    // The epoch goes to consensus UNEXECUTED: the sequencer only assembles
    // and signs, so cutting costs per-txn message handling instead of
    // Quorum's serial EVM pass.
    return costs->msg_handling_us + costs->sig_verify_us;
  };
  hooks.apply = [this](sim::NodeId node, uint64_t seq, ledger::Block* block) {
    return ApplyEpoch(node, seq, block);
  };
  hooks.stamp = [sim](const runtime::PendingTxn& pending, sim::NodeId node,
                      sim::Time ordered_time, core::TxnResult* result) {
    result->phases.Set(core::Phase::kProposal,
                       pending.proposed_time - pending.submit_time);
    result->phases.Set(core::Phase::kOrder,
                       ordered_time - pending.proposed_time);
    result->phases.Set(core::Phase::kExecute,
                       result->finish_time - ordered_time);
    obs::EmitPhaseSpan(sim, core::Phase::kProposal, node,
                       pending.request.txn_id, pending.submit_time,
                       pending.proposed_time);
    obs::EmitPhaseSpan(sim, core::Phase::kOrder, node, pending.request.txn_id,
                       pending.proposed_time, ordered_time);
    obs::EmitPhaseSpan(sim, core::Phase::kExecute, node,
                       pending.request.txn_id, ordered_time,
                       result->finish_time);
  };
  return hooks;
}

void HarmonySystem::Start() {
  pipeline_.Start();
  if (lifecycle_ != nullptr) lifecycle_->Start();
}

void HarmonySystem::ShareWorldState(sim::NodeId id) {
  runtime::BlockNode* node = &pipeline_.node(id);
  if (config_.fast_storage) {
    // Out-of-line threshold chosen at the record sizes where full-path
    // re-hashing dominates (Fig. 11's knee); must be set before any state
    // lands in the trie.
    adt::MptOptions options;
    options.inline_value_threshold = 1024;
    node->state.Configure(options);
  }
  // One content-addressed node store per world: every replica's trie files
  // its nodes in the first replica's stores and keeps its own root, so an
  // epoch computed once can be adopted everywhere (ApplyEpoch). The stores
  // are not thread-safe, so every replica, joiners included, must run on
  // simulator partition 0.
  runtime::RequireSerialReplica(sim_, id);
  runtime::BlockNode& first = pipeline_.nodes().at_index(0);
  if (node != &first) node->state.ShareStoresOf(first.state);
}

sim::NodeId HarmonySystem::AddReplica(
    std::function<void(const runtime::JoinReport&)> done) {
  sim::NodeId id = pipeline_.nodes().Grow(sim_);
  ShareWorldState(id);
  lifecycle_->Join(id, std::move(done));
  return id;
}

void HarmonySystem::RemoveReplica(sim::NodeId id, bool drain,
                                  std::function<void()> done) {
  lifecycle_->Leave(id, drain, std::move(done));
}

sim::Time HarmonySystem::ApplyEpoch(sim::NodeId node_id, uint64_t seq,
                                    ledger::Block* block) {
  runtime::BlockNode* node = &pipeline_.node(node_id);

  // An epoch's outcome is a pure function of the pre-state and the ordered
  // payloads, so a replica whose state another replica already carried
  // through this very epoch adopts that transition: same root, counters,
  // outcomes and makespan, without executing or rehashing the trie. Any
  // other replica (one that diverged, or applies a different block at this
  // height, or was cut off until its epoch aged out) computes it.
  auto memo = std::find_if(
      transitions_.begin(), transitions_.end(),
      [&](const EpochTransition& t) {
        return t.before.root == node->state.RootDigest() &&
               SamePayloads(t.payloads, *block);
      });
  EpochTransition computed;
  const EpochTransition* transition;
  if (memo != transitions_.end() &&
      node->state.Adopt(memo->before, memo->after)) {
    transition = &*memo;
  } else {
    memo = transitions_.end();
    computed = ComputeEpoch(node, *block);
    transition = &computed;
  }

  for (size_t i = 0; i < transition->txns.size() && i < block->txns.size();
       i++) {
    block->txns[i].valid = transition->txns[i].first;
    block->txns[i].write_set = transition->txns[i].second;
  }
  block->header.state_digest = node->state.RootDigest();

  if (lifecycle_ != nullptr) {
    runtime::RaftLifecycle::Writes writes;
    for (const auto& [valid, txn_writes] : transition->txns) {
      writes.insert(writes.end(), txn_writes.begin(), txn_writes.end());
    }
    lifecycle_->OnApply(node_id, seq, writes);
  }

  // One replica (a fixed one, so the count is once per epoch) accumulates
  // the schedule statistics the ablation bench reports. Pinned to the
  // construction-time span so a joining replica doesn't skew the counts.
  if (node_id == pipeline_.nodes().id_of(config_.num_nodes - 1)) {
    epoch_stats_.epochs++;
    epoch_stats_.scheduled_txns += transition->txns.size();
    epoch_stats_.conflict_edges += transition->conflict_edges;
    epoch_stats_.total_layers += transition->layers;
    epoch_stats_.makespan_us += transition->makespan_us;
    epoch_stats_.serial_us += transition->serial_us;
  }

  // The replica's engine is busy for the *multi-lane makespan*, not the
  // serial sum — this is where deterministic execution buys its headroom.
  const sim::Time makespan_us = transition->makespan_us;
  if (memo != transitions_.end()) {
    if (--memo->adopters_left == 0) transitions_.erase(memo);
  } else if (pipeline_.nodes().size() > 1) {
    // Bounded so that a replica that stops applying (cut off, crashed,
    // removed) cannot make the memo grow; it recomputes what aged out.
    if (transitions_.size() == kMaxTransitions) transitions_.pop_front();
    computed.adopters_left = pipeline_.nodes().size() - 1;
    transitions_.push_back(std::move(computed));
  }
  return makespan_us;
}

HarmonySystem::EpochTransition HarmonySystem::ComputeEpoch(
    runtime::BlockNode* node, const ledger::Block& block) {
  // The sequencer never pre-executed, so this runs the same deterministic
  // schedule against committed state as every other replica. Blocks are
  // delivered in commit order and writes apply synchronously here, so each
  // epoch reads its predecessor's effects even while the modeled CPU is
  // still draining earlier epochs.
  EpochTransition transition;
  std::vector<core::TxnRequest> batch;
  batch.reserve(block.txns.size());
  transition.payloads.reserve(block.txns.size());
  for (const auto& txn : block.txns) {
    transition.payloads.push_back(txn.payload);
    core::TxnRequest request;
    if (core::TxnRequest::Deserialize(txn.payload, &request)) {
      batch.push_back(std::move(request));
    }
  }
  transition.before = node->state.checkpoint();
  runtime::MptView view(&node->state);
  txn::EpochOutcome outcome = executor_.ExecuteEpoch(batch, &view);
  epoch_stats_.executions++;
  transition.txns.reserve(outcome.results.size());
  for (txn::EpochTxnResult& result : outcome.results) {
    for (const auto& [key, value] : result.writes) {
      node->state.StagePut(key, value);  // staged in epoch order
    }
    transition.txns.emplace_back(result.valid, std::move(result.writes));
  }
  // One batched commit per epoch: shared path nodes hash once however many
  // staged keys pass through them, untouched subtrees are reused by digest,
  // and the root is byte-identical to per-write Puts (adt/mpt.h).
  node->state.CommitBatch();
  transition.after = node->state.checkpoint();
  transition.conflict_edges = outcome.schedule.conflict_edges;
  transition.layers = outcome.schedule.num_layers;
  transition.makespan_us = outcome.makespan_us;
  transition.serial_us = outcome.serial_us;
  return transition;
}

}  // namespace dicho::systems
