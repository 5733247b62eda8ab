#include "systems/harmonylike.h"

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

}  // namespace

HarmonySystem::HarmonySystem(sim::Simulator* sim, sim::SimNetwork* net,
                             const sim::CostModel* costs, HarmonyConfig config)
    : sim_(sim),
      net_(net),
      config_(config),
      contracts_(contract::ContractRegistry::CreateDefault()),
      executor_(contracts_.get(), costs, config_.exec_lanes,
                config_.fast_storage),
      pipeline_(sim, net, costs, PipelineConfig(costs, config_),
                MakeHooks(sim, costs)) {
  if (config_.fast_storage) {
    // Out-of-line threshold chosen at the record sizes where full-path
    // re-hashing dominates (Fig. 11's knee); must be set before any state
    // lands in the tries.
    adt::MptOptions options;
    options.inline_value_threshold = 1024;
    pipeline_.nodes().ForEach(
        [&](runtime::BlockNode& node) { node.state.Configure(options); });
  }
  if (config_.elasticity.enabled) {
    for (sim::NodeId id : pipeline_.nodes().ids()) MakeTracker(id);
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
  hooks.cut_cost = [costs](runtime::BlockNode&, const core::TxnRequest&,
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

runtime::ReplicaTracker* HarmonySystem::MakeTracker(sim::NodeId node) {
  auto tracker = std::make_unique<runtime::ReplicaTracker>(
      &config_.elasticity,
      lifecycle::LifecycleMetrics::For(sim_->metrics(), "lifecycle.harmony"));
  if (config_.consensus == HarmonyConsensus::kRaft) {
    tracker->set_on_fold([this, node](uint64_t anchor, uint64_t term) {
      pipeline_.transport().raft()->node(node)->InstallSnapshot(anchor, term);
    });
  }
  trackers_.push_back(std::move(tracker));
  return trackers_.back().get();
}

sim::NodeId HarmonySystem::AddReplica(
    std::function<void(const runtime::JoinReport&)> done) {
  sim::NodeId id = pipeline_.nodes().Grow(sim_);
  runtime::ReplicaTracker* joiner = MakeTracker(id);
  runtime::Transport* transport = &pipeline_.transport();
  sim::NodeId source = transport->LeaderId(pipeline_.nodes().id_of(0));
  runtime::StartElasticRaftJoin(
      sim_, net_, transport, source, id, tracker(source), joiner,
      config_.elasticity,
      [this, id](const std::map<std::string, std::string>& state) {
        runtime::BlockNode* node = &pipeline_.node(id);
        for (const auto& [key, value] : state) node->state.Put(key, value);
      },
      std::move(done));
  return id;
}

sim::Time HarmonySystem::ApplyEpoch(sim::NodeId node_id, uint64_t seq,
                                    ledger::Block* block) {
  runtime::BlockNode* node = &pipeline_.node(node_id);

  // Every replica (sequencer included — it never pre-executed) runs the
  // same deterministic schedule against its committed state. Blocks are
  // delivered in commit order and writes apply synchronously here, so each
  // epoch reads its predecessor's effects even while the modeled CPU is
  // still draining earlier epochs.
  std::vector<core::TxnRequest> batch;
  batch.reserve(block->txns.size());
  for (const auto& txn : block->txns) {
    core::TxnRequest request;
    if (core::TxnRequest::Deserialize(txn.payload, &request)) {
      batch.push_back(std::move(request));
    }
  }
  runtime::MptView view(&node->state);
  txn::EpochOutcome outcome = executor_.ExecuteEpoch(batch, &view);
  for (size_t i = 0; i < outcome.results.size() && i < block->txns.size();
       i++) {
    const txn::EpochTxnResult& result = outcome.results[i];
    block->txns[i].valid = result.valid;
    block->txns[i].write_set.assign(result.writes.begin(),
                                    result.writes.end());
    for (const auto& [key, value] : result.writes) {
      node->state.StagePut(key, value);  // staged in epoch order
    }
  }
  // One batched commit per epoch: shared path nodes hash once however many
  // staged keys pass through them, untouched subtrees are reused by digest,
  // and the root is byte-identical to per-write Puts (adt/mpt.h).
  node->state.CommitBatch();
  block->header.state_digest = node->state.RootDigest();

  if (runtime::ReplicaTracker* t = tracker(node_id)) {
    std::vector<std::pair<std::string, std::string>> writes;
    for (const auto& result : outcome.results) {
      for (const auto& [key, value] : result.writes) {
        writes.emplace_back(key, value);
      }
    }
    uint64_t term = 0;
    if (config_.consensus == HarmonyConsensus::kRaft) {
      consensus::RaftNode* raft =
          pipeline_.transport().raft()->node(node_id);
      if (raft != nullptr) term = raft->EntryTerm(seq);
    }
    t->OnEntry(seq, term, writes);
  }

  // One replica (a fixed one, so the count is once per epoch) accumulates
  // the schedule statistics the ablation bench reports. Pinned to the
  // construction-time span so a joining replica doesn't skew the counts.
  if (node_id == pipeline_.nodes().id_of(config_.num_nodes - 1)) {
    epoch_stats_.epochs++;
    epoch_stats_.scheduled_txns += outcome.results.size();
    epoch_stats_.conflict_edges += outcome.schedule.conflict_edges;
    epoch_stats_.total_layers += outcome.schedule.num_layers;
    epoch_stats_.makespan_us += outcome.makespan_us;
    epoch_stats_.serial_us += outcome.serial_us;
  }

  // The replica's engine is busy for the *multi-lane makespan*, not the
  // serial sum — this is where deterministic execution buys its headroom.
  return outcome.makespan_us;
}

}  // namespace dicho::systems
