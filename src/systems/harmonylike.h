#ifndef DICHO_SYSTEMS_HARMONYLIKE_H_
#define DICHO_SYSTEMS_HARMONYLIKE_H_

#include <memory>
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
#include "systems/runtime/elasticity.h"
#include "systems/runtime/runtime.h"
#include "txn/deterministic.h"

namespace dicho::systems {

enum class HarmonyConsensus { kRaft, kBft };

struct HarmonyConfig {
  uint32_t num_nodes = 5;
  HarmonyConsensus consensus = HarmonyConsensus::kRaft;
  /// Sequencer cuts an epoch on this cadence.
  sim::Time epoch_interval = 50 * sim::kMs;
  size_t max_epoch_txns = 500;
  uint64_t max_epoch_bytes = 1ull << 20;
  /// Modeled deterministic-execution worker lanes per replica.
  uint32_t exec_lanes = 4;
  sim::NodeId client_node = runtime::kClientNode;
  consensus::RaftConfig raft;
  consensus::BftConfig bft;
  /// Replica-lifecycle support (default-off; enables AddReplica — Raft
  /// consensus only).
  runtime::ElasticityConfig elasticity;
  /// Fast storage path (DESIGN.md §2g): replica MPTs store large values out
  /// of line (adt::MptOptions) and per-write execution cost is priced with
  /// MptUpdateCostFast. Default-off — out-of-line encoding changes state
  /// digests, so golden traces run with the original layout.
  bool fast_storage = false;
};

/// Cumulative deterministic-scheduling statistics (ablation reporting).
struct HarmonyEpochStats {
  uint64_t epochs = 0;
  uint64_t scheduled_txns = 0;
  uint64_t conflict_edges = 0;
  uint64_t total_layers = 0;  // sum of per-epoch layer counts
  sim::Time makespan_us = 0;  // modeled multi-lane execution time
  sim::Time serial_us = 0;    // single-lane equivalent work

  double AvgDepth() const {
    return epochs == 0 ? 0.0
                       : static_cast<double>(total_layers) /
                             static_cast<double>(epochs);
  }
  double LaneSpeedup() const {
    return makespan_us == 0 ? 1.0 : serial_us / makespan_us;
  }
};

/// Harmony-style fused design: order-then-deterministic-execute (the point
/// "When Private Blockchain Meets Deterministic Database" shows dominates
/// both of the paper's blockchain execution orders under contention).
/// Consensus (Raft or PBFT via the shared runtime transport) orders an
/// epoch of *unexecuted* transactions; every replica then executes the
/// epoch with the deterministic conflict-layer scheduler (src/txn/
/// deterministic.h) against its own MPT state. There is no validation
/// phase to fail and no re-execution: the schedule is a pure function of
/// the order, so replicas stay byte-identical and the only aborts are
/// application constraint aborts. Contrast with Quorum (order-execute,
/// serial double execution) and Fabric (execute-order-validate, OCC aborts
/// climb with skew).
///
/// Design-dimension choices: transaction-based replication / consensus
/// (CFT Raft or BFT PBFT) / deterministic concurrent execution / ledger /
/// MPT-authenticated state / no sharding.
class HarmonySystem : public core::TransactionalSystem {
 public:
  HarmonySystem(sim::Simulator* sim, sim::SimNetwork* net,
                const sim::CostModel* costs, HarmonyConfig config);

  void Start() override { pipeline_.Start(); }
  bool HasSequencer() const { return pipeline_.transport().HasLeader(); }

  void Submit(const core::TxnRequest& request, core::TxnCallback cb) override {
    pipeline_.Submit(request, std::move(cb));
  }
  void Query(const core::ReadRequest& request, core::ReadCallback cb) override {
    pipeline_.Query(request, std::move(cb));
  }
  const core::SystemStats& stats() const override { return pipeline_.stats(); }
  std::string name() const override { return "harmonylike"; }

  void Load(const std::string& key, const std::string& value) override {
    pipeline_.Load(key, value);
    for (auto& t : trackers_) t->OnLoad(key, value);
  }

  /// Lifecycle (requires config.elasticity.enabled and Raft consensus):
  /// scales the replica set out by one — snapshot + log-tail transfer from
  /// a live replica, then Raft single-server admission. Because execution
  /// is deterministic, catch-up is a pure data transfer: the joiner
  /// replays ordered epochs past the anchor and lands byte-identical
  /// (PAPERS.md, "When Private Blockchain Meets Deterministic Database").
  sim::NodeId AddReplica(std::function<void(const runtime::JoinReport&)> done);
  runtime::ReplicaTracker* tracker(sim::NodeId node) {
    size_t index = pipeline_.nodes().index_of(node);
    return index < trackers_.size() ? trackers_[index].get() : nullptr;
  }

  const adt::MerklePatriciaTrie& state_of(sim::NodeId node) const {
    return pipeline_.node(node).state;
  }
  const ledger::Chain& chain_of(sim::NodeId node) const {
    return pipeline_.node(node).chain;
  }
  const std::vector<sim::NodeId>& node_ids() const {
    return pipeline_.nodes().ids();
  }
  const HarmonyEpochStats& epoch_stats() const { return epoch_stats_; }

 private:
  runtime::BlockPipeline::Hooks MakeHooks(sim::Simulator* sim,
                                          const sim::CostModel* costs);
  runtime::ReplicaTracker* MakeTracker(sim::NodeId node);
  /// Runs one ordered epoch on a replica; returns its multi-lane makespan.
  sim::Time ApplyEpoch(sim::NodeId node, uint64_t seq, ledger::Block* block);

  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  HarmonyConfig config_;
  HarmonyEpochStats epoch_stats_;
  /// Parallel to the replica set; empty when elasticity is disabled (the
  /// default).
  std::vector<std::unique_ptr<runtime::ReplicaTracker>> trackers_;
  std::unique_ptr<contract::ContractRegistry> contracts_;
  txn::DeterministicExecutor executor_;
  runtime::BlockPipeline pipeline_;
};

}  // namespace dicho::systems

#endif  // DICHO_SYSTEMS_HARMONYLIKE_H_
