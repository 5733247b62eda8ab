#include "systems/runtime/registry.h"

#include <functional>
#include <utility>

#include "hybrid/builder.h"
#include "systems/ahl.h"
#include "systems/etcd.h"
#include "systems/fabric.h"
#include "systems/harmonylike.h"
#include "systems/harmonyshard.h"
#include "systems/quorum.h"
#include "systems/spannerlike.h"
#include "systems/tidb.h"

namespace dicho::systems::runtime {

namespace {

using Factory = std::function<std::unique_ptr<core::TransactionalSystem>(
    sim::Simulator*, sim::SimNetwork*, const sim::CostModel*,
    const SystemOverrides&)>;

std::unique_ptr<core::TransactionalSystem> MakeQuorum(
    sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
    const SystemOverrides& o, QuorumConsensus consensus) {
  QuorumConfig config;
  config.consensus = consensus;
  if (o.nodes > 0) config.num_nodes = o.nodes;
  if (o.block_interval > 0) config.block_interval = o.block_interval;
  config.raft.unsafe_commit_without_quorum =
      o.raft_unsafe_commit_without_quorum;
  return std::make_unique<QuorumSystem>(sim, net, costs, config);
}

const std::pair<const char*, Factory> kRegistry[] = {
    {"quorum-raft",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o) {
       return MakeQuorum(sim, net, costs, o, QuorumConsensus::kRaft);
     }},
    {"quorum-ibft",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o) {
       return MakeQuorum(sim, net, costs, o, QuorumConsensus::kIbft);
     }},
    {"fabric",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o)
         -> std::unique_ptr<core::TransactionalSystem> {
       FabricConfig config;
       if (o.nodes > 0) config.num_peers = o.nodes;
       if (o.validation_parallelism > 0) {
         config.validation_parallelism = o.validation_parallelism;
       }
       config.fast_storage = o.fast_storage;
       return std::make_unique<FabricSystem>(sim, net, costs, config);
     }},
    {"tidb",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o)
         -> std::unique_ptr<core::TransactionalSystem> {
       TidbConfig config;
       if (o.nodes > 0) config.num_tidb_servers = o.nodes;
       if (o.aux_nodes > 0) config.num_tikv_nodes = o.aux_nodes;
       config.replication = o.replication;
       return std::make_unique<TidbSystem>(sim, net, costs, config);
     }},
    {"etcd",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o)
         -> std::unique_ptr<core::TransactionalSystem> {
       EtcdConfig config;
       if (o.nodes > 0) config.num_nodes = o.nodes;
       return std::make_unique<EtcdSystem>(sim, net, costs, config);
     }},
    {"ahl",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o)
         -> std::unique_ptr<core::TransactionalSystem> {
       AhlConfig config;
       if (o.nodes > 0) config.num_shards = o.nodes;
       if (o.aux_nodes > 0) config.nodes_per_shard = o.aux_nodes;
       return std::make_unique<AhlSystem>(sim, net, costs, config);
     }},
    {"spannerlike",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o)
         -> std::unique_ptr<core::TransactionalSystem> {
       SpannerConfig config;
       if (o.nodes > 0) config.num_shards = o.nodes;
       if (o.aux_nodes > 0) config.nodes_per_shard = o.aux_nodes;
       return std::make_unique<SpannerLikeSystem>(sim, net, costs, config);
     }},
    {"harmonylike",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o)
         -> std::unique_ptr<core::TransactionalSystem> {
       HarmonyConfig config;
       if (o.nodes > 0) config.num_nodes = o.nodes;
       if (o.block_interval > 0) config.epoch_interval = o.block_interval;
       config.raft.unsafe_commit_without_quorum =
           o.raft_unsafe_commit_without_quorum;
       config.fast_storage = o.fast_storage;
       return std::make_unique<HarmonySystem>(sim, net, costs, config);
     }},
    {"harmonyshard",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o)
         -> std::unique_ptr<core::TransactionalSystem> {
       HarmonyShardConfig config;
       if (o.nodes > 0) config.num_shards = o.nodes;
       if (o.aux_nodes > 0) config.nodes_per_shard = o.aux_nodes;
       if (o.block_interval > 0) config.epoch_interval = o.block_interval;
       config.raft.unsafe_commit_without_quorum =
           o.raft_unsafe_commit_without_quorum;
       return std::make_unique<HarmonyShardSystem>(sim, net, costs, config);
     }},
    {"hybrid",
     [](sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
        const SystemOverrides& o)
         -> std::unique_ptr<core::TransactionalSystem> {
       if (o.hybrid_design == nullptr) return nullptr;
       hybrid::HybridConfig config;
       config.design = *o.hybrid_design;
       if (o.nodes > 0) config.num_nodes = o.nodes;
       if (o.pow_mean_block_interval > 0) {
         config.pow.mean_block_interval = o.pow_mean_block_interval;
       }
       return std::make_unique<hybrid::HybridSystem>(sim, net, costs, config);
     }},
};

}  // namespace

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kNone:
      return "none";
    case AdmissionPolicy::kRejectNewest:
      return "reject-newest";
    case AdmissionPolicy::kFeePriority:
      return "fee-priority";
    case AdmissionPolicy::kTargetDelay:
      return "target-delay";
  }
  return "unknown";
}

std::unique_ptr<core::TransactionalSystem> MakeSystem(
    const std::string& name, sim::Simulator* sim, sim::SimNetwork* net,
    const sim::CostModel* costs, const SystemOverrides& overrides) {
  for (const auto& [entry_name, factory] : kRegistry) {
    if (name != entry_name) continue;
    auto system = factory(sim, net, costs, overrides);
    if (system != nullptr && overrides.admission.enabled()) {
      return std::make_unique<AdmissionGate>(sim, std::move(system),
                                             overrides.admission);
    }
    return system;
  }
  return nullptr;
}

std::vector<std::string> RegisteredSystems() {
  std::vector<std::string> names;
  for (const auto& [name, factory] : kRegistry) names.emplace_back(name);
  return names;
}

}  // namespace dicho::systems::runtime
