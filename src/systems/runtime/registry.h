#ifndef DICHO_SYSTEMS_RUNTIME_REGISTRY_H_
#define DICHO_SYSTEMS_RUNTIME_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "hybrid/taxonomy.h"
#include "sim/cost_model.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "systems/runtime/mempool.h"

namespace dicho::systems::runtime {

/// Cross-system construction knobs. Zero/empty means "keep the system's
/// default"; fields a system has no analog for are ignored. Anything not
/// expressible here (endorsement policies, epoch tuning, ...) still goes
/// through the concrete config structs — the registry covers the knobs the
/// benches and the testing harness actually sweep.
struct SystemOverrides {
  /// Primary replica count: quorum/etcd nodes, fabric peers, TiDB SQL
  /// servers, hybrid nodes.
  uint32_t nodes = 0;
  /// Secondary tier: TiKV storage nodes.
  uint32_t aux_nodes = 0;
  /// TiDB replication factor (0 = full replication).
  uint32_t replication = 0;
  /// Fabric validation-pool width.
  uint32_t validation_parallelism = 0;
  /// Quorum block-cutting cadence (0 = default 250 ms).
  sim::Time block_interval = 0;
  /// Simulated-PoW mean block interval for hybrid designs (0 = default).
  sim::Time pow_mean_block_interval = 0;
  /// Raft fault-injection flag (simulation testing harness).
  bool raft_unsafe_commit_without_quorum = false;
  /// Fast storage path (DESIGN.md §2g): fabric delta-backed world state,
  /// harmonylike out-of-line MPT values + fast per-write pricing. Ignored
  /// by systems without the flag.
  bool fast_storage = false;
  /// Taxonomy point for the "hybrid" entry; ignored elsewhere. Must stay
  /// alive through the call (the descriptor is copied into the config).
  const hybrid::SystemDescriptor* hybrid_design = nullptr;
  /// Mempool admission control, applied uniformly to every registry name by
  /// wrapping the constructed system in an AdmissionGate. Default policy
  /// kNone builds the bare system — byte-identical to pre-admission runs.
  /// NOTE: with a non-kNone policy MakeSystem returns the gate, so
  /// MakeSystemAs<T> (which static_casts to the concrete type) must only be
  /// used with admission disabled.
  AdmissionConfig admission;
};

/// Constructs a system by registry name: "quorum-raft", "quorum-ibft",
/// "fabric", "tidb", "etcd", "ahl", "spannerlike", "harmonylike",
/// "harmonyshard", or
/// "hybrid" (which requires overrides.hybrid_design). Construction only
/// — callers decide
/// when to Start() and how long to warm up. Returns nullptr for unknown
/// names.
std::unique_ptr<core::TransactionalSystem> MakeSystem(
    const std::string& name, sim::Simulator* sim, sim::SimNetwork* net,
    const sim::CostModel* costs, const SystemOverrides& overrides = {});

/// Typed construction for call sites that need the concrete system's extra
/// surface (chain_of, StateBytes, ...). T must match `name`'s concrete type.
template <typename T>
std::unique_ptr<T> MakeSystemAs(const std::string& name, sim::Simulator* sim,
                                sim::SimNetwork* net,
                                const sim::CostModel* costs,
                                const SystemOverrides& overrides = {}) {
  auto system = MakeSystem(name, sim, net, costs, overrides);
  return std::unique_ptr<T>(static_cast<T*>(system.release()));
}

/// Registry names in registration order.
std::vector<std::string> RegisteredSystems();

}  // namespace dicho::systems::runtime

#endif  // DICHO_SYSTEMS_RUNTIME_REGISTRY_H_
