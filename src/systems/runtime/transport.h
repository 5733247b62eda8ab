#ifndef DICHO_SYSTEMS_RUNTIME_TRANSPORT_H_
#define DICHO_SYSTEMS_RUNTIME_TRANSPORT_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "consensus/pbft.h"
#include "consensus/pow.h"
#include "consensus/raft.h"
#include "obs/metrics.h"
#include "sharedlog/shared_log.h"
#include "sim/cost_model.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dicho::systems::runtime {

/// The replication transports of the paper's taxonomy (approach x failure
/// model, Section 3.1): consensus (CFT Raft / BFT PBFT-IBFT / open PoW),
/// an external shared log, or primary-backup.
enum class TransportKind {
  kRaft,
  kBft,
  kSharedLog,
  kPow,
  kPrimaryBackup,
};

const char* TransportKindName(TransportKind kind);

struct TransportConfig {
  TransportKind kind = TransportKind::kRaft;
  consensus::RaftConfig raft;
  consensus::BftConfig bft;
  sharedlog::SharedLogConfig log;
  consensus::PowConfig pow;
  /// Disseminate() retries on this cadence while a Raft election is in
  /// progress.
  sim::Time raft_retry_interval = 20 * sim::kMs;
  /// Places every replica on its own simulator partition (logical process),
  /// letting partitioned worlds run on the conservative parallel engine.
  /// Only protocol-internal traffic (network messages, timers) crosses
  /// partitions safely; drive such a world through network sends and
  /// Simulator::ScheduleGlobal — direct cross-object calls into replicas
  /// (Disseminate's leader lookup, raw accessors) are only safe from global
  /// events or with DICHO_SIM_THREADS=1.
  bool partition_replicas = false;
};

/// One ordered dissemination substrate over a contiguous replica span —
/// the transport-selection switch HybridSystem used to keep privately, now
/// shared by the concrete systems. Constructs exactly one protocol
/// instance for `kind` and delivers committed payloads through
/// apply(node_index, payload) on every replica in the agreed order.
///
/// Systems with protocol-specific submit policies (BlockPipeline proposes
/// only from the current leader/primary; etcd rejects writes leaderlessly
/// instead of retrying) use the raw accessors; Disseminate() is the
/// generic fire-and-forget policy.
class Transport {
 public:
  /// apply(node_index, seq, payload): `seq` is the protocol's commit
  /// sequence (raft log index, PBFT sequence, shared-log offset; a local
  /// counter for primary-backup). Lifecycle trackers anchor snapshots on
  /// it; systems that don't care ignore it.
  using ApplyFn =
      std::function<void(size_t node_index, uint64_t seq, const std::string&)>;

  /// node_ids must be a contiguous ascending span. For kSharedLog the
  /// broker takes the id one past the last replica. apply may be null
  /// (a caller wiring delivery through protocol-level hooks instead).
  Transport(sim::Simulator* sim, sim::SimNetwork* net,
            const sim::CostModel* costs, std::vector<sim::NodeId> node_ids,
            TransportConfig config, ApplyFn apply);

  /// Boots the protocol (elections, mining, delivery timers).
  void Start();

  /// Generic dissemination: Raft leader propose (retrying through
  /// elections), PBFT submit via replica 0, shared-log append from the
  /// entry node, PoW submit, or primary-backup apply-at-0 + broadcast.
  void Disseminate(const std::string& payload);

  TransportKind kind() const { return config_.kind; }

  /// Whether the Raft group has a leader or the PBFT group a primary —
  /// where ordered proposals must enter. False for other transports.
  bool HasLeader() const;
  /// The current Raft leader or PBFT primary, else `fallback`.
  sim::NodeId LeaderId(sim::NodeId fallback) const;
  const std::vector<sim::NodeId>& node_ids() const { return node_ids_; }

  /// Lifecycle (raft transports only): constructs a joiner raft node wired
  /// into the group's maps with the original span as its bootstrap config,
  /// and extends the transport's id span. The node is NOT started — the
  /// caller installs a snapshot + membership view first, then Start()s it
  /// and drives the add-node config change. Returns null for non-raft
  /// transports. Ids must stay contiguous (the apply router assumes it).
  consensus::RaftNode* AddRaftReplica(sim::NodeId id);

  // Raw protocol access (null unless `kind` selected that protocol).
  consensus::RaftCluster* raft() { return raft_.get(); }
  const consensus::RaftCluster* raft() const { return raft_.get(); }
  consensus::BftCluster* bft() { return bft_.get(); }
  const consensus::BftCluster* bft() const { return bft_.get(); }
  sharedlog::SharedLog* shared_log() { return shared_log_.get(); }
  consensus::PowNetwork* pow() { return pow_.get(); }

 private:
  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  std::vector<sim::NodeId> node_ids_;
  TransportConfig config_;
  ApplyFn apply_;
  uint64_t pb_seq_ = 0;  // primary-backup commit sequence

  // Resolved once at construction when the simulator carries a registry;
  // Disseminate() counts attempts (election retries re-count) and bytes.
  obs::Counter* disseminations_ = nullptr;
  obs::Counter* payload_bytes_ = nullptr;

  // Exactly one is instantiated (none for primary-backup).
  std::unique_ptr<consensus::RaftCluster> raft_;
  std::unique_ptr<consensus::BftCluster> bft_;
  std::unique_ptr<sharedlog::SharedLog> shared_log_;
  std::unique_ptr<consensus::PowNetwork> pow_;
};

}  // namespace dicho::systems::runtime

#endif  // DICHO_SYSTEMS_RUNTIME_TRANSPORT_H_
