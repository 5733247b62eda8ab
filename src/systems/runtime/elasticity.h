#ifndef DICHO_SYSTEMS_RUNTIME_ELASTICITY_H_
#define DICHO_SYSTEMS_RUNTIME_ELASTICITY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "consensus/raft.h"
#include "lifecycle/catchup.h"
#include "lifecycle/membership.h"
#include "lifecycle/metrics.h"
#include "lifecycle/snapshot.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "systems/runtime/transport.h"

namespace dicho::systems::runtime {

/// Opt-in replica-elasticity settings shared by the concrete systems.
/// Default-off: with `enabled == false` no tracker is created, no snapshot
/// is ever folded, and no event is ever scheduled — the golden-compat
/// contract (all committed baselines are produced with lifecycle disabled).
struct ElasticityConfig {
  bool enabled = false;
  /// Fold a new content-addressed snapshot every this many applied
  /// consensus entries (raft log entries / ordered blocks / epochs). The
  /// interval is the bench's sweep axis: longer intervals mean a longer
  /// log tail per join and a staler delta base for rejoins.
  uint64_t snapshot_every = 64;
  lifecycle::SnapshotConfig snapshot;
  lifecycle::TransferConfig transfer;
};

/// Per-replica lifecycle state: a shadow copy of the replica's applied
/// key-value state, a content-addressed chunk store, the latest folded
/// snapshot manifest, and the log tail since that fold. One tracker per
/// replica makes any replica a join source, and doubles as the joiner-side
/// sink (restored state seeds a fresh tracker, so a later laggard rejoin
/// delta-syncs against the chunks it already holds).
///
/// The shadow map is the lifecycle layer's common currency across storage
/// engines (B-tree, MPT, versioned LSM): it is fed the exact applied
/// writes, so its StateDigest is the catch-up-correctness oracle the fuzz
/// invariants use.
class ReplicaTracker {
 public:
  /// Fired after each fold with the new anchor; systems hook consensus-log
  /// compaction here (RaftNode::InstallSnapshot on the tracked replica).
  using FoldFn = std::function<void(uint64_t anchor, uint64_t term)>;

  ReplicaTracker(const ElasticityConfig* config,
                 lifecycle::LifecycleMetrics metrics);

  /// Seeds one pre-genesis record (benchmark Load path): straight into the
  /// shadow state, no log entry. Loads bypass the consensus log, so they
  /// can only ever reach a joiner inside snapshot chunks — the manifest is
  /// marked stale and re-folded lazily the next time this tracker serves
  /// as a transfer source.
  void OnLoad(const std::string& key, const std::string& value);

  /// One applied consensus entry: `writes` in apply order, `seq` the
  /// consensus sequence (raft log index / block number), strictly
  /// increasing across calls. `term` is consensus-specific (0 where
  /// meaningless). May fold a snapshot.
  void OnEntry(uint64_t seq, uint64_t term,
               const std::vector<std::pair<std::string, std::string>>& writes);

  /// Installs transferred state (joiner side): replaces the shadow state,
  /// anchors the tracker at (anchor, term), and folds immediately so the
  /// replica can itself serve future joins. Does not fire the fold hook —
  /// admission installs the consensus-level snapshot explicitly.
  void Seed(std::map<std::string, std::string> state, uint64_t anchor,
            uint64_t term);

  void set_on_fold(FoldFn fn) { on_fold_ = std::move(fn); }

  /// Source hooks for SnapshotTransfer. `available` may be null (always
  /// reachable).
  lifecycle::SnapshotTransfer::Source AsSource(std::function<bool()> available);

  void RecordTransfer(const lifecycle::CatchupStats& stats, bool ok) {
    metrics_.RecordTransfer(stats, ok);
  }

  uint64_t applied_seq() const { return applied_seq_; }
  crypto::Digest Digest() const { return lifecycle::StateDigest(state_); }
  const std::map<std::string, std::string>& state() const { return state_; }
  const lifecycle::SnapshotManifest& manifest() const { return manifest_; }
  uint64_t anchor_term() const { return anchor_term_; }
  lifecycle::ChunkStore* store() { return &store_; }
  uint64_t snapshots_taken() const { return snapshots_taken_; }

 private:
  struct SuffixEntry {
    uint64_t seq = 0;
    uint64_t term = 0;
    std::string encoded;  // EncodeChunk of the entry's writes
  };

  void MaybeFold();
  void Fold();

  const ElasticityConfig* config_;
  lifecycle::LifecycleMetrics metrics_;
  std::map<std::string, std::string> state_;
  lifecycle::ChunkStore store_;
  lifecycle::SnapshotManifest manifest_;
  uint64_t anchor_term_ = 0;
  uint64_t applied_seq_ = 0;
  uint64_t last_term_ = 0;
  std::vector<SuffixEntry> suffix_;
  uint64_t snapshots_taken_ = 0;
  /// Loads landed since the last fold: manifest + suffix no longer
  /// reconstruct state_, so a source-side fold must run before serving.
  bool loads_pending_ = false;
  FoldFn on_fold_;
};

/// Outcome of one replica join: the lifecycle transfer(s) that brought the
/// replica its state, ending at `anchor`.
struct JoinReport {
  bool ok = false;
  sim::Time started = 0;
  sim::Time finished = 0;
  /// Consensus sequence the restored state reflects (snapshot anchor plus
  /// the replayed log tail).
  uint64_t anchor = 0;
  uint64_t anchor_term = 0;
  lifecycle::CatchupStats stats;
};

/// Runs the pull-based lifecycle transfer from `source`'s tracker to
/// `joiner`'s over the simulated network: manifest diff against the
/// joiner's chunk store, missing chunks, log tail. On success the restored
/// + replayed state is seeded into the joiner tracker and handed to
/// `install`, which writes it into the real storage engine and admits the
/// replica. On failure `install` fires with report.ok == false and an
/// empty map. Used where there is no consensus membership to change
/// (Fabric peers); Raft groups join through RaftLifecycle.
void StartReplicaJoin(
    sim::Simulator* sim, sim::SimNetwork* net, sim::NodeId source_id,
    sim::NodeId joiner_id, ReplicaTracker* source, ReplicaTracker* joiner,
    const ElasticityConfig& config, std::function<bool()> source_available,
    std::function<void(const JoinReport&,
                       const std::map<std::string, std::string>& state)>
        install);

/// The replica-lifecycle driver of one Raft group: the only code that
/// grows, shrinks or re-syncs a Raft replica set, shared by the systems
/// (etcd, harmonylike on Raft, harmonyshard's shard groups) and the
/// lifecycle fuzz scenarios. It owns one ReplicaTracker per replica: each
/// folds a snapshot every `snapshot_every` applied entries and compacts its
/// own replica's Raft log there, so only a lifecycle transfer — never log
/// back-fill — can carry a replica across an anchor.
///
/// Each phase is a polling state machine that re-runs until its
/// postcondition holds, so leadership churn, rejected proposals and failed
/// transfers only delay it:
///   join    the replica is added unstarted; a transfer from the leader's
///           tracker brings its first state, and a delta transfer follows
///           whenever the leader compacts past it; the add-node change is
///           proposed until it is a member; then it starts. `done` fires
///           once it sits inside the leader's retained log.
///   leave   draining a leader first hands leadership to its most
///           caught-up follower; the remove is proposed until the node is
///           gone.
///   rescue  a maintenance tick sends the same delta transfer to every
///           started member whose commit index fell below the leader's
///           snapshot anchor (a follower cut off across several folds).
///
/// Control steps run as global events (Simulator::ScheduleGlobal, a plain
/// Schedule in single-partition worlds) and node work runs inside the
/// node's PartitionScope, so partitioned worlds replay identically at any
/// thread count. The leader is RaftCluster::leader(), the highest-term
/// claimant: a stale leader cut off by a partition still believes it
/// leads, and a config change proposed there would stall until the
/// partition heals.
class RaftLifecycle {
 public:
  using Writes = std::vector<std::pair<std::string, std::string>>;
  /// Writes a replica's restored state into its storage engine.
  using InstallFn = std::function<void(
      sim::NodeId, const std::map<std::string, std::string>& state)>;
  using JoinDoneFn = std::function<void(const JoinReport&)>;

  /// Tracks every replica of `transport`'s Raft group. `install` may be
  /// null where state is materialized elsewhere (harmonyshard executes on
  /// the entry replica only).
  RaftLifecycle(sim::Simulator* sim, sim::SimNetwork* net,
                Transport* transport, const ElasticityConfig* config,
                const std::string& metrics_prefix, InstallFn install);

  RaftLifecycle(const RaftLifecycle&) = delete;
  RaftLifecycle& operator=(const RaftLifecycle&) = delete;

  /// Arms the maintenance tick; call with the transport's Start(). The
  /// tick re-arms forever, so run a world with elasticity on for a bounded
  /// time (RunFor/RunUntil), never until its queue drains.
  void Start();

  /// Pre-genesis record on every replica (benchmark Load path).
  void OnLoad(const std::string& key, const std::string& value);
  /// One applied entry on `node`. Call it from the Raft apply of `seq`, so
  /// the membership recorded with it is the view at `seq`. An entry at or
  /// below the tracker's position (a restarted replica replaying its log)
  /// only refreshes the shadow state.
  void OnApply(sim::NodeId node, uint64_t seq, const Writes& writes);

  /// Grows the group by `id` (the next id of the transport's span).
  void Join(sim::NodeId id, JoinDoneFn done);
  /// Shrinks the group by `id`; with `drain`, a leading `id` first hands
  /// off leadership. `done` (may be null) fires once the leader's
  /// membership no longer contains it.
  void Leave(sim::NodeId id, bool drain, std::function<void()> done);

  /// The replica's tracker; null for ids outside the group.
  ReplicaTracker* tracker(sim::NodeId id);
  /// Transfers installed on `id` (its join included).
  uint32_t installs(sim::NodeId id) const;

 private:
  struct Replica {
    std::unique_ptr<ReplicaTracker> tracker;
    /// Membership at tracker->applied_seq(): the view a transfer anchored
    /// there hands the receiving replica.
    lifecycle::MembershipView view;
    /// False for a joiner until its first transfer lands.
    bool installed = true;
    bool started = true;
    bool transfer_busy = false;
    uint32_t installs = 0;
    /// Join completion; `report` sums every transfer round.
    JoinDoneFn join_done;
    JoinReport report;
  };

  Replica& Track(sim::NodeId id);
  void Tick();
  void JoinStep(sim::NodeId id);
  void ProposeChange(consensus::RaftNode* leader,
                     lifecycle::ConfigChangeKind kind, sim::NodeId node);
  sim::NodeId DrainTarget(consensus::RaftNode* leader);
  void StartTransfer(sim::NodeId source, sim::NodeId target);
  void FinishTransfer(sim::NodeId id, const lifecycle::MembershipView& view,
                      const lifecycle::TransferResult& result);

  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  Transport* transport_;
  consensus::RaftCluster* cluster_;
  const ElasticityConfig* config_;
  lifecycle::LifecycleMetrics metrics_;
  InstallFn install_;
  std::map<sim::NodeId, Replica> replicas_;
};

}  // namespace dicho::systems::runtime

#endif  // DICHO_SYSTEMS_RUNTIME_ELASTICITY_H_
