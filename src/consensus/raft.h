#ifndef DICHO_CONSENSUS_RAFT_H_
#define DICHO_CONSENSUS_RAFT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "lifecycle/membership.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dicho::consensus {

using sim::NodeId;
using sim::Time;

/// Raft timing/batching parameters. Defaults model an etcd-like LAN
/// deployment.
struct RaftConfig {
  Time election_timeout_min = 150 * sim::kMs;
  Time election_timeout_max = 300 * sim::kMs;
  Time heartbeat_interval = 50 * sim::kMs;
  /// Proposals are micro-batched into one AppendEntries flush per window.
  Time append_interval = 1 * sim::kMs;
  size_t max_batch = 2000;
  /// Cap on one AppendEntries payload (etcd's max message size idiom).
  uint64_t max_batch_bytes = 1ull << 20;
  /// TESTING ONLY — deliberately broken commit rule: the leader commits and
  /// applies an entry the moment it is appended locally, without waiting for
  /// majority replication. Used by the simulation-test harness to validate
  /// that its invariant checkers catch real safety bugs (state-machine
  /// divergence after partitions/crashes). Never enable outside tests.
  bool unsafe_commit_without_quorum = false;
};

enum class RaftRole { kFollower, kCandidate, kLeader };

/// One Raft replica (Ongaro & Ousterhout) as a deterministic event-driven
/// state machine on the simulator: randomized elections, a §8 no-op from
/// every fresh leader (so prior-term entries commit without client
/// traffic), log replication with per-follower nextIndex backtracking that
/// jumps to the follower's reported log end, majority commit, crash/restart
/// with persistent (term, votedFor, log) state. CPU costs for replication
/// work are charged to the node's CpuResource from the CostModel, which is
/// what makes the leader the throughput bottleneck as the group grows
/// (paper Table 4, etcd row).
///
/// Lifecycle extensions (all inert until used, so pre-lifecycle worlds are
/// byte-identical):
///   * Log-prefix compaction: InstallSnapshot() anchors the log at a
///     snapshot index/term pair; the replicated suffix lives above it.
///   * Single-server membership change (Raft §6): "#cfg add/rm <id>"
///     commands travel the log like any entry and re-shape `peers_` when
///     applied. One change may be in flight at a time, which keeps
///     adjacent configurations quorum-intersecting.
///   * Leader transfer: drain a leader before removal by pushing its
///     backlog to a target and sending it a TimeoutNow.
class RaftNode {
 public:
  /// Applied exactly once per committed entry, in log order, on every
  /// live replica.
  using ApplyFn = std::function<void(uint64_t index, const std::string& cmd)>;
  /// Completion for Propose: Ok + log index once committed, or an error
  /// (leadership lost, not leader).
  using CommitCallback = std::function<void(Status, uint64_t index)>;
  /// Fired when a committed config change re-shapes this node's view.
  using ConfigChangeFn = std::function<void(const lifecycle::MembershipView&)>;

  RaftNode(sim::Simulator* sim, sim::SimNetwork* net,
           const sim::CostModel* costs, NodeId id, std::vector<NodeId> peers,
           RaftConfig config, ApplyFn apply);

  RaftNode(const RaftNode&) = delete;
  RaftNode& operator=(const RaftNode&) = delete;

  /// Wires up direct pointers to the other replicas (single-process sim).
  void SetGroup(std::map<NodeId, RaftNode*> group) { group_ = std::move(group); }

  /// Arms the election timer; call once on every node after SetGroup.
  void Start();

  /// Leader-only: replicate `cmd`; `cb` fires on commit or when leadership
  /// is lost. On a non-leader fails immediately with Unavailable. The
  /// command becomes one immutable buffer that every log and AppendEntries
  /// batch holding it shares.
  void Propose(std::string cmd, CommitCallback cb);

  /// Failure injection.
  void Crash();
  void Restart();

  // Lifecycle ----------------------------------------------------------------
  /// Compacts this node's log below (last_index, last_term): the caller has
  /// installed a state snapshot covering that prefix, so the entries are
  /// discarded and commit/apply cursors jump to the anchor. A suffix that
  /// extends past the anchor with a matching anchor term is retained.
  /// No-op when the node already committed past `last_index`.
  void InstallSnapshot(uint64_t last_index, uint64_t last_term);
  /// Snapshot install that also adopts the source's membership view (a
  /// snapshot's history includes every config change up to its anchor, so a
  /// joiner must take the member set and version along with the state —
  /// otherwise its config version numbering drifts from the group's).
  void InstallSnapshot(uint64_t last_index, uint64_t last_term,
                       const lifecycle::MembershipView& view);

  /// Marks this node as a joiner that is not yet part of the group: its
  /// reported membership() excludes itself until a committed config change
  /// (or an adopted snapshot view) admits it. Without this a joiner
  /// replaying config entries that predate its own admission would report
  /// views containing itself at versions where the group does not — a false
  /// membership-agreement violation. RaftCluster::AddNode sets it.
  void MarkJoining() { member_ = false; }

  /// Leader-only, single in flight: replicate a membership change. The
  /// callback fires when the change commits (it takes effect on each
  /// replica as the entry is applied).
  void ProposeConfigChange(const lifecycle::ConfigChange& cc,
                           CommitCallback cb);

  /// Leader-only: push our backlog to `target` and hand it leadership via
  /// TimeoutNow once caught up (the §6 drain used before removing a
  /// leader). Returns false when not leader or target unknown.
  bool TransferLeadership(NodeId target);

  /// Observer for committed membership changes (testing / lifecycle
  /// managers).
  void set_on_config_change(ConfigChangeFn fn) {
    on_config_change_ = std::move(fn);
  }

  // Introspection ------------------------------------------------------------
  NodeId id() const { return id_; }
  RaftRole role() const { return role_; }
  bool IsLeader() const { return role_ == RaftRole::kLeader && !crashed_; }
  bool crashed() const { return crashed_; }
  /// True once a committed config change removed this node: it stops
  /// campaigning and voting but keeps answering catch-up reads.
  bool retired() const { return retired_; }
  uint64_t current_term() const { return current_term_; }
  uint64_t commit_index() const { return commit_index_; }
  uint64_t last_applied() const { return last_applied_; }
  /// Absolute index of the last log entry (compaction-aware).
  uint64_t log_size() const { return snapshot_index_ + log_.size(); }
  uint64_t snapshot_index() const { return snapshot_index_; }
  uint64_t snapshot_term() const { return snapshot_term_; }
  NodeId leader_hint() const { return leader_hint_; }
  sim::CpuResource* cpu() { return &cpu_; }
  const RaftConfig& config() const { return config_; }
  /// This node's current view of the group (self + peers, sorted), stamped
  /// with the number of config changes applied.
  lifecycle::MembershipView membership() const;
  uint64_t membership_version() const { return membership_version_; }
  /// Leader-side replication progress for `peer` (0 when unknown) — the
  /// laggard detector's input.
  uint64_t match_index_of(NodeId peer) const;

  /// Committed command at 1-based absolute log index (test oracle).
  /// Precondition: index > snapshot_index() — compacted entries are gone.
  const std::string& CommittedEntry(uint64_t index) const {
    return *CommittedCommand(index);
  }
  /// The shared buffer behind CommittedEntry(index): the one every log and
  /// AppendEntries holding the entry points at. An apply callback can keep
  /// it to reference the command's bytes without copying them.
  /// Precondition: index > snapshot_index().
  const std::shared_ptr<const std::string>& CommittedCommand(
      uint64_t index) const {
    return log_[index - snapshot_index_ - 1].cmd;
  }
  /// Term of the entry at 1-based absolute index (invariant checkers).
  /// Precondition: index > snapshot_index().
  uint64_t EntryTerm(uint64_t index) const {
    return log_[index - snapshot_index_ - 1].term;
  }

 private:
  /// Copying an entry copies the pointer: the leader's log, in-flight
  /// batches and follower logs share each command's bytes.
  struct LogEntry {
    uint64_t term;
    std::shared_ptr<const std::string> cmd;
  };
  struct AppendEntriesArgs {
    uint64_t term;
    NodeId leader;
    uint64_t prev_index;
    uint64_t prev_term;
    std::vector<LogEntry> entries;
    uint64_t leader_commit;
  };

  void BecomeFollower(uint64_t term);
  void BecomeCandidate();
  void BecomeLeader();
  void ArmElectionTimer();
  void OnElectionTimeout(uint64_t epoch);
  void SendHeartbeats();
  void ScheduleFlush();
  void FlushAppends();
  void SendAppendTo(NodeId peer);
  void AdvanceCommit();
  void ApplyCommitted();
  void ApplyConfigEntry(const std::string& cmd);
  void HandleTimeoutNow(uint64_t term);
  void MaybeCompleteTransfer(NodeId from);

  void HandleRequestVote(NodeId from, uint64_t term, uint64_t last_log_index,
                         uint64_t last_log_term);
  void HandleVoteResponse(NodeId from, uint64_t term, bool granted);
  void HandleAppendEntries(const AppendEntriesArgs& args);
  void HandleAppendResponse(NodeId from, uint64_t term, bool success,
                            uint64_t match_index, uint64_t hint);

  /// Term of the entry at absolute `index`; snapshot_term_ at the anchor, 0
  /// at index 0. Precondition: index >= snapshot_index_.
  uint64_t TermAt(uint64_t index) const {
    if (index == snapshot_index_) return snapshot_term_;
    return index == 0 ? 0 : log_[index - snapshot_index_ - 1].term;
  }
  const LogEntry& EntryAt(uint64_t index) const {
    return log_[index - snapshot_index_ - 1];
  }
  uint64_t LastLogTerm() const {
    return log_.empty() ? snapshot_term_ : log_.back().term;
  }
  size_t MajoritySize() const { return (peers_.size() + 1) / 2 + 1; }
  void SendTo(NodeId peer, uint64_t bytes, std::function<void()> handler);

  sim::Simulator* sim_;
  sim::SimNetwork* net_;
  const sim::CostModel* costs_;
  NodeId id_;
  std::vector<NodeId> peers_;  // excluding self; re-shaped by config changes
  RaftConfig config_;
  ApplyFn apply_;
  std::map<NodeId, RaftNode*> group_;
  sim::CpuResource cpu_;

  // Persistent state (survives Crash/Restart).
  uint64_t current_term_ = 0;
  int64_t voted_for_ = -1;
  std::vector<LogEntry> log_;  // absolute index i lives at log_[i-snap-1]
  uint64_t snapshot_index_ = 0;  // log compacted through this absolute index
  uint64_t snapshot_term_ = 0;
  uint64_t membership_version_ = 0;  // committed config changes applied
  bool retired_ = false;             // removed from the group by config
  bool member_ = true;               // false for a joiner pre-admission

  // Volatile state.
  RaftRole role_ = RaftRole::kFollower;
  bool crashed_ = false;
  uint64_t commit_index_ = 0;
  uint64_t last_applied_ = 0;
  NodeId leader_hint_ = 0;
  uint64_t election_epoch_ = 0;  // invalidates stale timers
  size_t votes_ = 0;
  ConfigChangeFn on_config_change_;

  // Leader state.
  std::map<NodeId, uint64_t> next_index_;
  std::map<NodeId, uint64_t> match_index_;
  // In-flight tracking (etcd's Progress): while an entry-carrying append is
  // unacknowledged, further sends stay empty (heartbeats) instead of
  // re-shipping the backlog. Tracks when the batch was sent (loss recovery
  // timeout) and through which index it extends (so heartbeat acks don't
  // clear it).
  struct Inflight {
    Time since = 0;
    uint64_t through = 0;
  };
  std::map<NodeId, Inflight> inflight_;
  std::map<uint64_t, CommitCallback> pending_;  // log index -> callback
  /// Absolute log index of the uncommitted config-change entry this leader
  /// knows about (0 = none). Enforces the single-in-flight §6 rule.
  uint64_t config_change_inflight_ = 0;
  /// Leader-transfer target awaiting catch-up + TimeoutNow. The "none"
  /// marker is not 0: node 0 is a valid transfer target.
  static constexpr NodeId kNoTransfer = ~NodeId{0};
  NodeId transfer_target_ = kNoTransfer;
  /// Leader-side propose times for the "raft.commit" trace span; populated
  /// only while the simulator carries a trace sink, so untraced runs never
  /// touch it.
  std::map<uint64_t, Time> propose_times_;
  bool flush_scheduled_ = false;
  uint64_t flush_processed_ = 0;  // entries whose base CPU cost was charged
};

/// Convenience owner for a whole Raft group on one simulator.
class RaftCluster {
 public:
  /// Builds a cluster where every node shares one apply function that also
  /// receives the node id.
  static std::unique_ptr<RaftCluster> Create(
      sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
      const std::vector<NodeId>& ids, RaftConfig config,
      std::function<void(NodeId, uint64_t, const std::string&)> apply);

  RaftNode* node(NodeId id) {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second.get();
  }
  /// The live, non-retired leader of the highest term, or nullptr if none
  /// (unstable period). A leader cut off by a partition still believes it
  /// leads; its successor's higher term wins.
  RaftNode* leader();
  std::vector<RaftNode*> all();
  /// Starts every node under its partition's scope, so election timers in a
  /// partitioned world draw from per-partition RNG streams.
  void StartAll();

  /// Lifecycle: constructs a node joining an existing group. `peers` is the
  /// membership the joiner believes in (typically the current view minus
  /// itself). The node is wired into every group map but NOT started —
  /// callers install a snapshot first, then Start() it under its partition
  /// scope. Returns the existing node if `id` is already present.
  RaftNode* AddNode(NodeId id, const std::vector<NodeId>& peers);

 private:
  RaftCluster() = default;
  sim::Simulator* sim_ = nullptr;
  sim::SimNetwork* net_ = nullptr;
  const sim::CostModel* costs_ = nullptr;
  RaftConfig config_{};
  std::function<void(NodeId, uint64_t, const std::string&)> apply_;
  std::map<NodeId, std::unique_ptr<RaftNode>> nodes_;
};

}  // namespace dicho::consensus

#endif  // DICHO_CONSENSUS_RAFT_H_
