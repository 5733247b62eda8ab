#include "consensus/raft.h"

#include <algorithm>
#include <cassert>

#include "obs/trace.h"

namespace dicho::consensus {

namespace {
// Rough wire sizes for traffic accounting.
constexpr uint64_t kVoteMsgBytes = 64;
constexpr uint64_t kAppendHeaderBytes = 64;
constexpr uint64_t kRespBytes = 48;
}  // namespace

RaftNode::RaftNode(sim::Simulator* sim, sim::SimNetwork* net,
                   const sim::CostModel* costs, NodeId id,
                   std::vector<NodeId> peers, RaftConfig config, ApplyFn apply)
    : sim_(sim),
      net_(net),
      costs_(costs),
      id_(id),
      peers_(std::move(peers)),
      config_(config),
      apply_(std::move(apply)),
      cpu_(sim) {
  std::sort(peers_.begin(), peers_.end());
}

void RaftNode::Start() { ArmElectionTimer(); }

void RaftNode::SendTo(NodeId peer, uint64_t bytes,
                      std::function<void()> handler) {
  net_->Send(id_, peer, bytes, std::move(handler));
}

lifecycle::MembershipView RaftNode::membership() const {
  lifecycle::MembershipView view;
  view.version = membership_version_;
  view.members = peers_;
  if (!retired_ && member_) {
    view.members.insert(
        std::lower_bound(view.members.begin(), view.members.end(), id_), id_);
  }
  return view;
}

uint64_t RaftNode::match_index_of(NodeId peer) const {
  auto it = match_index_.find(peer);
  return it == match_index_.end() ? 0 : it->second;
}

void RaftNode::ArmElectionTimer() {
  uint64_t epoch = ++election_epoch_;
  Time timeout =
      config_.election_timeout_min +
      sim_->rng()->NextDouble() *
          (config_.election_timeout_max - config_.election_timeout_min);
  sim_->Schedule(timeout, [this, epoch] { OnElectionTimeout(epoch); });
}

void RaftNode::OnElectionTimeout(uint64_t epoch) {
  if (crashed_ || retired_ || epoch != election_epoch_) return;
  if (role_ == RaftRole::kLeader) return;
  BecomeCandidate();
}

void RaftNode::BecomeFollower(uint64_t term) {
  bool term_changed = term != current_term_;
  current_term_ = term;
  if (term_changed) voted_for_ = -1;
  if (role_ == RaftRole::kLeader) {
    // Fail outstanding proposals: a new leader may still commit them, but
    // this node can no longer confirm.
    for (auto& [index, cb] : pending_) {
      cb(Status::Unavailable("leadership lost"), index);
    }
    pending_.clear();
    config_change_inflight_ = 0;
    transfer_target_ = kNoTransfer;
  }
  role_ = RaftRole::kFollower;
  ArmElectionTimer();
}

void RaftNode::BecomeCandidate() {
  if (retired_) return;
  role_ = RaftRole::kCandidate;
  current_term_++;
  voted_for_ = static_cast<int64_t>(id_);
  votes_ = 1;
  ArmElectionTimer();

  uint64_t term = current_term_;
  uint64_t last_index = log_size();
  uint64_t last_term = LastLogTerm();
  for (NodeId peer : peers_) {
    RaftNode* target = group_.at(peer);
    SendTo(peer, kVoteMsgBytes, [target, me = id_, term, last_index,
                                 last_term] {
      target->HandleRequestVote(me, term, last_index, last_term);
    });
  }
  // Single-node group edge case.
  if (peers_.empty()) BecomeLeader();
}

void RaftNode::HandleRequestVote(NodeId from, uint64_t term,
                                 uint64_t last_log_index,
                                 uint64_t last_log_term) {
  if (crashed_ || retired_) return;
  if (term > current_term_) BecomeFollower(term);
  bool granted = false;
  if (term == current_term_ &&
      (voted_for_ == -1 || voted_for_ == static_cast<int64_t>(from))) {
    // Election restriction: candidate's log must be at least as up to date.
    bool up_to_date =
        last_log_term > LastLogTerm() ||
        (last_log_term == LastLogTerm() && last_log_index >= log_size());
    if (up_to_date) {
      granted = true;
      voted_for_ = static_cast<int64_t>(from);
      ArmElectionTimer();  // granting a vote defers our own candidacy
    }
  }
  uint64_t reply_term = current_term_;
  RaftNode* target = group_.at(from);
  SendTo(from, kRespBytes, [target, me = id_, reply_term, granted] {
    target->HandleVoteResponse(me, reply_term, granted);
  });
}

void RaftNode::HandleVoteResponse(NodeId /*from*/, uint64_t term,
                                  bool granted) {
  if (crashed_) return;
  if (term > current_term_) {
    BecomeFollower(term);
    return;
  }
  if (role_ != RaftRole::kCandidate || term != current_term_ || !granted) {
    return;
  }
  votes_++;
  if (votes_ >= MajoritySize()) BecomeLeader();
}

void RaftNode::BecomeLeader() {
  role_ = RaftRole::kLeader;
  leader_hint_ = id_;
  next_index_.clear();
  match_index_.clear();
  inflight_.clear();
  transfer_target_ = kNoTransfer;
  for (NodeId peer : peers_) {
    next_index_[peer] = log_size() + 1;
    match_index_[peer] = 0;
  }
  // Re-learn the single-in-flight config rule from our own log: an
  // uncommitted config entry inherited from a previous leader blocks new
  // changes until it resolves.
  config_change_inflight_ = 0;
  for (uint64_t i = commit_index_ + 1; i <= log_size(); i++) {
    if (i > snapshot_index_ &&
        lifecycle::IsConfigChangeCommand(*EntryAt(i).cmd)) {
      config_change_inflight_ = i;
    }
  }
  // Raft §8 no-op: an entry of our own term makes the prior-term entries
  // below it committable without client traffic (§5.4.2 forbids counting
  // replicas of an old-term entry toward commit). Every state machine
  // ignores an empty command.
  Propose("", [](Status, uint64_t) {});
  SendHeartbeats();
}

void RaftNode::SendHeartbeats() {
  if (crashed_ || role_ != RaftRole::kLeader) return;
  for (NodeId peer : peers_) {
    SendAppendTo(peer);
  }
  sim_->Schedule(config_.heartbeat_interval, [this, term = current_term_] {
    if (term == current_term_) SendHeartbeats();
  });
}

void RaftNode::Propose(std::string cmd, CommitCallback cb) {
  if (crashed_ || role_ != RaftRole::kLeader) {
    cb(Status::Unavailable("not leader"), 0);
    return;
  }
  log_.push_back(
      {current_term_, std::make_shared<const std::string>(std::move(cmd))});
  uint64_t index = log_size();
  pending_[index] = std::move(cb);
  // Propose timestamps only accumulate while a trace sink is attached: the
  // commit span covers leader propose -> local apply for this index.
  if (sim_->trace_sink() != nullptr) propose_times_[index] = sim_->Now();
  ScheduleFlush();
  if (peers_.empty() || config_.unsafe_commit_without_quorum) {
    commit_index_ = log_size();
    ApplyCommitted();
  }
}

void RaftNode::ProposeConfigChange(const lifecycle::ConfigChange& cc,
                                   CommitCallback cb) {
  if (crashed_ || role_ != RaftRole::kLeader) {
    cb(Status::Unavailable("not leader"), 0);
    return;
  }
  if (config_change_inflight_ != 0 &&
      config_change_inflight_ > commit_index_) {
    cb(Status::Unavailable("config change already in flight"), 0);
    return;
  }
  // Validate against the current view so a committed change is never a
  // no-op (keeps adjacent views exactly one member apart).
  auto view = membership();
  bool present = view.Contains(cc.node);
  if ((cc.kind == lifecycle::ConfigChangeKind::kAddNode && present) ||
      (cc.kind == lifecycle::ConfigChangeKind::kRemoveNode && !present)) {
    cb(Status::InvalidArgument("config change is a no-op"), 0);
    return;
  }
  Propose(lifecycle::FormatConfigChange(cc), std::move(cb));
  config_change_inflight_ = log_size();
}

bool RaftNode::TransferLeadership(NodeId target) {
  if (crashed_ || role_ != RaftRole::kLeader || target == id_) return false;
  if (!std::binary_search(peers_.begin(), peers_.end(), target)) return false;
  transfer_target_ = target;
  MaybeCompleteTransfer(target);
  if (transfer_target_ != kNoTransfer) SendAppendTo(target);
  return true;
}

void RaftNode::MaybeCompleteTransfer(NodeId from) {
  if (from != transfer_target_) return;
  if (match_index_of(from) < log_size()) return;
  // Target is fully caught up: hand over with a TimeoutNow so it campaigns
  // immediately instead of waiting out a randomized timer.
  RaftNode* target = group_.at(from);
  uint64_t term = current_term_;
  transfer_target_ = kNoTransfer;
  SendTo(from, kRespBytes, [target, term] { target->HandleTimeoutNow(term); });
}

void RaftNode::HandleTimeoutNow(uint64_t term) {
  if (crashed_ || retired_ || term != current_term_) return;
  if (role_ == RaftRole::kLeader) return;
  BecomeCandidate();
}

void RaftNode::ScheduleFlush() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  sim_->Schedule(config_.append_interval, [this] {
    flush_scheduled_ = false;
    FlushAppends();
  });
}

void RaftNode::FlushAppends() {
  if (crashed_ || role_ != RaftRole::kLeader) return;
  // Per-entry leader processing (log handling, batching), charged exactly
  // once per entry; the per-follower marshaling cost is charged inside
  // SendAppendTo so streamed re-sends pay it too. Together: the leader CPU
  // + NIC bottleneck that bends etcd's scaling curve (Table 4).
  uint64_t newly_accepted =
      log_size() > flush_processed_ ? log_size() - flush_processed_ : 0;
  flush_processed_ = log_size();
  Time cost = static_cast<Time>(newly_accepted) * costs_->raft_leader_base_us;
  cpu_.Submit(cost, [this, term = current_term_] {
    if (crashed_ || role_ != RaftRole::kLeader || term != current_term_) {
      return;
    }
    for (NodeId peer : peers_) {
      // Only ship to followers that are actually behind — flushing everyone
      // on every wakeup would send O(N^2) redundant batches.
      if (next_index_[peer] <= log_size()) SendAppendTo(peer);
    }
  });
}

void RaftNode::SendAppendTo(NodeId peer) {
  uint64_t next = next_index_[peer];
  // Entries below our snapshot anchor are compacted away; a follower that
  // far behind needs a lifecycle state transfer, not log replay. Probe from
  // the anchor so its InstallSnapshot completion is detected by the normal
  // consistency check.
  if (next <= snapshot_index_) next = next_index_[peer] = snapshot_index_ + 1;
  AppendEntriesArgs args;
  args.term = current_term_;
  args.leader = id_;
  args.prev_index = next - 1;
  args.prev_term = TermAt(args.prev_index);
  args.leader_commit = commit_index_;
  uint64_t bytes = kAppendHeaderBytes;
  // While an entry batch is in flight to this follower, send heartbeats
  // only — re-shipping the backlog every 50 ms snowballs the egress queue.
  auto inflight = inflight_.find(peer);
  bool allow_entries =
      inflight == inflight_.end() ||
      sim_->Now() - inflight->second.since > 4 * config_.heartbeat_interval;
  if (allow_entries) {
    for (uint64_t i = next;
         i <= log_size() && args.entries.size() < config_.max_batch &&
         bytes < config_.max_batch_bytes;
         i++) {
      args.entries.push_back(EntryAt(i));
      bytes += 16 + EntryAt(i).cmd->size();
    }
    if (!args.entries.empty()) {
      inflight_[peer] =
          Inflight{sim_->Now(), args.prev_index + args.entries.size()};
    }
  }
  RaftNode* target = group_.at(peer);
  if (args.entries.empty()) {
    SendTo(peer, bytes, [target, args = std::move(args)] {
      target->HandleAppendEntries(args);
    });
    return;
  }
  // Per-entry marshaling work for this follower occupies the leader CPU
  // before the batch hits the wire.
  Time cost = static_cast<Time>(args.entries.size()) *
              costs_->raft_leader_per_follower_us;
  cpu_.Submit(cost, [this, peer, target, bytes,
                     args = std::move(args)]() mutable {
    if (crashed_ || role_ != RaftRole::kLeader) return;
    SendTo(peer, bytes, [target, args = std::move(args)] {
      target->HandleAppendEntries(args);
    });
  });
}

void RaftNode::HandleAppendEntries(const AppendEntriesArgs& args) {
  if (crashed_) return;
  if (args.term > current_term_ ||
      (args.term == current_term_ && role_ == RaftRole::kCandidate)) {
    BecomeFollower(args.term);
  }
  bool success = false;
  uint64_t match = 0;
  // On failure, where the leader should back its nextIndex off to: our log
  // end when the probe overshot it (lets a freshly snapshotted joiner pull
  // the leader straight to its anchor), else one below the probe.
  uint64_t hint = 0;
  if (args.term == current_term_) {
    leader_hint_ = args.leader;
    ArmElectionTimer();
    uint64_t prev_index = args.prev_index;
    uint64_t prev_term = args.prev_term;
    size_t skip = 0;
    if (prev_index < snapshot_index_) {
      // The probe starts below our snapshot anchor: everything through the
      // anchor is committed state, so only entries past it are of interest.
      skip = std::min<size_t>(args.entries.size(),
                              static_cast<size_t>(snapshot_index_ - prev_index));
      prev_index = snapshot_index_;
      prev_term = snapshot_term_;
    }
    // Log consistency check.
    if (prev_index == 0 ||
        (prev_index <= log_size() && TermAt(prev_index) == prev_term)) {
      success = true;
      // Append/overwrite entries.
      uint64_t index = prev_index;
      for (size_t k = skip; k < args.entries.size(); k++) {
        const auto& entry = args.entries[k];
        index++;
        if (index <= log_size()) {
          if (EntryAt(index).term != entry.term) {
            log_.resize(index - snapshot_index_ - 1);  // conflict: truncate
            log_.push_back(entry);
          }
        } else {
          log_.push_back(entry);
        }
      }
      match = args.prev_index + args.entries.size();
      if (args.leader_commit > commit_index_) {
        // Commit only up to the last entry this RPC proved consistent with
        // the leader (Raft §5.3: "min(leaderCommit, index of last new
        // entry)") — log_size() here would let an empty heartbeat commit a
        // conflicting suffix that has not been reconciled yet.
        uint64_t new_commit = std::min<uint64_t>(args.leader_commit, match);
        if (new_commit > commit_index_) {
          commit_index_ = new_commit;
          ApplyCommitted();
        }
      }
    } else {
      hint = prev_index > log_size() ? log_size()
                                     : (prev_index == 0 ? 0 : prev_index - 1);
    }
  }
  uint64_t reply_term = current_term_;
  RaftNode* target = group_.at(args.leader);
  // Follower-side processing cost.
  Time cost = costs_->msg_handling_us;
  cpu_.Submit(cost, [this, target, leader = args.leader, reply_term, success,
                     match, hint] {
    if (crashed_) return;
    SendTo(leader, kRespBytes,
           [target, me = id_, reply_term, success, match, hint] {
             target->HandleAppendResponse(me, reply_term, success, match, hint);
           });
  });
}

void RaftNode::HandleAppendResponse(NodeId from, uint64_t term, bool success,
                                    uint64_t match_index, uint64_t hint) {
  if (crashed_) return;
  if (term > current_term_) {
    BecomeFollower(term);
    return;
  }
  if (role_ != RaftRole::kLeader || term != current_term_) return;
  if (match_index_.find(from) == match_index_.end()) return;  // removed peer
  auto inflight = inflight_.find(from);
  if (inflight != inflight_.end() &&
      (!success || match_index >= inflight->second.through)) {
    inflight_.erase(inflight);  // the batch (or its rejection) came back
  }
  if (success) {
    if (match_index > match_index_[from]) {
      match_index_[from] = match_index;
      next_index_[from] = match_index + 1;
      AdvanceCommit();
      MaybeCompleteTransfer(from);
    }
    // More backlog for this follower and nothing in flight? Stream the next
    // batch. (If a batch is still in flight, its ack will trigger the next
    // ship — re-sending here would ping-pong empty appends at RTT speed.)
    if (next_index_[from] <= log_size() &&
        inflight_.find(from) == inflight_.end()) {
      SendAppendTo(from);
    }
  } else {
    // Back off nextIndex and retry; the hint (follower log end) skips the
    // one-by-one walk for far-behind or freshly snapshotted followers.
    uint64_t next = next_index_[from];
    if (next > 1) next--;
    if (hint + 1 < next) next = hint + 1;
    next_index_[from] = next;
    if (next > snapshot_index_) {
      SendAppendTo(from);
    }
    // else: the follower needs entries we compacted away — a lifecycle
    // state transfer has to rescue it; heartbeats keep probing meanwhile.
  }
}

void RaftNode::AdvanceCommit() {
  // Find the highest index replicated on a majority with entry.term ==
  // current term (Raft commit rule §5.4.2).
  std::vector<uint64_t> matches;
  matches.push_back(log_size());  // self
  for (const auto& [peer, match] : match_index_) matches.push_back(match);
  std::sort(matches.begin(), matches.end(), std::greater<>());
  uint64_t majority_match = matches[MajoritySize() - 1];
  if (majority_match > commit_index_ &&
      TermAt(majority_match) == current_term_) {
    commit_index_ = majority_match;
    ApplyCommitted();
  }
}

void RaftNode::ApplyCommitted() {
  while (last_applied_ < commit_index_) {
    last_applied_++;
    // Held by value: apply_ may compact the log entry that owns it.
    std::shared_ptr<const std::string> cmd = EntryAt(last_applied_).cmd;
    if (!cmd->empty() && lifecycle::IsConfigChangeCommand(*cmd)) {
      ApplyConfigEntry(*cmd);
    }
    if (apply_) apply_(last_applied_, *cmd);
    if (!propose_times_.empty()) {
      auto span = propose_times_.find(last_applied_);
      if (span != propose_times_.end()) {
        obs::EmitSpan(sim_, "raft.commit", "consensus", id_, last_applied_,
                      span->second, sim_->Now());
        propose_times_.erase(span);
      }
    }
    auto it = pending_.find(last_applied_);
    if (it != pending_.end()) {
      it->second(Status::Ok(), last_applied_);
      pending_.erase(it);
    }
    if (config_change_inflight_ != 0 &&
        last_applied_ >= config_change_inflight_) {
      config_change_inflight_ = 0;
    }
  }
}

void RaftNode::ApplyConfigEntry(const std::string& cmd) {
  // Simplification vs. Raft §6 (documented in DESIGN.md §2f): changes take
  // effect when *applied* rather than when appended. With the
  // single-in-flight rule every replica transitions at the same log index,
  // and adjacent views differ by one member, so any two quorums that can
  // commit across the change intersect — the membership invariant checker
  // verifies exactly this.
  lifecycle::ConfigChange cc;
  if (!lifecycle::ParseConfigChange(cmd, &cc)) return;
  if (cc.kind == lifecycle::ConfigChangeKind::kAddNode) {
    if (cc.node == id_) {
      member_ = true;  // our own admission committed
    } else if (!std::binary_search(peers_.begin(), peers_.end(), cc.node)) {
      peers_.insert(std::lower_bound(peers_.begin(), peers_.end(), cc.node),
                    cc.node);
      if (role_ == RaftRole::kLeader) {
        next_index_[cc.node] = log_size() + 1;
        match_index_[cc.node] = 0;
      }
    }
  } else {
    if (cc.node == id_) {
      // We were removed: retire. Keep serving reads/catch-up but never
      // campaign or vote again (avoids the §6 disruptive-server problem).
      retired_ = true;
      if (role_ == RaftRole::kLeader) {
        for (auto& [index, cb] : pending_) {
          cb(Status::Unavailable("removed from group"), index);
        }
        pending_.clear();
      }
      role_ = RaftRole::kFollower;
      election_epoch_++;  // cancel any armed election timer
      transfer_target_ = kNoTransfer;
      config_change_inflight_ = 0;
    } else {
      auto it = std::lower_bound(peers_.begin(), peers_.end(), cc.node);
      if (it != peers_.end() && *it == cc.node) {
        peers_.erase(it);
        next_index_.erase(cc.node);
        match_index_.erase(cc.node);
        inflight_.erase(cc.node);
        if (transfer_target_ == cc.node) transfer_target_ = kNoTransfer;
        // Quorum shrank: entries waiting on the removed node's ack may now
        // be committable.
        if (role_ == RaftRole::kLeader) AdvanceCommit();
      }
    }
  }
  membership_version_++;
  if (on_config_change_) on_config_change_(membership());
}

void RaftNode::InstallSnapshot(uint64_t last_index, uint64_t last_term) {
  if (crashed_) return;
  if (last_index <= snapshot_index_) return;
  if (last_index <= last_applied_) {
    // Self-compaction: the caller snapshotted this node's own applied state
    // through last_index, so the prefix is redundant. Cursors stay put —
    // everything up to the anchor was already committed and applied here.
    snapshot_term_ = TermAt(last_index);
    log_.erase(log_.begin(),
               log_.begin() +
                   static_cast<ptrdiff_t>(last_index - snapshot_index_));
    snapshot_index_ = last_index;
    return;
  }
  // Committed-but-unapplied entries must still flow through apply_; an
  // install that skipped them would lose state-machine effects.
  if (last_index <= commit_index_) return;
  if (log_size() >= last_index && TermAt(last_index) == last_term) {
    // Retain the suffix past the anchor (it is consistent with the
    // snapshot's history).
    log_.erase(log_.begin(),
               log_.begin() +
                   static_cast<ptrdiff_t>(last_index - snapshot_index_));
  } else {
    log_.clear();
  }
  snapshot_index_ = last_index;
  snapshot_term_ = last_term;
  commit_index_ = last_index;
  last_applied_ = last_index;
  if (flush_processed_ < last_index) flush_processed_ = last_index;
}

void RaftNode::InstallSnapshot(uint64_t last_index, uint64_t last_term,
                               const lifecycle::MembershipView& view) {
  uint64_t before = snapshot_index_;
  InstallSnapshot(last_index, last_term);
  if (snapshot_index_ != last_index || last_index == before) return;
  // The snapshot's history includes every config change up to the anchor:
  // adopt the source's membership so this node's version numbering aligns
  // with replicas that applied those changes from the log.
  if (view.version > membership_version_) {
    peers_.clear();
    for (NodeId m : view.members) {
      if (m != id_) peers_.push_back(m);
    }
    std::sort(peers_.begin(), peers_.end());
    membership_version_ = view.version;
    if (view.Contains(id_)) {
      member_ = true;
    } else if (member_ && !retired_) {
      // The adopted history removed us: the snapshot jumped past our own
      // "#cfg rm" entry, so take the retirement it implies — otherwise we
      // would keep reporting ourselves inside views the group agrees we
      // left, and worse, keep campaigning as a §6 disruptive server.
      retired_ = true;
      for (auto& [index, cb] : pending_) {
        cb(Status::Unavailable("removed from group"), index);
      }
      pending_.clear();
      role_ = RaftRole::kFollower;
      election_epoch_++;  // cancel any armed election timer
      transfer_target_ = kNoTransfer;
      config_change_inflight_ = 0;
      if (on_config_change_) on_config_change_(membership());
    }
    // No on_config_change_ on plain adoption: for a joiner the adopted view
    // predates its admission (its own "#cfg add" commits later), so
    // reporting members+self at this version would contradict what the
    // original replicas report. The retirement branch above is the
    // exception — there the adopted view minus self IS this node's honest
    // report, and the driver needs the signal to stop steering it.
  }
}

void RaftNode::Crash() {
  crashed_ = true;
  net_->SetNodeDown(id_, true);
  // Volatile leader state is lost; fail outstanding callbacks.
  for (auto& [index, cb] : pending_) {
    cb(Status::Unavailable("node crashed"), index);
  }
  pending_.clear();
  propose_times_.clear();
  cpu_.ResetBacklog();
}

void RaftNode::Restart() {
  crashed_ = false;
  net_->SetNodeDown(id_, false);
  role_ = RaftRole::kFollower;
  votes_ = 0;
  // Re-learn from leader; applied state is volatile here. A compacted log
  // can never re-apply below its anchor, so restart from the snapshot.
  commit_index_ = snapshot_index_;
  last_applied_ = snapshot_index_;
  flush_scheduled_ = false;
  next_index_.clear();
  match_index_.clear();
  transfer_target_ = kNoTransfer;
  config_change_inflight_ = 0;
  if (!retired_) ArmElectionTimer();
}

std::unique_ptr<RaftCluster> RaftCluster::Create(
    sim::Simulator* sim, sim::SimNetwork* net, const sim::CostModel* costs,
    const std::vector<NodeId>& ids, RaftConfig config,
    std::function<void(NodeId, uint64_t, const std::string&)> apply) {
  auto cluster = std::unique_ptr<RaftCluster>(new RaftCluster());
  cluster->sim_ = sim;
  cluster->net_ = net;
  cluster->costs_ = costs;
  cluster->config_ = config;
  cluster->apply_ = apply;
  for (NodeId id : ids) {
    std::vector<NodeId> peers;
    for (NodeId other : ids) {
      if (other != id) peers.push_back(other);
    }
    RaftNode::ApplyFn node_apply;
    if (apply) {
      node_apply = [apply, id](uint64_t index, const std::string& cmd) {
        apply(id, index, cmd);
      };
    }
    // Construct on the node's partition: in a partitioned world each node's
    // setup-time scheduling and RNG use its own partition stream.
    dicho::sim::Simulator::PartitionScope scope(sim, sim->PartitionOfNode(id));
    cluster->nodes_[id] = std::make_unique<RaftNode>(
        sim, net, costs, id, std::move(peers), config, std::move(node_apply));
  }
  std::map<NodeId, RaftNode*> group;
  for (auto& [id, node] : cluster->nodes_) group[id] = node.get();
  for (auto& [id, node] : cluster->nodes_) node->SetGroup(group);
  return cluster;
}

RaftNode* RaftCluster::AddNode(NodeId id, const std::vector<NodeId>& peers) {
  auto it = nodes_.find(id);
  if (it != nodes_.end()) return it->second.get();
  std::vector<NodeId> others;
  for (NodeId p : peers) {
    if (p != id) others.push_back(p);
  }
  RaftNode::ApplyFn node_apply;
  if (apply_) {
    node_apply = [apply = apply_, id](uint64_t index, const std::string& cmd) {
      apply(id, index, cmd);
    };
  }
  RaftNode* raw;
  {
    dicho::sim::Simulator::PartitionScope scope(sim_,
                                                sim_->PartitionOfNode(id));
    auto node = std::make_unique<RaftNode>(sim_, net_, costs_, id,
                                           std::move(others), config_,
                                           std::move(node_apply));
    raw = node.get();
    nodes_[id] = std::move(node);
  }
  // A joiner is not part of the group until its config change commits.
  raw->MarkJoining();
  // Wire the newcomer into every group map (group maps are supersets of the
  // live membership; message targets are always resolved through them).
  std::map<NodeId, RaftNode*> group;
  for (auto& [nid, node] : nodes_) group[nid] = node.get();
  for (auto& [nid, node] : nodes_) node->SetGroup(group);
  return raw;
}

RaftNode* RaftCluster::leader() {
  RaftNode* best = nullptr;
  for (auto& [id, node] : nodes_) {
    if (!node->IsLeader() || node->retired()) continue;
    if (best == nullptr || node->current_term() > best->current_term()) {
      best = node.get();
    }
  }
  return best;
}

std::vector<RaftNode*> RaftCluster::all() {
  std::vector<RaftNode*> out;
  for (auto& [id, node] : nodes_) out.push_back(node.get());
  return out;
}

void RaftCluster::StartAll() {
  for (auto& [id, node] : nodes_) {
    dicho::sim::Simulator::PartitionScope scope(sim_,
                                                sim_->PartitionOfNode(id));
    node->Start();
  }
}

}  // namespace dicho::consensus
