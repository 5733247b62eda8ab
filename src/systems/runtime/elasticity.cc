#include "systems/runtime/elasticity.h"

#include <utility>

namespace dicho::systems::runtime {

ReplicaTracker::ReplicaTracker(const ElasticityConfig* config,
                               lifecycle::LifecycleMetrics metrics)
    : config_(config), metrics_(metrics) {}

void ReplicaTracker::OnLoad(const std::string& key, const std::string& value) {
  state_[key] = value;
  loads_pending_ = true;
}

void ReplicaTracker::OnEntry(
    uint64_t seq, uint64_t term,
    const std::vector<std::pair<std::string, std::string>>& writes) {
  for (const auto& [key, value] : writes) state_[key] = value;
  applied_seq_ = seq;
  last_term_ = term;
  suffix_.push_back({seq, term, lifecycle::EncodeChunk(writes)});
  MaybeFold();
}

void ReplicaTracker::MaybeFold() {
  if (applied_seq_ - manifest_.anchor < config_->snapshot_every) return;
  Fold();
}

void ReplicaTracker::Fold() {
  uint64_t bytes_before = store_.bytes_stored();
  size_t chunks_before = store_.chunk_count();
  manifest_ =
      lifecycle::BuildSnapshot(state_, applied_seq_, config_->snapshot,
                               &store_);
  anchor_term_ = last_term_;
  suffix_.clear();
  loads_pending_ = false;
  snapshots_taken_++;
  if (metrics_.snapshots_taken) metrics_.snapshots_taken->Inc();
  if (metrics_.snapshot_bytes) {
    metrics_.snapshot_bytes->Inc(store_.bytes_stored() - bytes_before);
  }
  if (metrics_.snapshot_chunks) {
    metrics_.snapshot_chunks->Inc(store_.chunk_count() - chunks_before);
  }
  if (on_fold_) on_fold_(manifest_.anchor, anchor_term_);
}

void ReplicaTracker::Seed(std::map<std::string, std::string> state,
                          uint64_t anchor, uint64_t term) {
  state_ = std::move(state);
  applied_seq_ = anchor;
  last_term_ = term;
  anchor_term_ = term;
  suffix_.clear();
  loads_pending_ = false;
  // Fold now: unchanged buckets dedup against any chunks this store already
  // holds (the delta-rejoin win), and the replica can serve joins itself.
  manifest_ =
      lifecycle::BuildSnapshot(state_, anchor, config_->snapshot, &store_);
  snapshots_taken_++;
  if (metrics_.snapshots_taken) metrics_.snapshots_taken->Inc();
}

lifecycle::SnapshotTransfer::Source ReplicaTracker::AsSource(
    std::function<bool()> available) {
  lifecycle::SnapshotTransfer::Source src;
  src.available =
      available != nullptr ? std::move(available) : [] { return true; };
  src.manifest = [this] {
    // Loads since the last fold live only in the shadow state; fold now so
    // the manifest + suffix the joiner sees reconstruct state_ exactly.
    if (loads_pending_) Fold();
    return manifest_;
  };
  src.chunks = [this]() -> const lifecycle::ChunkStore* { return &store_; };
  src.log_suffix = [this](uint64_t after) {
    lifecycle::LogSuffix out;
    out.anchor_term = anchor_term_;
    for (const SuffixEntry& entry : suffix_) {
      if (entry.seq > after) {
        out.entries.push_back({entry.seq, entry.term, entry.encoded});
      } else {
        out.anchor_term = entry.term;
      }
    }
    return out;
  };
  return src;
}

namespace {

/// Rebuilds the state a finished transfer carries: the manifest's chunks
/// from `store`, then the shipped log tail replayed on top. Sets `report`'s
/// anchor and anchor term; false when the transfer failed or a chunk is
/// missing.
bool RestoreTransfer(const lifecycle::TransferResult& result,
                     const lifecycle::ChunkStore& store,
                     std::map<std::string, std::string>* state,
                     JoinReport* report) {
  if (!result.ok || !lifecycle::RestoreSnapshot(result.manifest, store, state)) {
    return false;
  }
  report->anchor = result.manifest.anchor;
  report->anchor_term = result.suffix.anchor_term;
  for (const lifecycle::CatchupEntry& entry : result.suffix.entries) {
    std::vector<std::pair<std::string, std::string>> writes;
    if (lifecycle::DecodeChunk(entry.cmd, &writes)) {
      for (const auto& [key, value] : writes) (*state)[key] = value;
    }
    report->anchor = entry.index;
    report->anchor_term = entry.term;
  }
  return true;
}

// Cadence of every control step: join and leave polls and the maintenance
// tick. A transfer aimed at a replica behind a partition fails after
// ElasticityConfig::transfer's attempts, and a later step starts a fresh
// one from whoever leads by then.
constexpr sim::Time kPollInterval = 50 * sim::kMs;

}  // namespace

void StartReplicaJoin(
    sim::Simulator* sim, sim::SimNetwork* net, sim::NodeId source_id,
    sim::NodeId joiner_id, ReplicaTracker* source, ReplicaTracker* joiner,
    const ElasticityConfig& config, std::function<bool()> source_available,
    std::function<void(const JoinReport&,
                       const std::map<std::string, std::string>& state)>
        install) {
  sim::Time started = sim->Now();
  lifecycle::SnapshotTransfer::Start(
      sim, net, source_id, joiner_id,
      source->AsSource(std::move(source_available)), joiner->store(),
      /*joiner_alive=*/[] { return true; }, config.transfer,
      [sim, joiner, install = std::move(install),
       started](lifecycle::TransferResult result) {
        JoinReport report;
        report.started = started;
        report.finished = sim->Now();
        report.stats = result.stats;
        std::map<std::string, std::string> state;
        report.ok = RestoreTransfer(result, *joiner->store(), &state, &report);
        joiner->RecordTransfer(result.stats, report.ok);
        if (!report.ok) {
          install(report, {});
          return;
        }
        joiner->Seed(std::move(state), report.anchor, report.anchor_term);
        install(report, joiner->state());
      });
}

RaftLifecycle::RaftLifecycle(sim::Simulator* sim, sim::SimNetwork* net,
                             Transport* transport,
                             const ElasticityConfig* config,
                             const std::string& metrics_prefix,
                             InstallFn install)
    : sim_(sim),
      net_(net),
      transport_(transport),
      cluster_(transport->raft()),
      config_(config),
      metrics_(lifecycle::LifecycleMetrics::For(sim->metrics(),
                                                metrics_prefix)),
      install_(std::move(install)) {
  for (sim::NodeId id : transport_->node_ids()) Track(id);
}

RaftLifecycle::Replica& RaftLifecycle::Track(sim::NodeId id) {
  Replica& r = replicas_[id];
  r.tracker = std::make_unique<ReplicaTracker>(config_, metrics_);
  consensus::RaftNode* raft = cluster_->node(id);
  r.tracker->set_on_fold([raft](uint64_t anchor, uint64_t term) {
    raft->InstallSnapshot(anchor, term);
  });
  r.view = raft->membership();
  return r;
}

void RaftLifecycle::Start() {
  sim_->ScheduleGlobal(kPollInterval, [this] { Tick(); });
}

void RaftLifecycle::OnLoad(const std::string& key, const std::string& value) {
  for (auto& [id, r] : replicas_) r.tracker->OnLoad(key, value);
}

void RaftLifecycle::OnApply(sim::NodeId node, uint64_t seq,
                            const Writes& writes) {
  Replica& r = replicas_.at(node);
  if (seq <= r.tracker->applied_seq()) {
    for (const auto& [key, value] : writes) r.tracker->OnLoad(key, value);
    return;
  }
  consensus::RaftNode* raft = cluster_->node(node);
  r.view = raft->membership();
  // May fold, which compacts the log this entry lives in.
  r.tracker->OnEntry(seq, raft->EntryTerm(seq), writes);
}

ReplicaTracker* RaftLifecycle::tracker(sim::NodeId id) {
  auto it = replicas_.find(id);
  return it == replicas_.end() ? nullptr : it->second.tracker.get();
}

uint32_t RaftLifecycle::installs(sim::NodeId id) const {
  auto it = replicas_.find(id);
  return it == replicas_.end() ? 0 : it->second.installs;
}

void RaftLifecycle::Tick() {
  // Rescue: a started member whose commit index sits below the leader's
  // snapshot anchor can never be back-filled (those entries are compacted
  // away). The receiver's chunk store still holds earlier rounds' chunks,
  // so each round ships only the buckets dirtied since.
  consensus::RaftNode* leader = cluster_->leader();
  if (leader != nullptr) {
    for (auto& [id, r] : replicas_) {
      consensus::RaftNode* node = cluster_->node(id);
      if (id == leader->id() || !r.started || r.transfer_busy ||
          node->crashed() || node->retired() ||
          node->commit_index() >= leader->snapshot_index() ||
          leader->match_index_of(id) >= leader->snapshot_index()) {
        continue;
      }
      StartTransfer(leader->id(), id);
    }
  }
  sim_->ScheduleGlobal(kPollInterval, [this] { Tick(); });
}

void RaftLifecycle::Join(sim::NodeId id, JoinDoneFn done) {
  if (replicas_.count(id) != 0) return;
  transport_->AddRaftReplica(id);
  Replica& r = Track(id);
  r.installed = false;
  r.started = false;
  r.join_done = std::move(done);
  r.report.started = sim_->Now();
  JoinStep(id);
}

void RaftLifecycle::JoinStep(sim::NodeId id) {
  Replica& r = replicas_.at(id);
  consensus::RaftNode* node = cluster_->node(id);
  consensus::RaftNode* leader = cluster_->leader();
  // A joiner removed before it finished is abandoned.
  bool finished = node->retired();
  if (!finished && leader != nullptr) {
    // State first (loaded records never travel the log, so a joiner must
    // not replay it before a transfer seeded what the log lacks), and again
    // whenever the leader compacted past the joiner.
    if (!r.transfer_busy &&
        (!r.installed || leader->snapshot_index() > node->commit_index())) {
      StartTransfer(leader->id(), id);
    }
    if (!r.installed) {
      // Wait for the first transfer.
    } else if (!leader->membership().Contains(id)) {
      ProposeChange(leader, lifecycle::ConfigChangeKind::kAddNode, id);
    } else {
      if (!r.started) {
        sim::Simulator::PartitionScope scope(sim_, sim_->PartitionOfNode(id));
        node->Start();
        r.started = true;
      }
      // Done once inside the leader's retained log.
      r.report.ok = finished = node->commit_index() >= leader->snapshot_index();
    }
  }
  if (finished) {
    r.report.finished = sim_->Now();
    if (r.join_done != nullptr) r.join_done(r.report);
    return;
  }
  sim_->ScheduleGlobal(kPollInterval, [this, id] { JoinStep(id); });
}

void RaftLifecycle::Leave(sim::NodeId id, bool drain,
                          std::function<void()> done) {
  consensus::RaftNode* leader = cluster_->leader();
  if (leader != nullptr) {
    if (!leader->membership().Contains(id)) {
      if (done != nullptr) done();
      return;
    }
    if (drain && leader->id() == id) {
      // TransferLeadership pushes the backlog to the target, then sends it
      // a TimeoutNow; the removal waits for the hand-off.
      sim::NodeId target = DrainTarget(leader);
      if (target != id) {
        sim::Simulator::PartitionScope scope(sim_, sim_->PartitionOfNode(id));
        leader->TransferLeadership(target);
      }
    } else {
      ProposeChange(leader, lifecycle::ConfigChangeKind::kRemoveNode, id);
    }
  }
  sim_->ScheduleGlobal(kPollInterval,
                       [this, id, drain, done = std::move(done)]() mutable {
                         Leave(id, drain, std::move(done));
                       });
}

void RaftLifecycle::ProposeChange(consensus::RaftNode* leader,
                                  lifecycle::ConfigChangeKind kind,
                                  sim::NodeId node) {
  lifecycle::ConfigChange cc;
  cc.kind = kind;
  cc.node = node;
  sim::Simulator::PartitionScope scope(sim_,
                                       sim_->PartitionOfNode(leader->id()));
  // Rejected while another change is in flight; the next poll retries.
  leader->ProposeConfigChange(cc, [](Status, uint64_t) {});
}

sim::NodeId RaftLifecycle::DrainTarget(consensus::RaftNode* leader) {
  sim::NodeId best = leader->id();
  uint64_t best_match = 0;
  for (sim::NodeId m : leader->membership().members) {
    consensus::RaftNode* node = cluster_->node(m);
    if (m == leader->id() || node == nullptr || node->crashed() ||
        node->retired()) {
      continue;
    }
    uint64_t match = leader->match_index_of(m);
    if (best == leader->id() || match > best_match) {
      best = m;
      best_match = match;
    }
  }
  return best;
}

void RaftLifecycle::StartTransfer(sim::NodeId source, sim::NodeId target) {
  Replica& from = replicas_.at(source);
  replicas_.at(target).transfer_busy = true;
  lifecycle::SnapshotTransfer::Source src;
  lifecycle::MembershipView view = from.view;
  {
    // Freeze the source at its current apply position: manifest (folding
    // pending loads first), log tail and membership stay one consistent
    // triple however far the source moves on mid-transfer. Chunk stores
    // keep old chunks, so the frozen digests stay servable.
    sim::Simulator::PartitionScope scope(sim_, sim_->PartitionOfNode(source));
    consensus::RaftNode* raft = cluster_->node(source);
    src = from.tracker->AsSource([raft] { return !raft->crashed(); });
    lifecycle::SnapshotManifest manifest = src.manifest();
    lifecycle::LogSuffix suffix = src.log_suffix(manifest.anchor);
    src.manifest = [manifest] { return manifest; };
    src.log_suffix = [suffix](uint64_t) { return suffix; };
  }
  consensus::RaftNode* node = cluster_->node(target);
  sim::Simulator::PartitionScope scope(sim_, sim_->PartitionOfNode(target));
  lifecycle::SnapshotTransfer::Start(
      sim_, net_, source, target, std::move(src),
      replicas_.at(target).tracker->store(),
      [node] { return !node->crashed() && !node->retired(); },
      config_->transfer,
      [this, target, view](lifecycle::TransferResult result) {
        FinishTransfer(target, view, result);
      });
}

void RaftLifecycle::FinishTransfer(sim::NodeId id,
                                   const lifecycle::MembershipView& view,
                                   const lifecycle::TransferResult& result) {
  // Runs on the receiver's partition.
  Replica& r = replicas_.at(id);
  r.transfer_busy = false;
  r.report.stats += result.stats;
  std::map<std::string, std::string> state;
  JoinReport round;
  bool ok = RestoreTransfer(result, *r.tracker->store(), &state, &round);
  r.tracker->RecordTransfer(result.stats, ok);
  consensus::RaftNode* node = cluster_->node(id);
  // A rescue that raced normal replication past its anchor is stale.
  if (!ok || (r.installed && round.anchor <= node->commit_index())) return;
  r.tracker->Seed(std::move(state), round.anchor, round.anchor_term);
  if (install_ != nullptr) install_(id, r.tracker->state());
  node->InstallSnapshot(round.anchor, round.anchor_term, view);
  r.view = view;
  r.installed = true;
  r.installs++;
  r.report.anchor = round.anchor;
  r.report.anchor_term = round.anchor_term;
}

}  // namespace dicho::systems::runtime
