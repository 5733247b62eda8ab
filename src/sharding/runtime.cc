#include "sharding/runtime.h"

#include <algorithm>
#include <utility>

namespace dicho::sharding {

namespace {

/// Base view of one shard's execution: owned keys resolve against the
/// shard's committed state, remote keys against the epoch's merged
/// ReadForward snapshot. A remote key absent from the snapshot was absent
/// from its owner's state — NotFound is agreed, not guessed.
class ShardBaseView : public contract::StateView {
 public:
  ShardBaseView(const adt::MerklePatriciaTrie* state,
                const Partitioner* partitioner, uint32_t shard,
                const std::map<std::string, std::string>* remote)
      : state_(state),
        partitioner_(partitioner),
        shard_(shard),
        remote_(remote) {}

  Status Get(const Slice& key, std::string* value) override {
    if (partitioner_->ShardOf(key) == shard_) return state_->Get(key, value);
    auto it = remote_->find(key.ToString());
    if (it == remote_->end()) return Status::NotFound();
    *value = it->second;
    return Status::Ok();
  }

 private:
  const adt::MerklePatriciaTrie* state_;
  const Partitioner* partitioner_;
  uint32_t shard_;
  const std::map<std::string, std::string>* remote_;
};

void AppendSized(std::string* out, const std::string& s) {
  *out += std::to_string(s.size());
  *out += ':';
  *out += s;
}

bool ParseSized(const std::string& data, size_t* pos, std::string* out) {
  size_t colon = data.find(':', *pos);
  if (colon == std::string::npos) return false;
  uint64_t len = 0;
  for (size_t i = *pos; i < colon; i++) {
    if (data[i] < '0' || data[i] > '9') return false;
    len = len * 10 + static_cast<uint64_t>(data[i] - '0');
  }
  if (colon + 1 + len > data.size()) return false;
  out->assign(data, colon + 1, len);
  *pos = colon + 1 + len;
  return true;
}

}  // namespace

// --- ShardPlanner -----------------------------------------------------------

TxnShardPlan ShardPlanner::Plan(const core::TxnRequest& request) const {
  TxnShardPlan plan;
  plan.keys = contract::StaticKeySet(request);
  std::sort(plan.keys.begin(), plan.keys.end());
  plan.keys.erase(std::unique(plan.keys.begin(), plan.keys.end()),
                  plan.keys.end());
  for (const auto& key : plan.keys) {
    plan.keys_by_shard[partitioner_->ShardOf(key)].push_back(key);
  }
  for (const auto& [shard, keys] : plan.keys_by_shard) {
    plan.shards.push_back(shard);
  }
  if (plan.shards.empty()) plan.shards.push_back(0);
  return plan;
}

// --- EpochBatch -------------------------------------------------------------

std::string EpochBatch::Serialize() const {
  std::string out = std::to_string(number) + " " +
                    std::to_string(txns.size()) + "\n";
  for (const auto& txn : txns) AppendSized(&out, txn.Serialize());
  return out;
}

bool EpochBatch::Deserialize(const std::string& data, EpochBatch* out) {
  size_t space = data.find(' ');
  size_t newline = data.find('\n');
  if (space == std::string::npos || newline == std::string::npos ||
      space > newline) {
    return false;
  }
  out->number = std::stoull(data.substr(0, space));
  uint64_t count = std::stoull(data.substr(space + 1, newline - space - 1));
  out->txns.clear();
  size_t pos = newline + 1;
  for (uint64_t i = 0; i < count; i++) {
    std::string payload;
    if (!ParseSized(data, &pos, &payload)) return false;
    core::TxnRequest request;
    if (!core::TxnRequest::Deserialize(payload, &request)) return false;
    out->txns.push_back(std::move(request));
  }
  return true;
}

uint64_t EpochBatch::ByteSize() const {
  uint64_t total = 64;
  for (const auto& txn : txns) total += txn.PayloadBytes();
  return total;
}

crypto::Digest EpochBatch::Digest() const { return crypto::Sha256Of(Serialize()); }

// --- ReliableLink -----------------------------------------------------------

ReliableLink::ReliableLink(sim::Simulator* sim, sim::SimNetwork* net,
                           sim::NodeId from, sim::NodeId to, DeliverFn deliver,
                           sim::Time retry_interval)
    : sim_(sim),
      net_(net),
      from_(from),
      to_(to),
      retry_interval_(retry_interval),
      deliver_(std::move(deliver)) {}

void ReliableLink::Send(std::string payload) {
  uint64_t seq = next_seq_++;
  Pending pending;
  pending.payload = std::move(payload);
  pending.interval = retry_interval_;
  pending.next_due = sim_->Now() + pending.interval;
  auto [it, inserted] = unacked_.emplace(seq, std::move(pending));
  (void)inserted;
  Transmit(seq, it->second.payload);
  ArmRetry();
}

void ReliableLink::Transmit(uint64_t seq, const std::string& payload) {
  net_->Send(from_, to_, 32 + payload.size(), [this, seq, payload] {
    if (received_.insert(seq).second) {
      delivered_count_++;
      deliver_(seq, payload);
    }
    // Every received copy is acked (the first ack may itself be dropped).
    net_->Send(to_, from_, 32, [this, seq] {
      if (unacked_.erase(seq) > 0) acked_count_++;
    });
  });
}

void ReliableLink::ArmRetry() {
  if (retry_armed_) return;
  retry_armed_ = true;
  sim_->Schedule(retry_interval_, [this] {
    retry_armed_ = false;
    if (unacked_.empty()) return;
    const sim::Time now = sim_->Now();
    for (auto& [seq, pending] : unacked_) {
      if (now < pending.next_due) continue;
      retransmits_++;
      Transmit(seq, pending.payload);
      if (pending.interval < 16 * retry_interval_) pending.interval *= 2;
      pending.next_due = now + pending.interval;
    }
    ArmRetry();
  });
}

// --- EpochSequencer ---------------------------------------------------------

EpochSequencer::EpochSequencer(sim::Simulator* sim, sim::SimNetwork* net,
                               const sim::CostModel* costs, Config config,
                               core::StageGauges* gauges, CutFn on_cut,
                               OrderedFn on_ordered)
    : sim_(sim),
      net_(net),
      costs_(costs),
      config_(config),
      nodes_(sim, config_.base, config_.num_nodes),
      mempool_(gauges),
      on_cut_(std::move(on_cut)),
      on_ordered_(std::move(on_ordered)) {
  systems::runtime::TransportConfig transport;
  transport.kind = config_.bft ? systems::runtime::TransportKind::kBft
                               : systems::runtime::TransportKind::kRaft;
  transport.raft = config_.raft;
  transport.bft = config_.bft_config;
  transport_ = std::make_unique<systems::runtime::Transport>(
      sim, net, costs, nodes_.ids(), transport,
      [this](size_t node_index, uint64_t, const std::string& cmd) {
        OnCommitted(node_index, cmd);
      });
}

void EpochSequencer::Start() {
  transport_->Start();
  sim_->Schedule(config_.epoch_interval, [this] { Tick(); });
}

void EpochSequencer::Tick() {
  if (!mempool_.empty() && HasLeader()) CutAndOrder();
  sim_->Schedule(config_.epoch_interval, [this] { Tick(); });
}

void EpochSequencer::CutAndOrder() {
  sim::NodeId leader_id = EntryId();
  systems::runtime::CpuSlot* leader = &nodes_.at(leader_id);

  // The batch goes to consensus UNEXECUTED and *unnumbered*: the epoch
  // number is assigned on the distributor in commit order, so a proposal
  // lost to leadership churn loses only its transactions, never a slot in
  // the epoch sequence — a numbering gap would wedge every shard behind it.
  EpochBatch batch;
  sim::Time cut_cost = 0;
  systems::runtime::BatchPolicy policy;
  policy.max_txns = config_.max_epoch_txns;
  policy.max_bytes = config_.max_epoch_bytes;
  mempool_.Cut(policy, [&](core::TxnRequest request) {
    cut_cost += costs_->msg_handling_us + costs_->sig_verify_us;
    uint64_t bytes = request.PayloadBytes();
    if (on_cut_) on_cut_(request);
    batch.txns.push_back(std::move(request));
    return bytes;
  });
  if (batch.txns.empty()) return;

  std::string serialized = batch.Serialize();
  leader->cpu.Submit(cut_cost, [this, serialized = std::move(serialized)] {
    transport_->Disseminate(serialized);
  });
}

void EpochSequencer::OnCommitted(size_t node_index,
                                 const std::string& payload) {
  // Only the fixed distributor replica acts on the committed epoch; the
  // other sequencer replicas replicate the log for fault tolerance.
  if (node_index != 0) return;
  EpochBatch batch;
  if (!EpochBatch::Deserialize(payload, &batch)) return;
  batch.number = next_epoch_number_++;
  epochs_cut_++;
  if (on_ordered_) on_ordered_(std::move(batch));
}

// --- ShardExecutor ----------------------------------------------------------

ShardExecutor::ShardExecutor(sim::Simulator* sim, sim::SimNetwork* net,
                             const sim::CostModel* costs,
                             const ShardPlanner* planner,
                             const contract::ContractRegistry* contracts,
                             Config config, ShardingStats* stats,
                             AppliedFn on_applied)
    : sim_(sim),
      net_(net),
      costs_(costs),
      planner_(planner),
      config_(config),
      nodes_(sim, config_.base, config_.num_nodes),
      executor_(contracts, costs, config_.exec_lanes),
      stats_(stats),
      on_applied_(std::move(on_applied)) {
  systems::runtime::TransportConfig transport;
  transport.kind = config_.bft ? systems::runtime::TransportKind::kBft
                               : systems::runtime::TransportKind::kRaft;
  transport.raft = config_.raft;
  transport.bft = config_.bft_config;
  transport_ = std::make_unique<systems::runtime::Transport>(
      sim, net, costs, nodes_.ids(), transport,
      [this](size_t node_index, uint64_t seq, const std::string& cmd) {
        // The shard group replicates the epoch order; the shard's state is
        // materialized once, on the entry replica (deterministic execution
        // makes every replica's copy bit-identical by construction).
        if (node_index == 0) OnOrdered(seq, cmd);
      });
  if (config_.elasticity.enabled && !config_.bft) {
    lifecycle_ = std::make_unique<systems::runtime::RaftLifecycle>(
        sim, net, transport_.get(), &config_.elasticity, "lifecycle.shard",
        /*install=*/nullptr);
  }
}

void ShardExecutor::Start() {
  transport_->Start();
  if (lifecycle_ != nullptr) lifecycle_->Start();
}

sim::NodeId ShardExecutor::AddReplica(
    std::function<void(const systems::runtime::JoinReport&)> done) {
  sim::NodeId id = nodes_.Grow(sim_);
  lifecycle_->Join(id, std::move(done));
  return id;
}

void ShardExecutor::ConnectPeers(const std::vector<ShardExecutor*>& peers) {
  for (ShardExecutor* peer : peers) {
    if (peer == nullptr || peer->shard() == config_.shard) continue;
    uint32_t from = config_.shard;
    forward_links_[peer->shard()] = std::make_unique<ReliableLink>(
        sim_, net_, EntryId(), peer->EntryId(),
        [peer, from](uint64_t, const std::string& payload) {
          peer->OnForward(from, payload);
        },
        config_.forward_retry_interval);
  }
}

void ShardExecutor::DeliverEpoch(const std::string& serialized) {
  EpochBatch batch;
  if (!EpochBatch::Deserialize(serialized, &batch)) return;
  if (batch.number < next_epoch_ || ordered_.count(batch.number) > 0 ||
      unordered_.count(batch.number) > 0) {
    return;  // already known on this shard
  }
  unordered_[batch.number] = serialized;
  transport_->Disseminate(serialized);
  uint64_t number = batch.number;
  sim_->Schedule(config_.propose_retry_interval,
                 [this, number] { ProposeRetry(number); });
}

void ShardExecutor::ProposeRetry(uint64_t number) {
  auto it = unordered_.find(number);
  if (it == unordered_.end()) return;  // ordered in the meantime
  // The original proposal was lost to leadership churn in the shard group;
  // re-propose until the group orders it (duplicates dedup in OnOrdered).
  transport_->Disseminate(it->second);
  sim_->Schedule(config_.propose_retry_interval,
                 [this, number] { ProposeRetry(number); });
}

void ShardExecutor::OnOrdered(uint64_t seq, const std::string& payload) {
  EpochBatch batch;
  if (!EpochBatch::Deserialize(payload, &batch)) return;
  if (batch.number < next_epoch_ || ordered_.count(batch.number) > 0) {
    return;  // duplicate commit (re-proposed epoch)
  }
  unordered_.erase(batch.number);
  PendingEpoch pending;
  pending.serialized = payload;
  pending.ordered_time = sim_->Now();
  pending.seq = seq;
  uint64_t number = batch.number;
  pending.batch = std::move(batch);
  ordered_.emplace(number, std::move(pending));
  TryAdvance();
}

void ShardExecutor::OnForward(uint32_t from_shard, const std::string& payload) {
  size_t newline = payload.find('\n');
  if (newline == std::string::npos) return;
  uint64_t number = std::stoull(payload.substr(0, newline));
  if (number < next_epoch_) return;  // epoch already applied here
  std::map<std::string, std::string> values;
  size_t pos = newline + 1;
  while (pos < payload.size()) {
    std::string key, value;
    if (!ParseSized(payload, &pos, &key)) return;
    if (!ParseSized(payload, &pos, &value)) return;
    values[std::move(key)] = std::move(value);
  }
  forwards_[number][from_shard] = std::move(values);
  TryAdvance();
}

std::vector<uint32_t> ShardExecutor::ActiveShards(
    const EpochBatch& batch) const {
  std::set<uint32_t> active;
  for (const auto& txn : batch.txns) {
    TxnShardPlan plan = planner_->Plan(txn);
    active.insert(plan.shards.begin(), plan.shards.end());
  }
  return std::vector<uint32_t>(active.begin(), active.end());
}

void ShardExecutor::TryAdvance() {
  while (true) {
    auto it = ordered_.find(next_epoch_);
    if (it == ordered_.end()) return;
    PendingEpoch& pending = it->second;
    const EpochBatch& batch = pending.batch;

    // Route once per epoch; the plans drive the active set, the ReadForward
    // snapshots and the slice schedule alike.
    std::vector<TxnShardPlan> plans;
    plans.reserve(batch.txns.size());
    std::set<uint32_t> active_set;
    for (const auto& txn : batch.txns) {
      plans.push_back(planner_->Plan(txn));
      active_set.insert(plans.back().shards.begin(),
                        plans.back().shards.end());
    }
    bool mine = active_set.count(config_.shard) > 0;

    if (mine && active_set.size() > 1) {
      if (!pending.forwards_sent) {
        pending.forwards_sent = true;
        // One-shot ReadForward: the pre-epoch values of every key this
        // shard owns in the epoch's union key set, to every other active
        // shard. Forwarding the full owned slice (not just cross-shard
        // txns' keys) makes all active shards' base views identical for
        // every touched key, which is what makes whole-batch execution
        // bit-identical across shards.
        std::set<std::string> owned;
        for (const TxnShardPlan& plan : plans) {
          auto bucket = plan.keys_by_shard.find(config_.shard);
          if (bucket == plan.keys_by_shard.end()) continue;
          owned.insert(bucket->second.begin(), bucket->second.end());
        }
        std::string payload = std::to_string(batch.number) + "\n";
        for (const std::string& key : owned) {
          std::string value;
          if (!state_.Get(key, &value).ok()) continue;  // absent => NotFound
          AppendSized(&payload, key);
          AppendSized(&payload, value);
        }
        for (uint32_t to : active_set) {
          if (to == config_.shard) continue;
          forward_links_.at(to)->Send(payload);
          stats_->read_forwards++;
        }
      }
      // Execution waits for the symmetric forwards — and for nothing else:
      // there is no lock, no vote, no decision round to await.
      const auto& got = forwards_[batch.number];
      for (uint32_t from : active_set) {
        if (from != config_.shard && got.count(from) == 0) return;
      }
    }

    sim::Time ordered_time = pending.ordered_time;
    auto shared = std::make_shared<std::pair<EpochBatch, txn::EpochOutcome>>();
    shared->first = batch;
    std::vector<std::pair<std::string, std::string>> tracked_writes;
    if (mine) {
      std::map<std::string, std::string> remote;
      for (const auto& [from, values] : forwards_[batch.number]) {
        for (const auto& [key, value] : values) remote[key] = value;
      }
      ShardBaseView view(&state_, planner_->partitioner(), config_.shard,
                         &remote);
      shared->second = executor_.ExecuteEpoch(batch.txns, &view);
      // Own-slice writes apply in epoch order; remote writes are the owning
      // shard's identical computation to apply.
      for (const txn::EpochTxnResult& result : shared->second.results) {
        for (const auto& [key, value] : result.writes) {
          if (planner_->partitioner()->ShardOf(key) == config_.shard) {
            state_.StagePut(key, value);
            if (lifecycle_ != nullptr) {
              tracked_writes.emplace_back(key, value);
            }
          }
        }
      }
      // One batched commit for the epoch's slice: root byte-identical to
      // sequential Puts, shared path nodes hashed once (adt/mpt.h).
      state_.CommitBatch();

      // The shard's engine is busy for its *slice* makespan: the conflict
      // schedule restricted to transactions that touch this shard. This is
      // where sharded deterministic execution scales — the full batch is
      // everywhere, the work is not.
      std::vector<std::vector<std::string>> slice_keys;
      std::vector<sim::Time> slice_costs;
      for (size_t i = 0; i < batch.txns.size(); i++) {
        if (plans[i].keys_by_shard.count(config_.shard) == 0 &&
            !(plans[i].keys.empty() && config_.shard == 0)) {
          continue;
        }
        slice_keys.push_back(plans[i].keys);
        slice_costs.push_back(i < shared->second.costs_us.size()
                                  ? shared->second.costs_us[i]
                                  : 0);
      }
      txn::EpochSchedule slice_schedule = txn::BuildSchedule(slice_keys);
      sim::Time makespan = txn::ScheduledMakespan(&slice_schedule, slice_costs,
                                                  config_.exec_lanes);
      nodes_.at_index(0).cpu.Submit(makespan, [this, shared, ordered_time] {
        if (on_applied_ != nullptr) {
          on_applied_(config_.shard, shared->first, shared->second,
                      ordered_time);
        }
      });
    }

    if (lifecycle_ != nullptr) {
      // Epochs apply in sequencer order, which can trail the group's slot
      // order under churn: a slot at or below the tracked one rides in the
      // next fold's chunks (OnApply), and the view recorded with an epoch
      // may run ahead of its slot by a later config change — which only
      // renumbers a joiner's membership version.
      lifecycle_->OnApply(EntryId(), pending.seq, tracked_writes);
    }
    epoch_digests_.push_back(batch.Digest());
    if (config_.record_payloads) {
      applied_payloads_.push_back(pending.serialized);
    }
    stats_->epochs_applied++;
    forwards_.erase(batch.number);
    ordered_.erase(it);
    next_epoch_++;
  }
}

}  // namespace dicho::sharding
