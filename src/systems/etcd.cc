#include "systems/etcd.h"

#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"

namespace dicho::systems {

EtcdSystem::EtcdSystem(sim::Simulator* sim, sim::SimNetwork* net,
                       const sim::CostModel* costs, EtcdConfig config)
    : sim_(sim),
      net_(net),
      costs_(costs),
      config_(config),
      nodes_(sim, runtime::kReplicaBase, config_.num_nodes) {
  runtime::TransportConfig transport;
  transport.kind = runtime::TransportKind::kRaft;
  transport.raft = config_.raft;
  transport_ = std::make_unique<runtime::Transport>(
      sim, net, costs, nodes_.ids(), transport,
      [this](size_t node_index, uint64_t seq, const std::string& cmd) {
        ApplyEntry(nodes_.id_of(node_index), seq, cmd);
      });
  if (config_.elasticity.enabled) {
    lifecycle_ = std::make_unique<runtime::RaftLifecycle>(
        sim, net, transport_.get(), &config_.elasticity, "lifecycle.etcd",
        [this](NodeId id, const std::map<std::string, std::string>& state) {
          Node* node = &nodes_.at(id);
          for (const auto& [key, value] : state) node->state.Put(key, value);
        });
  }
  if (obs::MetricsRegistry* registry = sim_->metrics()) {
    runtime::RegisterSystemStats(registry, "etcd", &stats_);
    runtime::RegisterNodeCpuGauges(registry, "etcd", &nodes_,
                                   [](Node& node) { return &node.cpu; });
  }
}

void EtcdSystem::Start() {
  transport_->Start();
  if (lifecycle_ != nullptr) lifecycle_->Start();
}

void EtcdSystem::Load(const std::string& key, const std::string& value) {
  auto record = std::make_shared<const std::string>(value);
  nodes_.ForEach(
      [&](NodeId, Node& node) { node.state.Put(key, record, *record); });
  if (lifecycle_ != nullptr) lifecycle_->OnLoad(key, value);
}

void EtcdSystem::ApplyEntry(NodeId node, uint64_t seq, const std::string& cmd) {
  // The leaves reference the replicated command itself, so every replica
  // shares its value bytes; `cmd` must be that buffer.
  std::shared_ptr<const std::string> command =
      transport_->raft()->node(node)->CommittedCommand(seq);
  if (command.get() != &cmd) {
    std::fprintf(stderr,
                 "etcd: replica %u applied entry %llu from outside its log\n",
                 static_cast<unsigned>(node),
                 static_cast<unsigned long long>(seq));
    std::abort();
  }
  core::TxnRequestView request;
  if (!core::TxnRequestView::Parse(cmd, &request)) return;
  Time cost = 0;
  Node* state = &nodes_.at(node);
  std::vector<std::pair<std::string, std::string>> writes;
  for (const core::OpView& op : request.ops) {
    if (op.type != core::OpType::kRead) {
      state->state.Put(op.key, command, op.value);
      cost += costs_->BtreeOpCost(op.key.size() + op.value.size());
      if (lifecycle_ != nullptr) {
        writes.emplace_back(op.key.ToString(), op.value.ToString());
      }
    }
  }
  if (lifecycle_ != nullptr) lifecycle_->OnApply(node, seq, writes);
  // Apply work is real (above); its time is charged to the node so a slow
  // applier shows up as commit latency.
  state->cpu.Submit(cost, [] {});
}

NodeId EtcdSystem::AddReplica(
    std::function<void(const runtime::JoinReport&)> done) {
  NodeId id = nodes_.Grow(sim_);
  lifecycle_->Join(id, std::move(done));
  return id;
}

void EtcdSystem::RemoveReplica(NodeId id, bool drain,
                               std::function<void()> done) {
  lifecycle_->Leave(id, drain, std::move(done));
}

void EtcdSystem::Submit(const core::TxnRequest& request, core::TxnCallback cb) {
  // Rejections are delivered asynchronously (a synchronous callback would
  // let a closed-loop client recurse unboundedly through resubmission).
  auto reject = [this](core::TxnCallback done, Status status,
                       core::AbortReason reason) {
    Time submit_time = sim_->Now();
    stats_.aborted++;
    stats_.aborts_by_reason[reason]++;
    sim_->Schedule(costs_->msg_handling_us, [cb = std::move(done), status,
                                             reason, submit_time, this] {
      core::TxnResult result;
      result.status = status;
      result.reason = reason;
      result.submit_time = submit_time;
      result.finish_time = sim_->Now();
      cb(result);
    });
  };

  // etcd's data model: single-op requests, no general transactions (the
  // paper excludes etcd from Smallbank for exactly this reason).
  if (request.ops.size() != 1 || !request.method.empty()) {
    reject(std::move(cb),
           Status::NotSupported(
               "etcd does not support general transactional workloads"),
           core::AbortReason::kOther);
    return;
  }

  consensus::RaftNode* leader = transport_->raft()->leader();
  Time submit_time = sim_->Now();
  if (leader == nullptr) {
    reject(std::move(cb), Status::Unavailable("no leader"),
           core::AbortReason::kUnavailable);
    return;
  }

  std::string cmd = request.Serialize();
  uint64_t bytes = request.PayloadBytes();
  NodeId leader_id = leader->id();
  // Client -> leader, propose, commit, reply.
  net_->Send(config_.client_node, leader_id, bytes,
             [this, leader, cmd = std::move(cmd), cb = std::move(cb),
              submit_time, leader_id]() mutable {
               leader->Propose(
                   std::move(cmd),
                   [this, cb = std::move(cb), submit_time,
                    leader_id](Status s, uint64_t) mutable {
                     // Reply flows back over the network.
                     net_->Send(leader_id, config_.client_node, 64,
                                [this, cb = std::move(cb), submit_time, s,
                                 leader_id] {
                                  core::TxnResult result;
                                  result.status = s;
                                  result.submit_time = submit_time;
                                  result.finish_time = sim_->Now();
                                  result.phases.Set(
                                      core::Phase::kConsensus,
                                      result.finish_time - submit_time);
                                  obs::EmitPhaseSpan(
                                      sim_, core::Phase::kConsensus, leader_id,
                                      0, submit_time, result.finish_time);
                                  if (s.ok()) {
                                    stats_.committed++;
                                  } else {
                                    result.reason =
                                        core::AbortReason::kUnavailable;
                                    stats_.aborted++;
                                    stats_.aborts_by_reason[result.reason]++;
                                  }
                                  cb(result);
                                });
                   });
             });
}

void EtcdSystem::Query(const core::ReadRequest& request, core::ReadCallback cb) {
  stats_.queries++;
  consensus::RaftNode* leader = transport_->raft()->leader();
  Time submit_time = sim_->Now();
  if (leader == nullptr) {
    core::ReadResult result;
    result.status = Status::Unavailable("no leader");
    result.submit_time = submit_time;
    result.finish_time = sim_->Now();
    cb(result);
    return;
  }
  NodeId leader_id = leader->id();
  // Linearizable read served at the leader (ReadIndex-style, no log entry).
  net_->Send(config_.client_node, leader_id, 64 + request.key.size(),
             [this, key = request.key, cb = std::move(cb), submit_time,
              leader_id]() mutable {
               Time cost = costs_->BtreeOpCost(key.size());
               nodes_.at(leader_id).cpu.Submit(
                   cost, [this, key, cb = std::move(cb), submit_time,
                          leader_id]() mutable {
                     std::string value;
                     Status s = nodes_.at(leader_id).state.Get(key, &value);
                     net_->Send(leader_id, config_.client_node,
                                64 + value.size(),
                                [this, cb = std::move(cb), submit_time, s,
                                 value = std::move(value), leader_id] {
                                  core::ReadResult result;
                                  result.status = s;
                                  result.value = value;
                                  result.submit_time = submit_time;
                                  result.finish_time = sim_->Now();
                                  result.phases.Set(
                                      core::Phase::kRead,
                                      result.finish_time - submit_time);
                                  obs::EmitPhaseSpan(
                                      sim_, core::Phase::kRead, leader_id, 0,
                                      submit_time, result.finish_time);
                                  cb(result);
                                });
                   });
             });
}

uint64_t EtcdSystem::StateBytes() const {
  return nodes_.at_index(0).state.ApproximateSize();
}

}  // namespace dicho::systems
