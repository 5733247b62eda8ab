#include "systems/runtime/transport.h"

#include <algorithm>

namespace dicho::systems::runtime {

const char* TransportKindName(TransportKind kind) {
  switch (kind) {
    case TransportKind::kRaft:
      return "raft";
    case TransportKind::kBft:
      return "bft";
    case TransportKind::kSharedLog:
      return "shared-log";
    case TransportKind::kPow:
      return "pow";
    case TransportKind::kPrimaryBackup:
      return "primary-backup";
  }
  return "unknown";
}

Transport::Transport(sim::Simulator* sim, sim::SimNetwork* net,
                     const sim::CostModel* costs,
                     std::vector<sim::NodeId> node_ids, TransportConfig config,
                     ApplyFn apply)
    : sim_(sim),
      net_(net),
      node_ids_(std::move(node_ids)),
      config_(std::move(config)),
      apply_(std::move(apply)) {
  const sim::NodeId base = node_ids_.front();
  if (config_.partition_replicas) {
    for (sim::NodeId id : node_ids_) {
      if (sim_->PartitionOfNode(id) == 0) {
        sim_->AssignNode(id, sim_->AddPartition());
      }
    }
    net_->SyncPartitions();
  }
  if (obs::MetricsRegistry* registry = sim_->metrics()) {
    const std::string prefix = std::string("transport.") +
                               TransportKindName(config_.kind) + ".n" +
                               std::to_string(base);
    disseminations_ = registry->GetCounter(prefix + ".disseminations");
    payload_bytes_ = registry->GetCounter(prefix + ".payload_bytes");
  }
  // Protocol delivery hands (node_id, seq, payload); replica code indexes
  // nodes by position in the span.
  auto deliver = [this, base](sim::NodeId node, uint64_t seq,
                              const std::string& payload) {
    if (apply_ != nullptr) {
      apply_(static_cast<size_t>(node - base), seq, payload);
    }
  };
  switch (config_.kind) {
    case TransportKind::kRaft:
      raft_ = consensus::RaftCluster::Create(sim, net, costs, node_ids_,
                                             config_.raft, deliver);
      break;
    case TransportKind::kBft:
      bft_ = consensus::BftCluster::Create(sim, net, costs, node_ids_,
                                           config_.bft, deliver);
      break;
    case TransportKind::kSharedLog: {
      sim::NodeId broker = node_ids_.back() + 1;  // Kafka-style broker node
      shared_log_ =
          std::make_unique<sharedlog::SharedLog>(sim, net, broker, config_.log);
      for (size_t i = 0; i < node_ids_.size(); i++) {
        shared_log_->Subscribe(
            node_ids_[i], [this, i](uint64_t seq, const std::string& record) {
              if (apply_ != nullptr) apply_(i, seq, record);
            });
      }
      break;
    }
    case TransportKind::kPow:
      pow_ = std::make_unique<consensus::PowNetwork>(sim, net, node_ids_,
                                                     config_.pow, deliver);
      break;
    case TransportKind::kPrimaryBackup:
      break;  // handled inline in Disseminate
  }
}

void Transport::Start() {
  if (raft_ != nullptr) raft_->StartAll();
  if (bft_ != nullptr) bft_->StartAll();
  if (pow_ != nullptr) pow_->Start();
}

void Transport::Disseminate(const std::string& payload) {
  if (disseminations_ != nullptr) {
    disseminations_->Inc();
    payload_bytes_->Inc(payload.size());
  }
  if (raft_ != nullptr) {
    consensus::RaftNode* leader = raft_->leader();
    if (leader == nullptr) {
      // Election in progress; retry shortly.
      sim_->Schedule(config_.raft_retry_interval,
                     [this, payload] { Disseminate(payload); });
      return;
    }
    leader->Propose(payload, [](Status, uint64_t) {});
    return;
  }
  if (bft_ != nullptr) {
    bft_->all()[0]->Submit(payload, [](Status, uint64_t) {});
    return;
  }
  if (pow_ != nullptr) {
    pow_->Submit(payload, nullptr);
    return;
  }
  if (shared_log_ != nullptr) {
    shared_log_->Append(node_ids_[0], payload, nullptr);
    return;
  }
  // Primary-backup: the first replica is the primary; backups receive the
  // stream over the wire.
  uint64_t seq = ++pb_seq_;
  if (apply_ != nullptr) apply_(0, seq, payload);
  for (size_t i = 1; i < node_ids_.size(); i++) {
    net_->Send(node_ids_[0], node_ids_[i], 64 + payload.size(),
               [this, i, seq, payload] {
                 if (apply_ != nullptr) apply_(i, seq, payload);
               });
  }
}

bool Transport::HasLeader() const {
  if (raft_ != nullptr) return raft_->leader() != nullptr;
  return bft_ != nullptr && bft_->primary() != nullptr;
}

sim::NodeId Transport::LeaderId(sim::NodeId fallback) const {
  if (raft_ != nullptr) {
    consensus::RaftNode* leader = raft_->leader();
    return leader != nullptr ? leader->id() : fallback;
  }
  if (bft_ != nullptr) {
    consensus::BftNode* primary = bft_->primary();
    return primary != nullptr ? primary->id() : fallback;
  }
  return fallback;
}

consensus::RaftNode* Transport::AddRaftReplica(sim::NodeId id) {
  if (raft_ == nullptr) return nullptr;
  // Bootstrap config = the construction-time span: a joiner replaying
  // history from its snapshot reconstructs every later config version from
  // the log (the adopted snapshot view fast-forwards it).
  std::vector<sim::NodeId> bootstrap = node_ids_;
  consensus::RaftNode* node = raft_->AddNode(id, bootstrap);
  if (std::find(node_ids_.begin(), node_ids_.end(), id) == node_ids_.end()) {
    node_ids_.push_back(id);
  }
  return node;
}

}  // namespace dicho::systems::runtime
