#include "sharedlog/ordering_service.h"

#include "common/coding.h"

namespace dicho::sharedlog {

std::string SerializeOrderedBlock(const OrderedBlock& block) {
  std::string out;
  PutFixed64(&out, block.number);
  PutVarint64(&out, block.envelopes.size());
  for (const auto& e : block.envelopes) PutLengthPrefixed(&out, e);
  return out;
}

bool DeserializeOrderedBlock(const std::string& data, OrderedBlock* block) {
  Slice in(data);
  uint64_t count;
  if (!GetFixed64(&in, &block->number) || !GetVarint64(&in, &count)) {
    return false;
  }
  block->envelopes.clear();
  for (uint64_t i = 0; i < count; i++) {
    Slice e;
    if (!GetLengthPrefixed(&in, &e)) return false;
    block->envelopes.push_back(e.ToString());
  }
  return in.empty();
}

OrderingService::OrderingService(sim::Simulator* sim, sim::SimNetwork* net,
                                 const sim::CostModel* costs,
                                 std::vector<NodeId> orderer_ids,
                                 OrderingConfig config)
    : sim_(sim),
      net_(net),
      orderer_ids_(std::move(orderer_ids)),
      config_(config) {
  raft_ = consensus::RaftCluster::Create(sim, net, costs, orderer_ids_,
                                         config_.raft, nullptr);
}

void OrderingService::Start() { raft_->StartAll(); }

bool OrderingService::HasLeader() const {
  return raft_->leader() != nullptr;
}

consensus::RaftNode* OrderingService::Leader() { return raft_->leader(); }

void OrderingService::Submit(NodeId from, std::string envelope,
                             std::function<void(Status)> cb) {
  // Clients submit to the first orderer, which enqueues for the leader.
  NodeId entry = orderer_ids_[0];
  uint64_t bytes = 64 + envelope.size();
  net_->Send(from, entry,
             bytes, [this, envelope = std::move(envelope),
                     cb = std::move(cb)]() mutable {
               queue_.push_back({std::move(envelope), std::move(cb)});
               if (queue_.size() >= config_.max_block_txns) {
                 CutBlock();
               } else {
                 ArmBatchTimer();
               }
             });
}

void OrderingService::ArmBatchTimer() {
  if (timer_armed_) return;
  timer_armed_ = true;
  sim_->Schedule(config_.batch_timeout, [this] {
    timer_armed_ = false;
    if (!queue_.empty()) CutBlock();
  });
}

void OrderingService::CutBlock() {
  consensus::RaftNode* leader = Leader();
  if (leader == nullptr) {
    // No leader yet (election in progress): retry shortly.
    sim_->Schedule(20 * sim::kMs, [this] {
      if (!queue_.empty()) CutBlock();
    });
    return;
  }
  OrderedBlock block;
  block.number = next_block_number_++;
  size_t take = std::min(queue_.size(), config_.max_block_txns);
  auto cbs = std::make_shared<std::vector<std::function<void(Status)>>>();
  for (size_t i = 0; i < take; i++) {
    block.envelopes.push_back(std::move(queue_[i].envelope));
    cbs->push_back(std::move(queue_[i].cb));
  }
  queue_.erase(queue_.begin(), queue_.begin() + static_cast<long>(take));
  if (!queue_.empty()) ArmBatchTimer();

  std::string serialized = SerializeOrderedBlock(block);
  leader->Propose(serialized, [this, serialized, cbs](Status s, uint64_t) {
    for (auto& cb : *cbs) {
      if (cb) cb(s);
    }
    if (s.ok()) OnBlockCommitted(serialized);
  });
}

void OrderingService::OnBlockCommitted(const std::string& serialized) {
  blocks_cut_++;
  OrderedBlock block;
  if (!DeserializeOrderedBlock(serialized, &block)) return;
  auto shared = std::make_shared<OrderedBlock>(std::move(block));
  NodeId from = orderer_ids_[0];
  for (const auto& sub : subscribers_) {
    DeliverFn fn = sub.fn;
    net_->Send(from, sub.node, shared->ByteSize(),
               [fn, shared] { fn(*shared); });
  }
}

void OrderingService::Subscribe(NodeId peer, DeliverFn fn) {
  subscribers_.push_back({peer, std::move(fn)});
}

}  // namespace dicho::sharedlog
