#ifndef DICHO_SYSTEMS_RUNTIME_MEMPOOL_H_
#define DICHO_SYSTEMS_RUNTIME_MEMPOOL_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/types.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace dicho::systems::runtime {

/// Block/batch cutting limits (Quorum's gas-limit analog, Hybrid's
/// max_batch): a cut stops at whichever cap is hit first.
struct BatchPolicy {
  size_t max_txns = 500;
  uint64_t max_bytes = ~0ull;
};

/// FIFO admission queue in front of ordering — Quorum's proposer mempool,
/// HybridSystem's pre-consensus batch queue. Maintains the queue-depth
/// gauges in SystemStats as a side effect; gauge updates never touch the
/// simulator, so adding them is observability-only.
template <typename Item>
class Mempool {
 public:
  explicit Mempool(core::StageGauges* gauges = nullptr) : gauges_(gauges) {}

  /// Wires this queue into a metrics registry: a pull-mode depth gauge plus
  /// a batch-size histogram fed on every cut. No-op registry → no
  /// instruments, no per-push cost beyond one null check.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) {
    if (registry == nullptr) return;
    registry->GetCallbackGauge(prefix + ".depth", [this] {
      return static_cast<double>(queue_.size());
    });
    batch_txns_ = registry->GetHistogram(prefix + ".batch_txns");
  }

  void Push(Item item) {
    queue_.push_back(std::move(item));
    if (gauges_ != nullptr) {
      gauges_->enqueued++;
      gauges_->mempool_depth = queue_.size();
      if (queue_.size() > gauges_->mempool_peak) {
        gauges_->mempool_peak = queue_.size();
      }
    }
  }

  /// Bounded enqueue: refuses (and counts a rejection) once the queue holds
  /// `capacity` items. capacity == 0 means unbounded — the default, so
  /// every existing Push call site is unaffected.
  bool TryPush(Item item, size_t capacity) {
    if (capacity > 0 && queue_.size() >= capacity) {
      if (gauges_ != nullptr) gauges_->rejected++;
      return false;
    }
    Push(std::move(item));
    return true;
  }

  bool empty() const { return queue_.empty(); }
  size_t size() const { return queue_.size(); }

  /// Cuts one block: pops items in FIFO order until the queue drains or a
  /// policy cap trips. consume(item) admits the item to the block under
  /// construction and returns its byte size (counted against max_bytes,
  /// checked before the *next* pop — a single oversized item still cuts).
  template <typename ConsumeFn>
  size_t Cut(const BatchPolicy& policy, ConsumeFn consume) {
    size_t count = 0;
    uint64_t bytes = 0;
    while (!queue_.empty() && count < policy.max_txns &&
           bytes < policy.max_bytes) {
      Item item = std::move(queue_.front());
      queue_.pop_front();
      bytes += consume(std::move(item));
      count++;
    }
    DidCut(count);
    return count;
  }

  /// Drains the whole queue as one batch (Hybrid's timer flush).
  std::vector<Item> DrainAll() {
    std::vector<Item> items(std::make_move_iterator(queue_.begin()),
                            std::make_move_iterator(queue_.end()));
    queue_.clear();
    DidCut(items.size());
    return items;
  }

 private:
  void DidCut(size_t count) {
    if (batch_txns_ != nullptr && count > 0) {
      batch_txns_->Add(static_cast<double>(count));
    }
    if (gauges_ == nullptr) return;
    if (count > 0) gauges_->batches_cut++;
    gauges_->mempool_depth = queue_.size();
  }

  std::deque<Item> queue_;
  core::StageGauges* gauges_;
  LogLinearHistogram* batch_txns_ = nullptr;
};

/// One-shot flush timer armed on first enqueue (HybridSystem's batching
/// discipline): Arm() is a no-op while a flush is already scheduled, and
/// the timer disarms itself before firing so the flush can re-arm.
class BatchTimer {
 public:
  BatchTimer(sim::Simulator* sim, sim::Time interval)
      : sim_(sim), interval_(interval) {}

  template <typename Fn>
  void Arm(Fn fire) {
    if (armed_) return;
    armed_ = true;
    sim_->Schedule(interval_, [this, fire = std::move(fire)] {
      armed_ = false;
      fire();
    });
  }

  bool armed() const { return armed_; }

 private:
  sim::Simulator* sim_;
  sim::Time interval_;
  bool armed_ = false;
};

/// Submitted-but-unresolved transactions keyed by txn id — the table every
/// system kept privately to route ordered/validated outcomes back to the
/// waiting client callback. Insert overwrites (map::operator[] semantics,
/// what every system relied on for client retries reusing an id).
template <typename TxnState>
class InflightTable {
 public:
  explicit InflightTable(core::StageGauges* gauges = nullptr)
      : gauges_(gauges) {}

  /// Pull-mode depth gauge mirroring the inflight_depth stage gauge.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix) {
    if (registry == nullptr) return;
    registry->GetCallbackGauge(prefix + ".depth", [this] {
      return static_cast<double>(map_.size());
    });
  }

  void Insert(uint64_t txn_id, TxnState state) {
    map_[txn_id] = std::move(state);
    if (gauges_ != nullptr) {
      gauges_->inflight_depth = map_.size();
      if (map_.size() > gauges_->inflight_peak) {
        gauges_->inflight_peak = map_.size();
      }
    }
  }

  TxnState* Find(uint64_t txn_id) {
    auto it = map_.find(txn_id);
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Removes the entry, moving it into *out. Returns false when absent
  /// (already resolved — e.g. a block replaying on a non-completion node).
  bool Take(uint64_t txn_id, TxnState* out) {
    auto it = map_.find(txn_id);
    if (it == map_.end()) return false;
    *out = std::move(it->second);
    map_.erase(it);
    if (gauges_ != nullptr) gauges_->inflight_depth = map_.size();
    return true;
  }

  void Erase(uint64_t txn_id) {
    map_.erase(txn_id);
    if (gauges_ != nullptr) gauges_->inflight_depth = map_.size();
  }

  bool empty() const { return map_.empty(); }
  size_t size() const { return map_.size(); }

 private:
  std::map<uint64_t, TxnState> map_;
  core::StageGauges* gauges_;
};

/// Mempool admission policy — how a system sheds load once its admission
/// window fills instead of queueing unboundedly (the metastable-overload
/// defense bench_overload measures).
enum class AdmissionPolicy : uint8_t {
  kNone = 0,      // admit everything (the pre-admission default)
  kRejectNewest,  // hard bound: reject arrivals once max_inflight is reached
  kFeePriority,   // under congestion, only fee >= min_fee (and non-shed
                  // tenants) get the remaining slots
  kTargetDelay,   // reject when projected queueing delay (inflight × EWMA
                  // service interval) exceeds target_delay
};

const char* AdmissionPolicyName(AdmissionPolicy policy);

struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kNone;
  /// Hard cap on admitted-but-unresolved txns (all policies except kNone).
  size_t max_inflight = 1024;
  /// kTargetDelay: admit while projected wait stays under this.
  sim::Time target_delay = 1 * sim::kSec;
  /// kTargetDelay: always admit while fewer than this many are inflight
  /// (keeps the pipeline primed so the service-rate estimate can form).
  size_t min_backlog = 8;
  /// kTargetDelay: EWMA weight of the newest completion gap.
  double ewma_alpha = 0.05;
  /// kFeePriority: congestion begins at this fraction of max_inflight.
  double congestion_fraction = 0.5;
  /// kFeePriority: minimum fee bid admitted under congestion.
  double min_fee = 1.0;
  /// kFeePriority: tenants shed outright under congestion.
  std::vector<uint32_t> shed_tenants;

  bool enabled() const { return policy != AdmissionPolicy::kNone; }
};

/// Pure admission decision logic, shared by every system through the gate
/// below. Deterministic: decisions depend only on virtual time, the gate's
/// inflight count, and the request's fee/tenant stamps.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  bool Admit(size_t inflight, const core::TxnRequest& request) const {
    switch (config_.policy) {
      case AdmissionPolicy::kNone:
        return true;
      case AdmissionPolicy::kRejectNewest:
        return inflight < config_.max_inflight;
      case AdmissionPolicy::kFeePriority: {
        if (inflight >= config_.max_inflight) return false;
        size_t congestion_floor = static_cast<size_t>(
            config_.congestion_fraction *
            static_cast<double>(config_.max_inflight));
        if (inflight < congestion_floor) return true;
        for (uint32_t tenant : config_.shed_tenants) {
          if (request.tenant == tenant) return false;
        }
        return request.fee >= config_.min_fee;
      }
      case AdmissionPolicy::kTargetDelay: {
        if (inflight >= config_.max_inflight) return false;
        if (inflight < config_.min_backlog) return true;
        double projected_wait =
            static_cast<double>(inflight) * ewma_service_us_;
        return projected_wait <= config_.target_delay;
      }
    }
    return true;
  }

  /// Feeds the service-rate estimator: called once per resolved txn with
  /// the virtual completion time.
  void OnCompletion(sim::Time now) {
    if (last_completion_ >= 0) {
      double gap = now - last_completion_;
      ewma_service_us_ = ewma_service_us_ == 0
                             ? gap
                             : config_.ewma_alpha * gap +
                                   (1.0 - config_.ewma_alpha) * ewma_service_us_;
    }
    last_completion_ = now;
  }

  double ewma_service_us() const { return ewma_service_us_; }
  const AdmissionConfig& config() const { return config_; }

 private:
  AdmissionConfig config_;
  sim::Time last_completion_ = -1;
  double ewma_service_us_ = 0;
};

/// Uniform mempool admission gate: a TransactionalSystem decorator applied
/// by the registry in front of *any* of the 8 system models — no
/// per-system forking. Rejections resolve asynchronously (one zero-delay
/// sim event) with AbortReason::kAdmissionReject so open-loop clients see
/// an explicit shed outcome rather than a silent drop; admitted requests
/// pass through untouched, and with kNone policy the gate adds zero sim
/// events (golden-trace compatible). Instruments — `<name>.mempool.rejected`
/// counter, `<name>.gate.depth` pull gauge, `<name>.gate.admitted_latency_us`
/// log-linear histogram — register only when the simulator has a
/// MetricsRegistry attached.
class AdmissionGate : public core::TransactionalSystem {
 public:
  AdmissionGate(sim::Simulator* sim,
                std::unique_ptr<core::TransactionalSystem> inner,
                const AdmissionConfig& config)
      : sim_(sim), inner_(std::move(inner)), controller_(config) {
    if (obs::MetricsRegistry* registry = sim_->metrics()) {
      const std::string name = inner_->name();
      rejected_counter_ = registry->GetCounter(name + ".mempool.rejected");
      admitted_counter_ = registry->GetCounter(name + ".gate.admitted");
      registry->GetCallbackGauge(name + ".gate.depth", [this] {
        return static_cast<double>(inflight_);
      });
      admitted_latency_us_ =
          registry->GetHistogram(name + ".gate.admitted_latency_us");
    }
  }

  void Submit(const core::TxnRequest& request, core::TxnCallback cb) override {
    if (!controller_.Admit(inflight_, request)) {
      rejected_count_++;
      if (rejected_counter_ != nullptr) rejected_counter_->Inc();
      core::TxnResult result;
      result.status = Status::Aborted("admission-reject");
      result.reason = core::AbortReason::kAdmissionReject;
      result.submit_time = sim_->Now();
      result.finish_time = sim_->Now();
      // Async delivery breaks the submit->completion cycle for open-loop
      // pumps that schedule the next arrival from the callback.
      sim_->Schedule(0, [cb = std::move(cb), result] { cb(result); });
      return;
    }
    inflight_++;
    if (inflight_ > inflight_peak_) inflight_peak_ = inflight_;
    if (admitted_counter_ != nullptr) admitted_counter_->Inc();
    inner_->Submit(request,
                   [this, cb = std::move(cb)](const core::TxnResult& result) {
                     inflight_--;
                     controller_.OnCompletion(sim_->Now());
                     if (admitted_latency_us_ != nullptr) {
                       admitted_latency_us_->Add(result.latency());
                     }
                     cb(result);
                   });
  }

  void Query(const core::ReadRequest& request, core::ReadCallback cb) override {
    inner_->Query(request, std::move(cb));
  }

  /// Inner stats with the gate's shed count overlaid on the stage gauges.
  const core::SystemStats& stats() const override {
    stats_ = inner_->stats();
    stats_.stages.rejected = rejected_count_;
    return stats_;
  }

  std::string name() const override { return inner_->name(); }
  void Load(const std::string& key, const std::string& value) override {
    inner_->Load(key, value);
  }
  void Start() override { inner_->Start(); }

  core::TransactionalSystem* inner() { return inner_.get(); }
  size_t gate_depth() const { return inflight_; }
  size_t gate_peak() const { return inflight_peak_; }
  uint64_t rejected_count() const { return rejected_count_; }
  const AdmissionController& controller() const { return controller_; }

 private:
  sim::Simulator* sim_;
  std::unique_ptr<core::TransactionalSystem> inner_;
  AdmissionController controller_;
  size_t inflight_ = 0;
  size_t inflight_peak_ = 0;
  uint64_t rejected_count_ = 0;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* admitted_counter_ = nullptr;
  LogLinearHistogram* admitted_latency_us_ = nullptr;
  mutable core::SystemStats stats_;
};

}  // namespace dicho::systems::runtime

#endif  // DICHO_SYSTEMS_RUNTIME_MEMPOOL_H_
