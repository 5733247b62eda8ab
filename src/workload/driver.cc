#include "workload/driver.h"

#include <cstdio>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dicho::workload {

std::string RunMetrics::Summary() {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "tps=%.0f qps=%.0f abort=%.1f%% p50=%.1fms p99=%.1fms",
           throughput_tps, query_throughput_tps, AbortRate() * 100,
           txn_latency_us.Percentile(50) / 1000.0,
           txn_latency_us.Percentile(99) / 1000.0);
  return buf;
}

Driver::Driver(sim::Simulator* sim, core::TransactionalSystem* system,
               TxnGen txn_gen, ReadGen read_gen, DriverConfig config)
    : sim_(sim),
      system_(system),
      txn_gen_(std::move(txn_gen)),
      read_gen_(std::move(read_gen)),
      config_(config) {}

RunMetrics Driver::Run() {
  metrics_ = RunMetrics{};
  window_start_ = sim_->Now() + config_.warmup;
  window_end_ = window_start_ + config_.measure;
  stopping_ = false;
  if (obs::TraceSink* sink = sim_->trace_sink()) {
    sink->NoteWindow(window_start_, window_end_);
  }
  if (obs::MetricsRegistry* registry = sim_->metrics()) {
    txn_latency_ll_ = registry->GetHistogram("driver.txn_latency_us");
  }

  if (config_.arrival != nullptr) {
    ScheduleEngineArrival();
  } else if (config_.arrival_rate_tps > 0) {
    ScheduleArrival();
  } else {
    for (size_t c = 0; c < config_.num_clients; c++) {
      // Stagger initial submissions to avoid a synchronized burst.
      sim_->Schedule(static_cast<Time>(c) * 97.0,
                     [this, c] { Dispatch(c); });
    }
  }
  // Run to a bit past the window so in-flight completions are observed.
  sim_->RunUntil(window_end_ + 5 * sim::kSec);
  stopping_ = true;

  // Goodput: committed transactions only; aborts are reported separately
  // (the paper plots throughput and abort rate side by side).
  metrics_.throughput_tps =
      static_cast<double>(metrics_.committed) / (config_.measure / sim::kSec);
  metrics_.query_throughput_tps =
      static_cast<double>(metrics_.query_latency_us.count()) /
      (config_.measure / sim::kSec);
  return metrics_;
}

void Driver::ScheduleArrival() {
  if (sim_->Now() >= window_end_) return;
  Time gap = sim_->rng()->Exponential(sim::kSec / config_.arrival_rate_tps);
  sim_->Schedule(gap, [this] {
    Dispatch(0);
    ScheduleArrival();
  });
}

void Driver::ScheduleEngineArrival() {
  // The engine's Rng is private to it (never the simulator's partition
  // streams), so the timestamped plan — and therefore the whole run — is
  // byte-identical across DICHO_SIM_THREADS settings.
  Arrival arrival = config_.arrival->Next(sim_->Now());
  if (arrival.time >= window_end_) return;
  sim_->ScheduleAt(arrival.time, [this, arrival] {
    DispatchArrival(arrival);
    ScheduleEngineArrival();
  });
}

void Driver::DispatchArrival(const Arrival& arrival) {
  if (InWindow(sim_->Now())) metrics_.offered++;
  system_->Submit(config_.arrival_txn(arrival),
                  [this](const core::TxnResult& r) { OnTxnDone(0, r); });
}

void Driver::Dispatch(size_t client) {
  if (sim_->Now() >= window_end_) return;
  bool query = read_gen_ != nullptr &&
               sim_->rng()->NextDouble() < config_.query_fraction;
  if (query) {
    system_->Query(read_gen_(), [this, client](const core::ReadResult& r) {
      OnReadDone(client, r);
    });
  } else {
    system_->Submit(txn_gen_(), [this, client](const core::TxnResult& r) {
      OnTxnDone(client, r);
    });
  }
}

void Driver::OnTxnDone(size_t client, const core::TxnResult& result) {
  if (obs::TraceSink* sink = sim_->trace_sink()) sink->RecordTxn(result);
  bool shed = result.reason == core::AbortReason::kAdmissionReject;
  if (InWindow(result.finish_time)) {
    if (shed) {
      // A gate rejection is neither goodput nor a conflict abort; its
      // ~zero latency would also skew the latency tail.
      metrics_.rejected++;
    } else if (result.status.ok()) {
      metrics_.committed++;
    } else {
      metrics_.aborted++;
      metrics_.aborts_by_reason[result.reason]++;
    }
    if (!shed) {
      metrics_.txn_latency_us.Add(result.latency());
      if (txn_latency_ll_ != nullptr) txn_latency_ll_->Add(result.latency());
      result.phases.ForEach([this](core::Phase phase, sim::Time t) {
        metrics_.phase(phase).Add(t);
      });
    }
  }
  // Closed-loop clients re-issue after every outcome (including a shed —
  // the client retries); open-loop modes never re-issue.
  if (config_.arrival_rate_tps == 0 && config_.arrival == nullptr &&
      !stopping_) {
    IssueNext(client);
  }
}

void Driver::OnReadDone(size_t client, const core::ReadResult& result) {
  if (obs::TraceSink* sink = sim_->trace_sink()) sink->RecordQuery(result);
  if (InWindow(result.finish_time)) {
    metrics_.query_latency_us.Add(result.latency());
    result.phases.ForEach(
        [this](core::Phase phase, sim::Time t) { metrics_.phase(phase).Add(t); });
  }
  if (config_.arrival_rate_tps == 0 && !stopping_) IssueNext(client);
}

void Driver::IssueNext(size_t client) {
  // Break any synchronous completion->resubmit cycle (a system that rejects
  // requests inline would otherwise recurse through the client loop).
  sim_->Schedule(0, [this, client] { Dispatch(client); });
}

}  // namespace dicho::workload
