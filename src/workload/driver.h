#ifndef DICHO_WORKLOAD_DRIVER_H_
#define DICHO_WORKLOAD_DRIVER_H_

#include <array>
#include <functional>
#include <map>
#include <string>

#include "common/histogram.h"
#include "core/types.h"
#include "sim/simulator.h"
#include "workload/arrival.h"

namespace dicho::workload {

using sim::Time;

/// Load-generation parameters. Closed loop (num_clients > 0, rate == 0):
/// each virtual client keeps one request outstanding — the saturation
/// benchmark mode. Open loop (arrival_rate_tps > 0): Poisson arrivals —
/// the unsaturated-latency mode. Engine open loop (arrival != nullptr):
/// the ArrivalEngine's timestamped plan (Poisson × diurnal × flash crowds)
/// drives submissions; arrival_rate_tps is ignored.
struct DriverConfig {
  size_t num_clients = 64;
  double arrival_rate_tps = 0;
  Time warmup = 5 * sim::kSec;
  Time measure = 20 * sim::kSec;
  /// Fraction of requests issued as point queries instead of transactions.
  double query_fraction = 0;
  /// Open-loop arrival plan (not owned; must outlive the run). Default
  /// nullptr keeps the two legacy modes byte-identical.
  ArrivalEngine* arrival = nullptr;
  /// Builds the request for one engine arrival (key/tenant/fee aware).
  /// Required when `arrival` is set; unused otherwise.
  std::function<core::TxnRequest(const Arrival&)> arrival_txn;
};

/// Results of one driver run.
struct RunMetrics {
  double throughput_tps = 0;
  double query_throughput_tps = 0;
  Histogram txn_latency_us;
  Histogram query_latency_us;
  uint64_t committed = 0;
  uint64_t aborted = 0;
  /// Open-loop accounting: requests dispatched inside the window, and
  /// admission-gate rejections observed inside the window. Rejections are
  /// counted here, NOT in `aborted` (a shed is not a conflict), and their
  /// ~zero latencies never pollute txn_latency_us.
  uint64_t offered = 0;
  uint64_t rejected = 0;
  std::map<core::AbortReason, uint64_t> aborts_by_reason;
  /// Per-phase latency histograms, indexed by core::Phase. A phase a system
  /// never stamps has count() == 0.
  std::array<Histogram, core::kNumPhases> phase_hist;

  Histogram& phase(core::Phase p) {
    return phase_hist[static_cast<size_t>(p)];
  }
  const Histogram& phase(core::Phase p) const {
    return phase_hist[static_cast<size_t>(p)];
  }

  double AbortRate() const {
    uint64_t total = committed + aborted;
    return total == 0 ? 0 : static_cast<double>(aborted) / total;
  }
  /// Fraction of resolved requests shed at the admission gate.
  double RejectRate() const {
    uint64_t total = committed + aborted + rejected;
    return total == 0 ? 0 : static_cast<double>(rejected) / total;
  }
  /// One-line summary for the bench harness output.
  std::string Summary();
};

/// Drives a TransactionalSystem with a workload on the simulator and
/// measures throughput/latency/aborts over the measurement window.
class Driver {
 public:
  using TxnGen = std::function<core::TxnRequest()>;
  using ReadGen = std::function<core::ReadRequest()>;

  Driver(sim::Simulator* sim, core::TransactionalSystem* system,
         TxnGen txn_gen, DriverConfig config)
      : Driver(sim, system, std::move(txn_gen), nullptr, config) {}

  Driver(sim::Simulator* sim, core::TransactionalSystem* system,
         TxnGen txn_gen, ReadGen read_gen, DriverConfig config);

  /// Runs warmup + measurement on the simulator and returns the metrics.
  RunMetrics Run();

 private:
  void IssueNext(size_t client);
  void ScheduleArrival();
  void ScheduleEngineArrival();
  void Dispatch(size_t client);
  void DispatchArrival(const Arrival& arrival);
  void OnTxnDone(size_t client, const core::TxnResult& result);
  void OnReadDone(size_t client, const core::ReadResult& result);
  bool InWindow(Time t) const {
    return t >= window_start_ && t < window_end_;
  }

  sim::Simulator* sim_;
  core::TransactionalSystem* system_;
  TxnGen txn_gen_;
  ReadGen read_gen_;
  DriverConfig config_;
  RunMetrics metrics_;
  Time window_start_ = 0;
  Time window_end_ = 0;
  bool stopping_ = false;
  /// Mirror of txn_latency_us in the attached MetricsRegistry (log-linear,
  /// so benches can report p99/p99.9 from src/obs); null when detached.
  LogLinearHistogram* txn_latency_ll_ = nullptr;
};

}  // namespace dicho::workload

#endif  // DICHO_WORKLOAD_DRIVER_H_
