#ifndef DICHO_SIM_SIMULATOR_H_
#define DICHO_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"
#include "sim/event_queue.h"

namespace dicho::obs {
class TraceSink;
class MetricsRegistry;
}  // namespace dicho::obs

namespace dicho::sim {

/// Virtual time in microseconds.
using Time = double;

constexpr Time kUs = 1.0;
constexpr Time kMs = 1000.0;
constexpr Time kSec = 1000000.0;

/// Deterministic discrete-event simulator. All distributed components in
/// dicho (consensus protocols, networks, system pipelines) are event-driven
/// state machines scheduled here; a run with the same seed replays
/// identically.
///
/// The world can optionally be split into *logical partitions* (LPs), each
/// with its own event queue, clock, and RNG stream. Partitioned worlds can
/// then run on worker threads under conservative synchronization: the
/// smallest cross-partition delay (registered by SimNetwork as the base
/// network latency) is the lookahead `L`, and every partition may safely
/// execute all events below `min-pending-time + L` without ever receiving a
/// straggler. Event order is defined by the integer pair
///
///     (TimeKey(time), (source_partition << 40) | source_seq)
///
/// where the sequence number comes from the *scheduling* partition's private
/// counter — a quantity that does not depend on how partitions interleave on
/// wall-clock threads. Serial (DICHO_SIM_THREADS=1) and parallel execution
/// therefore produce bit-identical results: same handler order per
/// partition, same RNG draws, same merged trace bytes. Unpartitioned worlds
/// (the default: everything on partition 0) take a serial fast path that
/// reproduces the original single-queue engine exactly, tie-break and RNG
/// stream included.
class Simulator {
  struct Lp;

  /// Thread-local execution context: which simulator/partition the current
  /// thread is logically inside. `now`/`rng`/`sink` answer Now()/rng()/
  /// trace_sink() without looking up the partition again.
  struct ExecContext {
    const Simulator* sim = nullptr;
    Lp* lp = nullptr;
    const Time* now = nullptr;
    Rng* rng = nullptr;
    obs::TraceSink* sink = nullptr;
  };

 public:
  explicit Simulator(uint64_t seed = 42);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// The caller's logical clock: inside an event handler, the executing
  /// partition's clock; elsewhere the global (end-of-run) clock.
  Time Now() const {
    const ExecContext& c = exec_tls_;
    return c.sim == this ? *c.now : now_;
  }

  /// The caller's RNG stream. Partition 0 (and all ambient/setup code) draws
  /// from the stream seeded with the constructor seed — byte-compatible with
  /// the original single-stream engine. Partitions k >= 1 own derived
  /// streams, so their draws are independent of sibling interleaving.
  Rng* rng() {
    const ExecContext& c = exec_tls_;
    return c.sim == this ? c.rng : &rng_;
  }

  /// Observability hooks (src/obs). Null by default: components guard every
  /// use with a pointer check, so a simulation without observers pays one
  /// predictable branch per instrumentation site and nothing else. In
  /// partitioned worlds trace_sink() resolves to the executing partition's
  /// buffer; buffers are merged into the root sink in deterministic key
  /// order at the end of each top-level Run/RunUntil.
  obs::TraceSink* trace_sink() const {
    const ExecContext& c = exec_tls_;
    if (c.sim == this && c.sink != nullptr) return c.sink;
    return trace_sink_;
  }
  void set_trace_sink(obs::TraceSink* sink) { trace_sink_ = sink; }
  obs::MetricsRegistry* metrics() const { return metrics_; }
  void set_metrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  /// Sink inherited by every Simulator constructed afterwards *on this
  /// thread* — for code paths that build their worlds internally (golden
  /// cases, sim-fuzz scenario replays). The slot is thread-local, so
  /// parallel sweeps and the parallel engine's workers each see their own
  /// inheritance chain and never race.
  static void SetDefaultTraceSink(obs::TraceSink* sink);

  /// Partitioning ------------------------------------------------------------
  /// Adds a logical partition and returns its index (>= 1; index 0 is the
  /// ambient partition every unassigned node lives on). Call during world
  /// construction only — never from inside a running event.
  uint32_t AddPartition();
  uint32_t num_partitions() const { return static_cast<uint32_t>(lps_.size()); }

  /// Maps a node id onto a partition; SimNetwork routes deliveries for the
  /// node to that partition's queue. Unassigned nodes map to partition 0.
  void AssignNode(uint32_t node, uint32_t partition);
  uint32_t PartitionOfNode(uint32_t node) const {
    return node < lp_of_node_.size() ? lp_of_node_[node] : 0;
  }
  /// Partition whose context the caller currently runs under (0 if ambient).
  uint32_t current_partition() const;

  /// RAII context for running construction/start code "on" a partition: node
  /// constructors and Start() methods wrapped in a scope draw from that
  /// partition's RNG and schedule onto its queue. In an unpartitioned world
  /// a scope on partition 0 is behavior-neutral.
  class PartitionScope {
   public:
    PartitionScope(Simulator* sim, uint32_t partition);
    ~PartitionScope();
    PartitionScope(const PartitionScope&) = delete;
    PartitionScope& operator=(const PartitionScope&) = delete;

   private:
    Simulator* sim_;
    ExecContext saved_;
  };

  /// Worker threads for partitioned runs. Defaults to the DICHO_SIM_THREADS
  /// environment variable (unset/1 = serial; "hw" or "0" = hardware
  /// concurrency). With 1 thread, partitioned worlds run on the exact
  /// serial merge of the per-partition queues; with >= 2 threads and a
  /// registered lookahead they run conservative parallel rounds. Results are
  /// identical either way.
  void set_threads(unsigned n) { threads_ = n == 0 ? 1 : n; }
  unsigned threads() const { return threads_; }

  /// Registers a lower bound on cross-partition scheduling delay (the
  /// conservative lookahead). SimNetwork calls this with its base latency;
  /// the smallest registered bound wins. Cross-partition schedules closer
  /// than the bound while the engine is running are a hard error.
  void NoteMinCrossDelay(Time d);
  Time lookahead() const { return lookahead_; }

  /// Scheduling ---------------------------------------------------------------
  /// Schedules `fn` to run `delay` from now on the caller's partition.
  /// Negative delays clamp to 0.
  void Schedule(Time delay, EventFn fn);
  void ScheduleAt(Time t, EventFn fn);

  /// Schedules onto a specific partition (cross-partition message arrival).
  /// While the engine runs, `t` must be at least lookahead() past the
  /// caller's clock when the target is a different partition.
  void ScheduleOnPartitionAt(uint32_t partition, Time t, EventFn fn);

  /// Global events: fault injection and other actions that mutate
  /// world-shared state (crash flags, network partitions). They run on the
  /// coordinating thread with every partition parked at a time barrier, and
  /// execute before any partition event with time >= theirs. In a
  /// single-partition world they degenerate to plain Schedule/ScheduleAt.
  void ScheduleGlobal(Time delay, EventFn fn);
  void ScheduleGlobalAt(Time t, EventFn fn);

  /// Runs events until the queues drain or virtual time would exceed `t`.
  /// Returns the number of events executed.
  uint64_t RunUntil(Time t);

  /// Runs events for `d` of virtual time from now.
  uint64_t RunFor(Time d) { return RunUntil(now_ + d); }

  /// Runs until every event queue is empty (or the safety cap of
  /// `max_events` fires — runaway protection for tests). A finite cap runs
  /// on the exact serial path so the count semantics are precise.
  uint64_t Run(uint64_t max_events = UINT64_MAX);

  size_t pending_events() const;
  uint64_t executed_events() const;
  /// Conservative-round counter (diagnostics for benches/tests).
  uint64_t parallel_rounds() const { return rounds_; }

 private:
  struct WorkerPool;

  /// Key of a buffered trace event, used to merge per-partition buffers
  /// deterministically: the (tkey, skey) of the event being executed when it
  /// was emitted, its emission index within that handler, and tie-breaks
  /// that make the order total.
  struct MergeKey {
    uint64_t tkey;
    uint64_t skey;
    uint32_t intra;
    uint32_t idx;  // index into the partition buffer's event vector
  };

  /// Cross-partition message buffered by a worker during a parallel round;
  /// merged into the destination queue at the round barrier.
  struct OutMsg {
    uint64_t tkey;
    uint64_t skey;
    EventFn fn;
  };

  /// Entry in the serial-merged outer heap (one live entry per non-empty
  /// partition; staleness detected via the partition's stamp).
  struct OuterEntry {
    uint64_t tkey;
    uint64_t skey;
    uint32_t lp;
    uint64_t stamp;
  };

  struct GlobalEvent {
    uint64_t tkey;
    uint64_t seq;
    EventFn fn;
  };

  Lp* CallerLp();
  Time CallerNow() const {
    const ExecContext& c = exec_tls_;
    return c.sim == this ? *c.now : now_;
  }
  void PushEvent(Lp* src, Lp* dst, Time t, EventFn fn);
  void EnsureBuffers();
  void ExecuteOne(Lp* lp, uint64_t tkey, uint64_t skey, uint32_t slot);
  void AppendMergeKeys(Lp* lp, uint64_t tkey, uint64_t skey);
  void RunGlobalTop();
  uint64_t TotalExecuted() const;
  void FinishRun(Time t_limit);
  void MergeTraces();

  uint64_t RunSingle(Time t_limit, uint64_t max_events);
  void RunMerged(Time t_limit, uint64_t max_events);
  void RegisterOuter(Lp* lp);
  void MaybeRegisterOuter(Lp* lp, uint64_t tkey, uint64_t skey);
  void RunParallel(Time t_limit);
  void ExecuteLpRound(Lp* lp, uint64_t h_key, uint64_t limit_key);
  void DrainOutboxes();
  void EnsurePool();

  [[noreturn]] void LookaheadViolation(Time t, Time base) const;

  // The local-exec model is what the linker turns every access into anyway
  // (dicho links statically into executables), and naming it here keeps
  // gcc 12's UBSan honest. Left to the default initial-exec model, gcc
  // checks a reference to exec_tls_ with `addq exec_tls_@gottpoff(%rip),
  // %reg; je <report>`, reusing the add's zero flag; GNU ld's IE->LE
  // relaxation rewrites that add into a `leaq`, which sets no flags, so
  // the `je` reads a stale flag and reports a null reference that cannot
  // exist.
  __attribute__((tls_model("local-exec"))) static thread_local ExecContext
      exec_tls_;
  static thread_local obs::TraceSink* default_trace_sink_;

  Time now_ = 0;
  Rng rng_;  // partition 0's stream (also ambient/setup draws)
  Rng global_rng_;
  uint64_t seed_;
  obs::TraceSink* trace_sink_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;

  unsigned threads_ = 1;
  Time lookahead_ = 0;  // 0 = no cross-partition bound registered
  std::vector<std::unique_ptr<Lp>> lps_;
  std::vector<uint32_t> lp_of_node_;

  std::vector<GlobalEvent> global_queue_;  // binary min-heap on (tkey, seq)
  Time global_now_ = 0;
  uint64_t global_seq_ = 0;
  uint64_t global_executed_ = 0;

  bool running_ = false;      // a multi-partition run is in progress
  bool in_global_ = false;    // currently executing a global (barrier) event
  bool merged_active_ = false;
  bool parallel_phase_ = false;
  std::vector<OuterEntry> outer_heap_;

  std::vector<Lp*> round_active_;
  uint64_t round_hkey_ = 0;
  uint64_t round_limit_key_ = 0;
  uint64_t rounds_ = 0;
  std::unique_ptr<WorkerPool> pool_;
};

}  // namespace dicho::sim

#endif  // DICHO_SIM_SIMULATOR_H_
