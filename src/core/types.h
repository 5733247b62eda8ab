#ifndef DICHO_CORE_TYPES_H_
#define DICHO_CORE_TYPES_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "sim/simulator.h"

namespace dicho::core {

/// One key-value operation inside a transaction.
enum class OpType : uint8_t {
  kRead = 0,
  kWrite = 1,
  /// Read the record, then write it back modified — the paper's skew
  /// experiments use single-record read-modify-write transactions.
  kReadModifyWrite = 2,
};

struct Op {
  OpType type;
  std::string key;
  std::string value;  // for writes
};

/// A transaction as submitted by a client: a contract invocation
/// (contract + method + args) or an explicit op list (KV workloads use
/// ops; Smallbank uses method/args).
struct TxnRequest {
  uint64_t txn_id = 0;
  uint64_t client_id = 0;
  std::string contract;  // "ycsb" | "smallbank" | user-registered
  std::string method;
  std::vector<std::string> args;
  std::vector<Op> ops;
  /// Multi-tenant admission metadata (open-loop arrival engine): which
  /// tenant mix the request came from and the fee it bid. Client-side only
  /// — excluded from Serialize()/PayloadBytes() so ledger bytes and network
  /// costs are unchanged whether or not an admission policy inspects them.
  uint32_t tenant = 0;
  double fee = 1.0;

  /// Approximate wire size (drives the network model).
  uint64_t PayloadBytes() const {
    uint64_t total = 64 + contract.size() + method.size();
    for (const auto& a : args) total += a.size() + 4;
    for (const auto& op : ops) total += op.key.size() + op.value.size() + 8;
    return total;
  }

  std::string Serialize() const;
  static bool Deserialize(const std::string& data, TxnRequest* out);
};

/// Why a transaction aborted — the paper breaks abort rates down by cause
/// (Fig. 9b, Fig. 10b discussion).
enum class AbortReason : uint8_t {
  kNone = 0,
  kWriteConflict,           // write-write (TiDB/Percolator)
  kReadConflict,            // stale read version (Fabric MVCC check)
  kInconsistentEndorsement, // peers returned diverging simulation results
  kContention,              // latch/lock acquisition failed or timed out
  kConstraint,              // application logic abort (e.g. overdraft)
  kUnavailable,             // no leader / node down
  kOther,
  kAdmissionReject,         // shed at the mempool admission gate
  kBadSignature,            // client signature failed block validation
};

const char* AbortReasonName(AbortReason reason);

/// The pipeline stages the benchmarked systems report latency for — the
/// union of every stage the paper's Fig. 8 breakdowns use. Declared in
/// *alphabetical* name order so iterating the enum visits phases exactly
/// like the old per-txn std::map<std::string, Time> did (goldens depend
/// on that ordering).
enum class Phase : uint8_t {
  kAuth = 0,         // "auth"              Fabric query MSP check
  kCommit,           // "commit"            TiDB 2PC commit wave
  kConsensus,        // "consensus"         etcd Raft propose->apply
  kConsensusCommit,  // "consensus+commit"  Quorum consensus + block apply
  kEvmRead,          // "evm-read"          Quorum query through the VM
  kExecute,          // "execute"           Fabric endorsement simulation
  kOrder,            // "order"             Fabric ordering-service wait
  kParse,            // "parse"             TiDB SQL-layer parse/plan
  kPrewrite,         // "prewrite"          TiDB Percolator prewrite wave
  kProposal,         // "proposal"          Quorum mempool wait + proposal
  kRead,             // "read"              storage point-read service
  kValidate,         // "validate"          Fabric MVCC validate + commit
};
inline constexpr size_t kNumPhases = 12;

const char* PhaseName(Phase phase);

/// Per-transaction phase-latency breakdown: a flat array indexed by Phase
/// plus a presence mask — replaces the per-txn heap-allocated string map on
/// the hot path. Only phases a system explicitly stamped are "present";
/// aggregation skips the rest (identical to iterating the old map).
class PhaseTimeline {
 public:
  void Set(Phase phase, sim::Time t) {
    us_[Index(phase)] = t;
    mask_ |= Bit(phase);
  }
  /// Accumulates across retries (TiDB stamps each attempt's waves).
  void Add(Phase phase, sim::Time t) {
    us_[Index(phase)] += t;
    mask_ |= Bit(phase);
  }
  bool Has(Phase phase) const { return (mask_ & Bit(phase)) != 0; }
  /// 0 when the phase was never stamped (matches map::operator[] default).
  sim::Time Get(Phase phase) const {
    return Has(phase) ? us_[Index(phase)] : 0;
  }
  bool empty() const { return mask_ == 0; }

  /// Drops every stamp. Retrying systems reset at the start of each attempt
  /// so the delivered timeline describes the *final* attempt only —
  /// otherwise per-phase aggregation double-counts abandoned attempts'
  /// phase time (the retry-accounting bug fixed alongside src/obs).
  void Reset() {
    us_.fill(0);
    mask_ = 0;
  }

  /// Visits stamped phases in enum (== alphabetical-name) order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < kNumPhases; i++) {
      if ((mask_ & (1u << i)) != 0) {
        fn(static_cast<Phase>(i), us_[i]);
      }
    }
  }

 private:
  static size_t Index(Phase phase) { return static_cast<size_t>(phase); }
  static uint32_t Bit(Phase phase) { return 1u << Index(phase); }

  std::array<sim::Time, kNumPhases> us_{};
  uint32_t mask_ = 0;
};

/// Outcome delivered to the client, with the phase-level latency breakdown
/// used by the Fig. 8 experiments.
struct TxnResult {
  Status status;
  AbortReason reason = AbortReason::kNone;
  sim::Time submit_time = 0;
  sim::Time finish_time = 0;
  /// Typed per-phase breakdown (e.g. kExecute/kOrder/kValidate for Fabric;
  /// kParse/kPrewrite/kCommit for TiDB).
  PhaseTimeline phases;
  /// Values returned by read operations, keyed by record key.
  std::map<std::string, std::string> reads;

  sim::Time latency() const { return finish_time - submit_time; }
};

using TxnCallback = std::function<void(const TxnResult&)>;

/// A read-only query (served without consensus in every benchmarked
/// system — paper Section 2.1).
struct ReadRequest {
  uint64_t client_id = 0;
  std::string key;
};

struct ReadResult {
  Status status;
  std::string value;
  sim::Time submit_time = 0;
  sim::Time finish_time = 0;
  PhaseTimeline phases;

  sim::Time latency() const { return finish_time - submit_time; }
};

using ReadCallback = std::function<void(const ReadResult&)>;

/// Queue-depth / stage-progress gauges the shared runtime layer maintains
/// for every system (mempool admission, inflight tracking, batch cutting).
/// Pure observability: updating these never touches the simulator.
struct StageGauges {
  uint64_t enqueued = 0;      // txns admitted to the mempool/batch queue
  uint64_t batches_cut = 0;   // blocks/batches formed from the queue
  size_t mempool_depth = 0;   // current mempool/batch-queue depth
  size_t mempool_peak = 0;
  size_t inflight_depth = 0;  // txns submitted but not yet resolved
  size_t inflight_peak = 0;
  uint64_t rejected = 0;      // txns shed by the admission gate
};

/// Aggregate counters every system maintains.
struct SystemStats {
  uint64_t committed = 0;
  uint64_t aborted = 0;
  std::map<AbortReason, uint64_t> aborts_by_reason;
  uint64_t queries = 0;
  StageGauges stages;

  double AbortRate() const {
    uint64_t total = committed + aborted;
    return total == 0 ? 0.0 : static_cast<double>(aborted) / total;
  }
};

/// Common interface of every system composition in src/systems and every
/// hybrid built by the fusion framework — the "transactional system" the
/// paper's taxonomy ranges over.
class TransactionalSystem {
 public:
  virtual ~TransactionalSystem() = default;

  virtual void Submit(const TxnRequest& request, TxnCallback cb) = 0;
  virtual void Query(const ReadRequest& request, ReadCallback cb) = 0;
  virtual const SystemStats& stats() const = 0;
  virtual std::string name() const = 0;

  /// Pre-populates one record before the run (bulk seeding). Systems that
  /// replicate state must seed every replica.
  virtual void Load(const std::string& key, const std::string& value) = 0;
  /// Boots background machinery (consensus timers, proposers). Default:
  /// nothing to start.
  virtual void Start() {}
};

}  // namespace dicho::core

#endif  // DICHO_CORE_TYPES_H_
