#ifndef DICHO_TESTING_HARNESS_H_
#define DICHO_TESTING_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "testing/invariants.h"
#include "testing/schedule.h"

namespace dicho::testing {

/// Deliberate safety bugs the harness can switch on to prove its checkers
/// catch real protocol violations (the "did the smoke detector ever see
/// smoke" calibration every fuzzer needs).
enum class BugInjection {
  kNone,
  /// Raft leader commits + applies at Propose time, skipping majority
  /// replication (RaftConfig::unsafe_commit_without_quorum).
  kRaftCommitWithoutQuorum,
  /// PBFT replica prepares/commits without quorums
  /// (BftConfig::unsafe_skip_prepare_quorum).
  kPbftSkipPrepareQuorum,
};

const char* BugName(BugInjection bug);
/// Accepts the names BugName produces ("none", "raft-no-quorum",
/// "pbft-no-quorum"). Returns false on anything else.
bool ParseBugName(const std::string& name, BugInjection* out);

struct ScenarioOptions {
  uint64_t seed = 1;
  BugInjection bug = BugInjection::kNone;
  /// Non-empty: RunScenario installs a process-default trace sink around the
  /// run and writes the Chrome trace JSON here afterwards. Scenarios build
  /// their simulators internally, so the default-sink hook is the only way
  /// in; serial (single-seed replay) contexts only — never set this in the
  /// parallel sweep.
  std::string trace_path = {};
};

struct ScenarioResult {
  std::string scenario;
  uint64_t seed = 0;
  BugInjection bug = BugInjection::kNone;
  InvariantReport report;
  /// Scenario-defined forward-progress count (entries applied, commands
  /// executed, txns committed). Zero progress is itself reported as a
  /// "liveness" violation by scenarios whose schedules guarantee recovery.
  uint64_t progress = 0;
  uint64_t sim_events = 0;
  /// Human-readable fault schedule this run executed (replay aid).
  std::string schedule;

  bool ok() const { return report.ok(); }
};

/// A named simulation scenario: builds a seeded world, arms the nemesis with
/// a generated fault schedule, drives a client workload, and runs invariant
/// checkers during and after the run. Same (seed, bug) -> identical result.
struct Scenario {
  std::string name;
  std::string description;
  ScenarioResult (*run)(const ScenarioOptions&);
};

/// Registry of every scenario sim_fuzz sweeps:
///   raft_crash_restart    5-node Raft, crash/restart faults only
///   raft_partition        5-node Raft, full nemesis menu
///   raft_parallel         5-node Raft on per-replica partitions, replayed
///                         at 1 and 2 worker threads (must be identical)
///   pbft_crash            4-node PBFT (f=1), crash + loss + jitter
///   pbft_byzantine        7-node PBFT (f=2) with an equivocating replica
///   ledger_pipeline       3-node Raft driving per-node chain + MPT blocks
///   quorum_system         full Quorum pipeline under network faults
///   harmony_system        fused order-then-deterministic-execute pipeline
///                         under network faults; ledgers + state digests
///                         audited
///   txn_serializability   OCC / MVCC / lock-table histories vs serial oracle
///   overload_shed         flash crowd past Quorum capacity behind a bounded
///                         admission gate, under partitions; shed accounting
///                         and conservation audited
///   shard_epoch           harmonyshard cross-shard epochs under partitions
///                         that sever whole shards mid-epoch; atomicity,
///                         digest agreement and a replay oracle audited
///   elastic_growth        3-replica Raft KV group scales out to 5 during a
///                         flash crowd (snapshot transfer + config changes)
///                         on the parallel engine, replayed at 1 and 2
///                         worker threads (must be identical)
///   rolling_restart       serial drain/remove/replace of every replica in
///                         a 5-node group under live traffic
///   laggard_rejoin        a replica isolated across multiple snapshot
///                         intervals must recover via delta catch-up, its
///                         state digest checked against full replay
/// The three lifecycle scenarios drive the shipped driver
/// (runtime::RaftLifecycle over runtime::Transport): their joins and leaves
/// are the calls etcd's AddReplica/RemoveReplica make.
const std::vector<Scenario>& AllScenarios();
const Scenario* FindScenario(const std::string& name);

/// Runs `scenario` and stamps name/seed/bug into the result.
ScenarioResult RunScenario(const Scenario& scenario,
                           const ScenarioOptions& options);

}  // namespace dicho::testing

#endif  // DICHO_TESTING_HARNESS_H_
