#include "testing/harness.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <set>

#include "adt/mpt.h"
#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "core/types.h"
#include "lifecycle/membership.h"
#include "obs/trace.h"
#include "ledger/ledger.h"
#include "sim/cost_model.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "systems/harmonylike.h"
#include "systems/harmonyshard.h"
#include "systems/quorum.h"
#include "systems/runtime/elasticity.h"
#include "systems/runtime/registry.h"
#include "systems/runtime/transport.h"
#include "testing/nemesis.h"
#include "testing/serializability.h"
#include "workload/arrival.h"

namespace dicho::testing {

const char* BugName(BugInjection bug) {
  switch (bug) {
    case BugInjection::kNone:
      return "none";
    case BugInjection::kRaftCommitWithoutQuorum:
      return "raft-no-quorum";
    case BugInjection::kPbftSkipPrepareQuorum:
      return "pbft-no-quorum";
  }
  return "none";
}

bool ParseBugName(const std::string& name, BugInjection* out) {
  for (BugInjection bug :
       {BugInjection::kNone, BugInjection::kRaftCommitWithoutQuorum,
        BugInjection::kPbftSkipPrepareQuorum}) {
    if (name == BugName(bug)) {
      *out = bug;
      return true;
    }
  }
  return false;
}

namespace {

std::vector<sim::NodeId> MakeIds(uint32_t n) {
  std::vector<sim::NodeId> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

// --- Raft scenarios ---------------------------------------------------------

ScenarioResult RunRaftScenario(const ScenarioOptions& options,
                               const ScheduleConfig& sched) {
  ScenarioResult result;
  sim::Simulator sim(options.seed);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;

  consensus::RaftConfig config;
  config.unsafe_commit_without_quorum =
      options.bug == BugInjection::kRaftCommitWithoutQuorum;

  RaftInvariantChecker* checker = nullptr;
  auto cluster = consensus::RaftCluster::Create(
      &sim, &net, &costs, MakeIds(sched.num_nodes), config,
      [&checker](sim::NodeId node, uint64_t index, const std::string& cmd) {
        if (checker != nullptr) checker->OnApply(node, index, cmd);
      });
  RaftInvariantChecker check(cluster->all());
  checker = &check;

  Nemesis::Hooks hooks;
  hooks.crash = [&](sim::NodeId id) {
    net.SetNodeDown(id, true);
    cluster->node(id)->Crash();
  };
  hooks.restart = [&](sim::NodeId id) {
    net.SetNodeDown(id, false);
    cluster->node(id)->Restart();
  };
  Nemesis nemesis(&sim, &net, std::move(hooks));
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);
  nemesis.Arm(schedule);
  cluster->StartAll();

  uint64_t next_cmd = 0;
  std::function<void()> client = [&] {
    for (consensus::RaftNode* node : cluster->all()) {
      if (node->IsLeader()) {
        node->Propose("cmd-" + std::to_string(next_cmd++),
                      [](Status, uint64_t) {});
        break;
      }
    }
    sim.Schedule(50 * sim::kMs, client);
  };
  sim.Schedule(10 * sim::kMs, client);
  std::function<void()> observe = [&] {
    check.Observe();
    sim.Schedule(20 * sim::kMs, observe);
  };
  sim.Schedule(20 * sim::kMs, observe);

  sim.RunUntil(sched.horizon);
  check.CheckFinal();
  result.report = *check.report();
  result.progress = check.applied_total();
  if (result.progress == 0) {
    result.report.Add("liveness",
                      "no node applied any command over the whole run "
                      "(schedule guarantees a majority plus a quiet tail)");
  }
  result.sim_events = sim.executed_events();
  result.schedule = schedule.ToString();
  return result;
}

// --- Partitioned-engine scenario (conservative parallel sync) ---------------

// One world: N-node Raft with every replica on its own simulator partition,
// run at `threads` worker threads. Faults and the proposing client are
// injected as global events (all partitions parked); node-local side effects
// run under the node's PartitionScope. Per-node applied logs are the
// outcome the safety and determinism checks run over.
struct PartitionedRaftOutcome {
  std::vector<std::vector<std::pair<uint64_t, std::string>>> applied;
  uint64_t sim_events = 0;
};

PartitionedRaftOutcome RunPartitionedRaftWorld(const ScenarioOptions& options,
                                               const ScheduleConfig& sched,
                                               const FaultSchedule& schedule,
                                               unsigned threads) {
  PartitionedRaftOutcome out;
  sim::Simulator sim(options.seed);
  sim.set_threads(threads);
  std::vector<sim::NodeId> ids = MakeIds(sched.num_nodes);
  for (sim::NodeId id : ids) sim.AssignNode(id, sim.AddPartition());
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;

  consensus::RaftConfig config;
  config.unsafe_commit_without_quorum =
      options.bug == BugInjection::kRaftCommitWithoutQuorum;

  out.applied.resize(sched.num_nodes);
  auto cluster = consensus::RaftCluster::Create(
      &sim, &net, &costs, ids, config,
      [&out](sim::NodeId node, uint64_t index, const std::string& cmd) {
        // Node-confined slot: only ever touched from the node's partition.
        out.applied[node].emplace_back(index, cmd);
      });

  Nemesis::Hooks hooks;
  hooks.crash = [&](sim::NodeId id) {
    net.SetNodeDown(id, true);
    sim::Simulator::PartitionScope scope(&sim, sim.PartitionOfNode(id));
    cluster->node(id)->Crash();
  };
  hooks.restart = [&](sim::NodeId id) {
    net.SetNodeDown(id, false);
    sim::Simulator::PartitionScope scope(&sim, sim.PartitionOfNode(id));
    cluster->node(id)->Restart();
  };
  Nemesis nemesis(&sim, &net, std::move(hooks));
  nemesis.ArmGlobal(schedule);
  cluster->StartAll();

  uint64_t next_cmd = 0;
  std::function<void()> client = [&] {
    for (consensus::RaftNode* node : cluster->all()) {
      if (node->IsLeader()) {
        sim::Simulator::PartitionScope scope(&sim,
                                             sim.PartitionOfNode(node->id()));
        node->Propose("cmd-" + std::to_string(next_cmd++),
                      [](Status, uint64_t) {});
        break;
      }
    }
    sim.ScheduleGlobal(50 * sim::kMs, client);
  };
  sim.ScheduleGlobal(10 * sim::kMs, client);

  sim.RunUntil(sched.horizon);
  out.sim_events = sim.executed_events();
  return out;
}

ScenarioResult RunPartitionedRaftScenario(const ScenarioOptions& options,
                                          const ScheduleConfig& sched) {
  ScenarioResult result;
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);
  PartitionedRaftOutcome serial =
      RunPartitionedRaftWorld(options, sched, schedule, 1);
  PartitionedRaftOutcome parallel =
      RunPartitionedRaftWorld(options, sched, schedule, 2);

  // The conservative parallel engine must replay the serial merge exactly:
  // same per-node apply sequences, same event total.
  if (serial.sim_events != parallel.sim_events ||
      serial.applied != parallel.applied) {
    result.report.Add("parallel-determinism",
                      "threads=2 run diverged from threads=1 (events " +
                          std::to_string(serial.sim_events) + " vs " +
                          std::to_string(parallel.sim_events) + ")");
  }

  // State-machine safety across the cluster: no two applies may disagree on
  // the command at an index (restart re-application must replay the same
  // commands too).
  std::map<uint64_t, std::string> canon;
  for (size_t n = 0; n < serial.applied.size(); n++) {
    for (const auto& [index, cmd] : serial.applied[n]) {
      auto [it, inserted] = canon.emplace(index, cmd);
      if (!inserted && it->second != cmd) {
        result.report.Add(
            "raft-state-machine",
            "node " + std::to_string(n) + " applied '" + cmd + "' at index " +
                std::to_string(index) + " where '" + it->second +
                "' was already applied");
      }
    }
  }
  for (const auto& log : serial.applied) result.progress += log.size();
  if (result.progress == 0) {
    result.report.Add("liveness",
                      "no node applied any command over the whole run "
                      "(schedule guarantees a majority plus a quiet tail)");
  }
  result.sim_events = serial.sim_events;
  result.schedule = schedule.ToString();
  return result;
}

// --- PBFT scenarios ---------------------------------------------------------

ScenarioResult RunBftScenario(const ScenarioOptions& options,
                              const ScheduleConfig& sched,
                              const std::set<sim::NodeId>& byzantine) {
  ScenarioResult result;
  sim::Simulator sim(options.seed);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;

  consensus::BftConfig config;
  config.unsafe_skip_prepare_quorum =
      options.bug == BugInjection::kPbftSkipPrepareQuorum;

  BftInvariantChecker* checker = nullptr;
  auto cluster = consensus::BftCluster::Create(
      &sim, &net, &costs, MakeIds(sched.num_nodes), config,
      [&checker](sim::NodeId node, uint64_t seq, const std::string& cmd) {
        if (checker != nullptr) checker->OnApply(node, seq, cmd);
      });
  BftInvariantChecker check(cluster->all(), byzantine);
  checker = &check;
  for (sim::NodeId evil : byzantine) {
    cluster->node(evil)->SetByzantineEquivocation(true);
  }

  Nemesis::Hooks hooks;
  hooks.crash = [&](sim::NodeId id) {
    net.SetNodeDown(id, true);
    cluster->node(id)->Crash();
  };
  hooks.restart = [&](sim::NodeId id) {
    net.SetNodeDown(id, false);
    cluster->node(id)->Restart();
  };
  Nemesis nemesis(&sim, &net, std::move(hooks));
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);
  nemesis.Arm(schedule);
  cluster->StartAll();

  uint64_t next_cmd = 0;
  std::function<void()> client = [&] {
    std::string cmd = "op-" + std::to_string(next_cmd++);
    for (consensus::BftNode* node : cluster->all()) {
      if (nemesis.IsDown(node->id()) || byzantine.count(node->id()) > 0) {
        continue;
      }
      check.NoteSubmitted(cmd);
      node->Submit(cmd, [](Status, uint64_t) {});
      break;
    }
    sim.Schedule(60 * sim::kMs, client);
  };
  sim.Schedule(10 * sim::kMs, client);

  sim.RunUntil(sched.horizon);
  check.CheckFinal();
  result.report = *check.report();
  result.progress = check.executed_total();
  if (result.progress == 0) {
    result.report.Add("liveness",
                      "no correct replica executed any command over the "
                      "whole run (schedule keeps >= 2f+1 correct replicas "
                      "up plus a quiet tail)");
  }
  result.sim_events = sim.executed_events();
  result.schedule = schedule.ToString();
  return result;
}

// --- Ledger pipeline --------------------------------------------------------

// Each replica turns its Raft apply stream into hash-linked blocks over an
// MPT-authenticated state (a miniature order-execute chain, Quorum-style),
// so the ledger audits get exercised against consensus under faults.
struct PipelineReplica {
  uint64_t applied = 0;  // highest Raft index folded in (restart replays skip)
  std::vector<std::string> buffer;
  adt::MerklePatriciaTrie state;
  ledger::Chain chain;
};

constexpr size_t kPipelineBlockTxns = 5;

void SealPipelineBlock(sim::NodeId id, PipelineReplica* replica,
                       InvariantReport* report) {
  ledger::Block block;
  block.header.number = replica->chain.height();
  block.header.parent = replica->chain.TipDigest();
  // Deterministic across replicas (wall-clock stamps would split the chain).
  block.header.timestamp_us = block.header.number;
  for (const std::string& cmd : replica->buffer) {
    ledger::LedgerTxn txn;
    txn.payload = cmd;
    size_t eq = cmd.find('=');
    txn.write_set.emplace_back(cmd.substr(0, eq), cmd.substr(eq + 1));
    block.txns.push_back(std::move(txn));
  }
  replica->buffer.clear();
  for (const auto& txn : block.txns) {
    for (const auto& [key, value] : txn.write_set) {
      replica->state.Put(key, value);
    }
  }
  block.header.state_digest = replica->state.RootDigest();
  Status s = replica->chain.AppendSealed(
      block.header, ledger::SealedBody::Seal(std::move(block.txns)));
  if (!s.ok()) {
    report->Add("ledger-verify", "node " + std::to_string(id) +
                                     " failed to append its own block: " +
                                     s.message());
  }
}

ScenarioResult RunLedgerPipelineScenario(const ScenarioOptions& options,
                                         const ScheduleConfig& sched) {
  ScenarioResult result;
  sim::Simulator sim(options.seed);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;

  consensus::RaftConfig config;
  config.unsafe_commit_without_quorum =
      options.bug == BugInjection::kRaftCommitWithoutQuorum;

  std::map<sim::NodeId, PipelineReplica> replicas;
  RaftInvariantChecker* checker = nullptr;
  auto cluster = consensus::RaftCluster::Create(
      &sim, &net, &costs, MakeIds(sched.num_nodes), config,
      [&checker, &replicas, &result](sim::NodeId node, uint64_t index,
                                     const std::string& cmd) {
        if (checker != nullptr) checker->OnApply(node, index, cmd);
        PipelineReplica& replica = replicas[node];
        if (index <= replica.applied) return;  // post-restart replay
        replica.applied = index;
        replica.buffer.push_back(cmd);
        if (replica.buffer.size() >= kPipelineBlockTxns) {
          SealPipelineBlock(node, &replica, &result.report);
        }
      });
  RaftInvariantChecker check(cluster->all());
  checker = &check;

  Nemesis::Hooks hooks;
  hooks.crash = [&](sim::NodeId id) {
    net.SetNodeDown(id, true);
    cluster->node(id)->Crash();
  };
  hooks.restart = [&](sim::NodeId id) {
    net.SetNodeDown(id, false);
    cluster->node(id)->Restart();
  };
  Nemesis nemesis(&sim, &net, std::move(hooks));
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);
  nemesis.Arm(schedule);
  cluster->StartAll();

  uint64_t next_cmd = 0;
  std::function<void()> client = [&] {
    for (consensus::RaftNode* node : cluster->all()) {
      if (node->IsLeader()) {
        std::string cmd = "acct" + std::to_string(next_cmd % 7) + "=v" +
                          std::to_string(next_cmd);
        next_cmd++;
        node->Propose(std::move(cmd), [](Status, uint64_t) {});
        break;
      }
    }
    sim.Schedule(40 * sim::kMs, client);
  };
  sim.Schedule(10 * sim::kMs, client);

  sim.RunUntil(sched.horizon);
  check.CheckFinal();
  result.report = *check.report();

  std::vector<const ledger::Chain*> chains;
  for (auto& [id, replica] : replicas) {
    ledger_audit::AuditChain(replica.chain, "node " + std::to_string(id),
                             &result.report);
    chains.push_back(&replica.chain);
  }
  ledger_audit::CheckPrefixAgreement(chains, &result.report);
  const ledger::Chain* longest = nullptr;
  for (const ledger::Chain* chain : chains) {
    if (longest == nullptr || chain->height() > longest->height()) {
      longest = chain;
    }
  }
  if (longest != nullptr) {
    ledger_audit::CheckStateDigests(*longest, {}, &result.report);
  }

  result.progress = check.applied_total();
  if (result.progress == 0) {
    result.report.Add("liveness", "no node applied any command");
  }
  result.sim_events = sim.executed_events();
  result.schedule = schedule.ToString();
  return result;
}

// --- Full Quorum pipeline ---------------------------------------------------

ScenarioResult RunQuorumScenario(const ScenarioOptions& options,
                                 const ScheduleConfig& sched) {
  ScenarioResult result;
  sim::Simulator sim(options.seed);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;

  systems::runtime::SystemOverrides overrides;
  overrides.nodes = sched.num_nodes;
  overrides.block_interval = 150 * sim::kMs;
  overrides.raft_unsafe_commit_without_quorum =
      options.bug == BugInjection::kRaftCommitWithoutQuorum;
  auto system_ptr = systems::runtime::MakeSystemAs<systems::QuorumSystem>(
      "quorum-raft", &sim, &net, &costs, overrides);
  systems::QuorumSystem& system = *system_ptr;
  for (int i = 0; i < 6; i++) {
    system.Load("acct" + std::to_string(i), "0");
  }
  system.Start();

  // Network faults only: the Quorum pipeline does not expose node crashes.
  Nemesis nemesis(&sim, &net, Nemesis::Hooks{});
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);
  nemesis.Arm(schedule);

  uint64_t next_txn = 0;
  std::function<void()> client = [&] {
    core::TxnRequest request;
    request.txn_id = ++next_txn;
    request.client_id = 7;
    request.ops.push_back(
        {core::OpType::kWrite, "acct" + std::to_string(next_txn % 6),
         "v" + std::to_string(next_txn)});
    system.Submit(request, [](const core::TxnResult&) {});
    sim.Schedule(100 * sim::kMs, client);
  };
  sim.Schedule(10 * sim::kMs, client);

  sim.RunUntil(sched.horizon);

  std::vector<const ledger::Chain*> chains;
  for (uint32_t i = 0; i < sched.num_nodes; i++) {
    ledger_audit::AuditChain(system.chain_of(i), "node " + std::to_string(i),
                             &result.report);
    ledger_audit::CheckTxnsOnce(system.chain_of(i),
                                "node " + std::to_string(i), &result.report);
    chains.push_back(&system.chain_of(i));
  }
  ledger_audit::CheckPrefixAgreement(chains, &result.report);

  result.progress = system.stats().committed;
  if (result.progress == 0) {
    result.report.Add("liveness",
                      "no transaction committed over the whole run "
                      "(network heals in the quiet tail)");
  }
  result.sim_events = sim.executed_events();
  result.schedule = schedule.ToString();
  return result;
}

// --- Full harmonylike (fused) pipeline --------------------------------------

ScenarioResult RunHarmonyScenario(const ScenarioOptions& options,
                                  const ScheduleConfig& sched) {
  ScenarioResult result;
  sim::Simulator sim(options.seed);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;

  systems::runtime::SystemOverrides overrides;
  overrides.nodes = sched.num_nodes;
  overrides.block_interval = 150 * sim::kMs;
  overrides.raft_unsafe_commit_without_quorum =
      options.bug == BugInjection::kRaftCommitWithoutQuorum;
  auto system_ptr = systems::runtime::MakeSystemAs<systems::HarmonySystem>(
      "harmonylike", &sim, &net, &costs, overrides);
  systems::HarmonySystem& system = *system_ptr;
  std::vector<std::pair<std::string, std::string>> initial;
  for (int i = 0; i < 4; i++) {
    initial.emplace_back("acct" + std::to_string(i), "0");
    system.Load(initial.back().first, initial.back().second);
  }
  system.Start();

  // Network faults only, as for the Quorum pipeline; the hot-key RMW stream
  // forces multi-layer epoch schedules while the nemesis disturbs ordering.
  Nemesis nemesis(&sim, &net, Nemesis::Hooks{});
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);
  nemesis.Arm(schedule);

  uint64_t next_txn = 0;
  std::function<void()> client = [&] {
    core::TxnRequest request;
    request.txn_id = ++next_txn;
    request.client_id = 7;
    request.contract = "ycsb";
    request.ops.push_back(
        {core::OpType::kReadModifyWrite, "acct" + std::to_string(next_txn % 4),
         "v" + std::to_string(next_txn)});
    system.Submit(request, [](const core::TxnResult&) {});
    sim.Schedule(80 * sim::kMs, client);
  };
  sim.Schedule(10 * sim::kMs, client);

  sim.RunUntil(sched.horizon);

  // Deterministic execution promises replica agreement down to the state
  // root, so this scenario runs the full ledger audit menu: per-node chain
  // verification and txn uniqueness, prefix agreement, and a write-set
  // replay of the longest chain against its headers' state digests.
  std::vector<const ledger::Chain*> chains;
  const ledger::Chain* longest = nullptr;
  for (sim::NodeId id : system.node_ids()) {
    const ledger::Chain& chain = system.chain_of(id);
    ledger_audit::AuditChain(chain, "node " + std::to_string(id),
                             &result.report);
    ledger_audit::CheckTxnsOnce(chain, "node " + std::to_string(id),
                                &result.report);
    chains.push_back(&chain);
    if (longest == nullptr || chain.height() > longest->height()) {
      longest = &chain;
    }
  }
  ledger_audit::CheckPrefixAgreement(chains, &result.report);
  if (longest != nullptr) {
    ledger_audit::CheckStateDigests(*longest, initial, &result.report);
  }
  if (system.stats().aborted != 0) {
    result.report.Add("det-aborts",
                      "deterministic execution reported " +
                          std::to_string(system.stats().aborted) +
                          " aborts on an abort-free workload");
  }

  result.progress = system.stats().committed;
  if (result.progress == 0) {
    result.report.Add("liveness",
                      "no transaction committed over the whole run "
                      "(network heals in the quiet tail)");
  }
  result.sim_events = sim.executed_events();
  result.schedule = schedule.ToString();
  return result;
}

// --- Overload shedding under faults ----------------------------------------

// Flash crowd at ~6x the mempool-bounded Quorum pipeline's capacity while
// the nemesis partitions the network, with the registry-applied admission
// gate (reject-newest, bound 128) in front. Invariants:
//   * exactly-once outcomes — every submitted txn resolves at most once,
//     nothing resolves that was never submitted;
//   * every gate rejection is an explicit kAdmissionReject outcome (counted
//     against the gate's own rejected_count — no silent shedding);
//   * conservation — at the horizon every admitted-but-unresolved txn is
//     still accounted for in the runtime's mempool or inflight table
//     (admitted txns are never silently dropped);
//   * the full per-node ledger-audit menu plus prefix agreement, and no
//     txn id twice on one chain (a re-cut txn whose lost block committed
//     anyway is applied once);
//   * liveness — the healed tail must commit transactions.
ScenarioResult RunOverloadShedScenario(const ScenarioOptions& options,
                                       const ScheduleConfig& sched) {
  ScenarioResult result;
  sim::Simulator sim(options.seed);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;

  systems::runtime::SystemOverrides overrides;
  overrides.nodes = sched.num_nodes;
  overrides.block_interval = 150 * sim::kMs;
  overrides.raft_unsafe_commit_without_quorum =
      options.bug == BugInjection::kRaftCommitWithoutQuorum;
  overrides.admission.policy =
      systems::runtime::AdmissionPolicy::kRejectNewest;
  overrides.admission.max_inflight = 128;
  // The registry wraps the concrete system in the admission gate — the same
  // wiring path the benches use.
  auto gated = systems::runtime::MakeSystem("quorum-raft", &sim, &net, &costs,
                                            overrides);
  auto* gate = static_cast<systems::runtime::AdmissionGate*>(gated.get());
  auto* quorum = static_cast<systems::QuorumSystem*>(gate->inner());
  for (int i = 0; i < 8; i++) {
    quorum->Load("acct" + std::to_string(i), "0");
  }
  gated->Start();

  // Network faults only (as for quorum_system: the pipeline exposes no
  // crash hooks — a fully partitioned node is the crash analog).
  Nemesis nemesis(&sim, &net, Nemesis::Hooks{});
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);
  nemesis.Arm(schedule);

  // Open-loop arrivals from the engine's private Rng: ~150 tps base with
  // two seed-placed 6x flash crowds — far above what 128 admission slots
  // over a partitioned Raft pipeline can absorb, so the gate must shed.
  workload::ArrivalConfig acfg;
  acfg.base_rate_tps = 150;
  acfg.flash_count = 2;
  acfg.flash_amplitude = 6.0;
  acfg.flash_duration = 1 * sim::kSec;
  acfg.horizon = sched.horizon * (1.0 - sched.quiet_tail);
  acfg.record_count = 8;
  acfg.zipf_theta = 0.5;
  workload::ArrivalEngine engine(acfg, options.seed * 7919 + 17);

  uint64_t submitted = 0;
  uint64_t reject_outcomes = 0;
  std::map<uint64_t, int> outcome_counts;
  const sim::Time stop_time = acfg.horizon;
  std::function<void()> pump = [&] {
    workload::Arrival arrival = engine.Next(sim.Now());
    if (arrival.time >= stop_time) return;
    sim.ScheduleAt(arrival.time, [&, arrival] {
      core::TxnRequest request;
      request.txn_id = ++submitted;
      request.client_id = 7;
      request.tenant = arrival.tenant;
      request.fee = arrival.fee;
      request.ops.push_back(
          {core::OpType::kWrite,
           "acct" + std::to_string(arrival.key_index % 8),
           "v" + std::to_string(submitted)});
      uint64_t id = request.txn_id;
      gated->Submit(request, [&, id](const core::TxnResult& txn_result) {
        outcome_counts[id]++;
        if (id == 0 || id > submitted) {
          result.report.Add("outcome-provenance",
                            "outcome for never-submitted txn " +
                                std::to_string(id));
        }
        bool is_reject =
            txn_result.reason == core::AbortReason::kAdmissionReject;
        if (is_reject) {
          reject_outcomes++;
          if (txn_result.status.ok()) {
            result.report.Add("reject-outcome",
                              "admission reject delivered with ok status "
                              "for txn " + std::to_string(id));
          }
        }
      });
      pump();
    });
  };
  pump();

  sim.RunUntil(sched.horizon);

  for (const auto& [id, count] : outcome_counts) {
    if (count > 1) {
      result.report.Add("outcome-exactly-once",
                        "txn " + std::to_string(id) + " resolved " +
                            std::to_string(count) + " times");
    }
  }
  if (reject_outcomes != gate->rejected_count()) {
    result.report.Add("reject-accounting",
                      "gate counted " +
                          std::to_string(gate->rejected_count()) +
                          " rejections but clients observed " +
                          std::to_string(reject_outcomes));
  }
  // Conservation: admitted = submitted - rejected; unresolved admitted txns
  // must all still sit in the runtime's queues — none silently dropped.
  uint64_t resolved = outcome_counts.size();
  uint64_t unresolved = submitted - resolved;
  if (unresolved != gate->gate_depth()) {
    result.report.Add("conservation",
                      std::to_string(unresolved) +
                          " unresolved txns vs gate depth " +
                          std::to_string(gate->gate_depth()));
  }
  const core::StageGauges& stages = gated->stats().stages;
  size_t queued = stages.mempool_depth + stages.inflight_depth;
  if (gate->gate_depth() != queued) {
    result.report.Add(
        "no-silent-drop",
        std::to_string(gate->gate_depth()) +
            " admitted txns outstanding but only " + std::to_string(queued) +
            " accounted in mempool+inflight (the rest vanished)");
  }

  std::vector<const ledger::Chain*> chains;
  for (uint32_t i = 0; i < sched.num_nodes; i++) {
    ledger_audit::AuditChain(quorum->chain_of(i), "node " + std::to_string(i),
                             &result.report);
    ledger_audit::CheckTxnsOnce(quorum->chain_of(i),
                                "node " + std::to_string(i), &result.report);
    chains.push_back(&quorum->chain_of(i));
  }
  ledger_audit::CheckPrefixAgreement(chains, &result.report);

  result.progress = gated->stats().committed;
  if (result.progress == 0) {
    result.report.Add("liveness",
                      "no transaction committed over the whole run "
                      "(network heals in the quiet tail)");
  }
  result.sim_events = sim.executed_events();
  result.schedule = schedule.ToString();
  return result;
}

// --- Transaction serializability --------------------------------------------

ScenarioResult RunTxnScenario(const ScenarioOptions& options) {
  ScenarioResult result;
  HistoryConfig config;
  struct Scheme {
    const char* name;
    HistoryResult (*run)(uint64_t, const HistoryConfig&);
  };
  const Scheme schemes[] = {{"occ", RunOccHistory},
                            {"mvcc", RunMvccHistory},
                            {"lock-table", RunLockTableHistory}};
  for (const Scheme& scheme : schemes) {
    HistoryResult history = scheme.run(options.seed, config);
    for (const std::string& error : history.errors) {
      result.report.Add("txn-progress",
                        std::string(scheme.name) + ": " + error);
    }
    std::string error;
    if (!CheckSerialEquivalence({}, history.committed, &error)) {
      result.report.Add("txn-serializability",
                        std::string(scheme.name) + ": " + error);
    }
    result.progress += history.committed.size();
  }
  result.schedule = "(no nemesis: interleavings are drawn from the seed)";
  return result;
}

// --- Cross-shard epoch fusion (harmonyshard) --------------------------------

// Raft shards plus a Raft sequencer group under partitions that sever whole
// shards mid-epoch (the generated virtual partition over {0..num_shards-1}
// is mapped onto the real shard node spans; the sequencer and the client
// ride with shard 0's side), drop bursts, and jitter spikes that lag
// individual shards' consensus. A two-key RMW stream over a small hot set
// makes a steady fraction of transactions cross-shard. Invariants:
//   * epoch atomicity + order agreement — every shard applies exactly the
//     epoch sequence the sequencer ordered (per-shard digest streams equal
//     in content and length: an epoch lands on all shards or none);
//   * zero aborts (deterministic execution, abort-free workload) and zero
//     2PC rounds (the epoch path has no prepare/decide to count);
//   * at-most-once completion per transaction;
//   * replay oracle — re-executing the applied epoch stream on a fresh
//     global state must reproduce every live shard's MPT root digest;
//   * liveness — the healed tail must commit transactions.
ScenarioResult RunShardEpochScenario(const ScenarioOptions& options,
                                     const ScheduleConfig& sched) {
  ScenarioResult result;
  sim::Simulator sim(options.seed);
  sim::SimNetwork net(&sim, sim::NetworkConfig{});
  sim::CostModel costs;

  systems::HarmonyShardConfig config;
  config.num_shards = sched.num_nodes;  // one virtual nemesis node per shard
  config.nodes_per_shard = 3;
  config.sequencer_nodes = 3;
  config.record_payloads = true;  // replay oracle input
  config.raft.unsafe_commit_without_quorum =
      options.bug == BugInjection::kRaftCommitWithoutQuorum;
  systems::HarmonyShardSystem system(&sim, &net, &costs, config);
  std::vector<std::pair<std::string, std::string>> initial;
  for (int i = 0; i < 4; i++) {
    initial.emplace_back("acct" + std::to_string(i), "0");
    system.Load(initial.back().first, initial.back().second);
  }
  system.Start();

  // The generated schedule partitions virtual nodes {0..num_shards-1}; each
  // virtual node is one whole shard's real id span, so a partition severs
  // shards from each other (and from the sequencer) without ever splitting
  // a replication group internally.
  Nemesis nemesis(&sim, &net, Nemesis::Hooks{});
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);
  for (FaultAction& action : schedule.actions) {
    if (action.kind != FaultAction::Kind::kPartition) continue;
    std::vector<std::vector<sim::NodeId>> groups;
    for (const auto& group : action.groups) {
      std::vector<sim::NodeId> real;
      bool has_shard0 = false;
      for (sim::NodeId virtual_id : group) {
        uint32_t s = static_cast<uint32_t>(virtual_id);
        if (s >= system.num_shards()) continue;
        if (s == 0) has_shard0 = true;
        const auto& ids = system.shard(s).node_ids();
        real.insert(real.end(), ids.begin(), ids.end());
      }
      if (has_shard0) {
        const auto& seq = system.sequencer().node_ids();
        real.insert(real.end(), seq.begin(), seq.end());
        real.push_back(config.client_node);
      }
      groups.push_back(std::move(real));
    }
    action.groups = std::move(groups);
  }
  nemesis.Arm(schedule);

  // Two-key hot-set RMW stream: the keys hash across the shards, so a
  // steady fraction of transactions touches two shards and exercises the
  // ReadForward path. The client stops at the quiet tail so every ordered
  // epoch can settle before the final checks.
  const sim::Time stop_time =
      static_cast<sim::Time>(sched.horizon * (1.0 - sched.quiet_tail));
  uint64_t next_txn = 0;
  std::map<uint64_t, int> outcomes;
  std::function<void()> client = [&] {
    if (sim.Now() >= stop_time) return;
    core::TxnRequest request;
    request.txn_id = ++next_txn;
    request.client_id = 7;
    request.contract = "ycsb";
    request.ops.push_back(
        {core::OpType::kReadModifyWrite, "acct" + std::to_string(next_txn % 4),
         "v" + std::to_string(next_txn)});
    request.ops.push_back({core::OpType::kReadModifyWrite,
                           "acct" + std::to_string((next_txn + 1) % 4),
                           "w" + std::to_string(next_txn)});
    uint64_t id = request.txn_id;
    system.Submit(request, [&result, &outcomes, id](const core::TxnResult&) {
      if (++outcomes[id] > 1) {
        result.report.Add("exactly-once", "txn " + std::to_string(id) +
                                              " resolved more than once");
      }
    });
    sim.Schedule(80 * sim::kMs, client);
  };
  sim.Schedule(10 * sim::kMs, client);

  sim.RunUntil(sched.horizon);

  // Epoch atomicity + order agreement: every shard's applied digest stream
  // must equal shard 0's and count exactly what the sequencer ordered.
  const uint64_t ordered = system.sequencer().epochs_cut();
  const auto& digests0 = system.shard(0).epoch_digests();
  for (uint32_t s = 0; s < system.num_shards(); s++) {
    const auto& digests = system.shard(s).epoch_digests();
    if (digests.size() != ordered) {
      result.report.Add(
          "epoch-atomicity",
          "shard " + std::to_string(s) + " applied " +
              std::to_string(digests.size()) + " epochs but the sequencer " +
              "ordered " + std::to_string(ordered));
    }
    if (s > 0 && digests != digests0) {
      result.report.Add("epoch-agreement",
                        "shard " + std::to_string(s) +
                            " epoch digest stream diverges from shard 0");
    }
  }

  if (system.stats().aborted != 0) {
    result.report.Add("det-aborts",
                      "deterministic execution reported " +
                          std::to_string(system.stats().aborted) +
                          " aborts on an abort-free workload");
  }
  if (system.sharding_stats().two_pc_rounds != 0) {
    result.report.Add("no-2pc",
                      "epoch path reported " +
                          std::to_string(system.sharding_stats().two_pc_rounds) +
                          " 2PC rounds; it must never coordinate");
  }

  // Replay oracle: re-execute shard 0's applied epoch stream serially on a
  // fresh global key-value world; rebuilding each shard's MPT from the
  // final world must reproduce every live shard's root digest (the MPT root
  // is insertion-order independent, so content equality is exact).
  {
    class WorldView : public contract::StateView {
     public:
      explicit WorldView(const std::map<std::string, std::string>* world)
          : world_(world) {}
      Status Get(const Slice& key, std::string* value) override {
        auto it = world_->find(key.ToString());
        if (it == world_->end()) return Status::NotFound();
        *value = it->second;
        return Status::Ok();
      }

     private:
      const std::map<std::string, std::string>* world_;
    };
    std::map<std::string, std::string> world(initial.begin(), initial.end());
    auto contracts = contract::ContractRegistry::CreateDefault();
    txn::DeterministicExecutor executor(contracts.get(), &costs,
                                        config.exec_lanes);
    for (const std::string& payload : system.shard(0).applied_payloads()) {
      sharding::EpochBatch batch;
      if (!sharding::EpochBatch::Deserialize(payload, &batch)) {
        result.report.Add("replay", "undecodable applied epoch payload");
        continue;
      }
      WorldView view(&world);
      txn::EpochOutcome outcome = executor.ExecuteEpoch(batch.txns, &view);
      for (const auto& txn_result : outcome.results) {
        for (const auto& [key, value] : txn_result.writes) {
          world[key] = value;
        }
      }
    }
    for (uint32_t s = 0; s < system.num_shards(); s++) {
      adt::MerklePatriciaTrie rebuilt;
      for (const auto& [key, value] : world) {
        if (system.partitioner().ShardOf(key) == s) rebuilt.Put(key, value);
      }
      if (!(rebuilt.RootDigest() == system.shard(s).StateDigest())) {
        result.report.Add(
            "state-digest",
            "shard " + std::to_string(s) +
                " live MPT root differs from the replay oracle's rebuild");
      }
    }
  }

  result.progress = system.stats().committed;
  if (result.progress == 0) {
    result.report.Add("liveness",
                      "no transaction committed over the whole run "
                      "(network heals in the quiet tail)");
  }
  result.sim_events = sim.executed_events();
  result.schedule = schedule.ToString();
  return result;
}

// --- Elasticity (replica lifecycle) -----------------------------------------

struct ElasticOptions {
  uint32_t initial_nodes = 3;
  /// Ids [0, max_nodes) are pre-assigned simulator partitions at world
  /// construction, so joiners never add partitions mid-run (the parallel
  /// engine's partition set is fixed once running).
  uint32_t max_nodes = 5;
  bool partitioned = false;  // one simulator partition per replica
  unsigned threads = 1;
  sim::Time horizon = 10 * sim::kSec;
  sim::Time client_gap = 20 * sim::kMs;
  /// Flash crowd: inside [flash_start, flash_end) the client tightens its
  /// gap to flash_gap (0 = no flash crowd).
  sim::Time flash_gap = 0;
  sim::Time flash_start = 0;
  sim::Time flash_end = 0;
  /// The leader folds a snapshot (and compacts its log) once this many
  /// entries applied past the previous anchor.
  uint64_t snapshot_every = 48;
  uint32_t key_space = 48;
};

/// A replicated key-value Raft group ("k=v" put commands) on the systems'
/// runtime — runtime::Transport plus runtime::RaftLifecycle, the lifecycle
/// driver etcd, harmonylike and harmonyshard ship — under nemesis control.
/// Joins and leaves enter through the same driver calls the systems'
/// AddReplica/RemoveReplica make; snapshot folds, log compaction and
/// laggard rescue are the driver's. This class only adds the client, the
/// apply observers and the final invariant checks. Control events run as
/// global events (plain events in single-partition worlds), so the
/// partitioned world replays identically at any worker-thread count.
class ElasticRaftGroup {
 public:
  ElasticRaftGroup(uint64_t seed, const ElasticOptions& opts, BugInjection bug)
      : opts_(opts), sim_(seed), net_(&sim_, sim::NetworkConfig{}) {
    sim_.set_threads(opts_.threads);
    if (opts_.partitioned) {
      for (sim::NodeId id = 0; id < opts_.max_nodes; id++) {
        sim_.AssignNode(id, sim_.AddPartition());
      }
      net_.SyncPartitions();  // partitions were added after net_ constructed
    }
    applied_.resize(opts_.max_nodes);
    views_.resize(opts_.max_nodes);

    elasticity_.enabled = true;
    elasticity_.snapshot_every = opts_.snapshot_every;
    // Fail fast: a transfer aimed at (or from) a node behind a partition
    // is doomed, and while it retries its target is busy. Short attempts
    // plus the driver's re-initiation from a fresh fold beat long backoff.
    elasticity_.transfer.retry_timeout = 150 * sim::kMs;
    elasticity_.transfer.max_attempts = 4;
    systems::runtime::TransportConfig transport;
    transport.kind = systems::runtime::TransportKind::kRaft;
    transport.raft.unsafe_commit_without_quorum =
        bug == BugInjection::kRaftCommitWithoutQuorum;
    transport_ = std::make_unique<systems::runtime::Transport>(
        &sim_, &net_, &costs_, MakeIds(opts_.initial_nodes), transport,
        [this](size_t index, uint64_t seq, const std::string& cmd) {
          sim::NodeId id = static_cast<sim::NodeId>(index);
          applied_[id].emplace_back(seq, cmd);
          std::map<std::string, std::string> put;
          CatchupDigestChecker::ApplyCommand(cmd, &put);
          lifecycle_->OnApply(id, seq, {put.begin(), put.end()});
        });
    lifecycle_ = std::make_unique<systems::runtime::RaftLifecycle>(
        &sim_, &net_, transport_.get(), &elasticity_, "lifecycle.fuzz",
        /*install=*/nullptr);
    for (consensus::RaftNode* node : transport_->raft()->all()) {
      WatchViews(node);
    }
  }

  void Run(const FaultSchedule& schedule) {
    // The lifecycle schedules never crash a node, so only the lifecycle
    // hooks are wired.
    consensus::RaftCluster* cluster = transport_->raft();
    Nemesis::Hooks hooks;
    hooks.join = [this, cluster](sim::NodeId id) {
      if (id >= opts_.max_nodes || cluster->node(id) != nullptr) return;
      lifecycle_->Join(id, [this, id](const systems::runtime::JoinReport& r) {
        if (r.ok) joined_.insert(id);
      });
      WatchViews(cluster->node(id));
    };
    hooks.leave = [this](sim::NodeId id) {
      lifecycle_->Leave(id, /*drain=*/false, nullptr);
    };
    hooks.drain = [this](sim::NodeId id) {
      lifecycle_->Leave(id, /*drain=*/true, nullptr);
    };
    Nemesis nemesis(&sim_, &net_, std::move(hooks));
    nemesis.ArmGlobal(schedule);
    transport_->Start();
    lifecycle_->Start();
    StartClient();
    sim_.RunUntil(opts_.horizon);
    sim_events_ = sim_.executed_events();
  }

  /// Determinism oracle for the parallel engine: two worlds with the same
  /// (seed, schedule) must agree on every per-node apply log, every
  /// membership observation, and the event total.
  bool SameOutcome(const ElasticRaftGroup& other) const {
    return applied_ == other.applied_ && views_ == other.views_ &&
           sim_events_ == other.sim_events_;
  }

  void FinalChecks(const FaultSchedule& schedule, ScenarioResult* result) {
    // State-machine agreement + canonical committed log.
    std::map<uint64_t, std::string> canon;
    for (sim::NodeId id = 0; id < opts_.max_nodes; id++) {
      for (const auto& [index, cmd] : applied_[id]) {
        auto [it, inserted] = canon.emplace(index, cmd);
        if (!inserted && it->second != cmd) {
          result->report.Add(
              "raft-state-machine",
              "node " + std::to_string(id) + " applied '" + cmd +
                  "' at index " + std::to_string(index) + " where '" +
                  it->second + "' was already applied");
        }
      }
      result->progress += applied_[id].size();
    }
    // Membership-change safety over every observed config.
    MembershipInvariantChecker mcheck;
    mcheck.SeedInitial(MakeIds(opts_.initial_nodes));
    for (sim::NodeId id = 0; id < opts_.max_nodes; id++) {
      for (const auto& view : views_[id]) mcheck.OnConfigChange(id, view);
    }
    mcheck.CheckFinal();
    result->report.Merge(*mcheck.report());
    // Catch-up correctness: every replica's materialized state — whether it
    // got there by normal applies, snapshot install, or delta rescue — must
    // equal a replay of the canonical log through its frontier.
    CatchupDigestChecker dcheck;
    for (const auto& [index, cmd] : canon) dcheck.NoteCommitted(index, cmd);
    for (sim::NodeId id = 0; id < opts_.max_nodes; id++) {
      const systems::runtime::ReplicaTracker* tracker = lifecycle_->tracker(id);
      if (tracker == nullptr) continue;
      dcheck.CheckNode(id, tracker->applied_seq(), tracker->state());
    }
    result->report.Merge(*dcheck.report());
    // Log matching across whatever membership survived (snapshot-aware).
    RaftInvariantChecker rcheck(transport_->raft()->all());
    rcheck.CheckFinal();
    result->report.Merge(*rcheck.report());
    // Every scheduled join/leave must have finished inside the horizon (the
    // schedules leave a generous quiet tail).
    consensus::RaftNode* leader = transport_->raft()->leader();
    for (const FaultAction& action : schedule.actions) {
      if (action.kind == FaultAction::Kind::kJoin &&
          joined_.count(action.node) == 0) {
        result->report.Add("join-liveness",
                           "node " + std::to_string(action.node) +
                               " never finished joining (transfer + config "
                               "change + start + catch-up)");
      }
      if ((action.kind == FaultAction::Kind::kLeave ||
           action.kind == FaultAction::Kind::kDrain) &&
          leader != nullptr && leader->membership().Contains(action.node)) {
        result->report.Add("leave-liveness",
                           "node " + std::to_string(action.node) +
                               " is still a member after its scheduled leave");
      }
    }
    if (result->progress == 0) {
      result->report.Add("liveness",
                         "no node applied any command over the whole run");
    }
    result->sim_events = sim_events_;
  }

  uint32_t installs(sim::NodeId id) const { return lifecycle_->installs(id); }

 private:
  /// Records every membership view `node` commits (node-confined: fires on
  /// the node's own partition).
  void WatchViews(consensus::RaftNode* node) {
    sim::NodeId id = node->id();
    node->set_on_config_change(
        [this, id](const lifecycle::MembershipView& view) {
          views_[id].push_back(view);
        });
  }

  void StartClient() {
    client_tick_ = [this] {
      consensus::RaftNode* leader = transport_->raft()->leader();
      if (leader != nullptr) {
        sim::Simulator::PartitionScope scope(&sim_,
                                             sim_.PartitionOfNode(leader->id()));
        uint64_t n = next_op_++;
        leader->Propose("k" + std::to_string(n % opts_.key_space) + "=v" +
                            std::to_string(n),
                        [](Status, uint64_t) {});
      }
      sim::Time gap = opts_.client_gap;
      if (opts_.flash_gap > 0 && sim_.Now() >= opts_.flash_start &&
          sim_.Now() < opts_.flash_end) {
        gap = opts_.flash_gap;
      }
      sim_.ScheduleGlobal(gap, client_tick_);
    };
    sim_.ScheduleGlobal(10 * sim::kMs, client_tick_);
  }

  ElasticOptions opts_;
  sim::Simulator sim_;
  sim::SimNetwork net_;
  sim::CostModel costs_;
  systems::runtime::ElasticityConfig elasticity_;
  std::unique_ptr<systems::runtime::Transport> transport_;
  std::unique_ptr<systems::runtime::RaftLifecycle> lifecycle_;

  // Node-confined observations (only appended on the owning partition).
  std::vector<std::vector<std::pair<uint64_t, std::string>>> applied_;
  std::vector<std::vector<lifecycle::MembershipView>> views_;

  // Control-plane state (global events only).
  std::set<sim::NodeId> joined_;
  uint64_t next_op_ = 0;
  uint64_t sim_events_ = 0;
  std::function<void()> client_tick_;
};

// Scale-out during a flash crowd, on the parallel engine: 3 replicas grow to
// 5 while the client floods, replayed at 1 and 2 worker threads (identical
// outcomes required).
ScenarioResult RunElasticGrowthScenario(const ScenarioOptions& options) {
  ScenarioResult result;
  ScheduleConfig sched;
  sched.num_nodes = 3;
  sched.horizon = 10 * sim::kSec;
  sched.allow_crash = false;
  sched.allow_partition = false;
  sched.allow_drop = false;
  sched.max_jitter_us = 10 * sim::kMs;
  sched.max_joins = 2;
  FaultSchedule schedule = GenerateSchedule(options.seed, sched);

  ElasticOptions eopts;
  eopts.initial_nodes = 3;
  eopts.max_nodes = 5;
  eopts.partitioned = true;
  eopts.horizon = sched.horizon;
  eopts.client_gap = 15 * sim::kMs;
  eopts.flash_gap = 3 * sim::kMs;
  eopts.flash_start = 2500 * sim::kMs;
  eopts.flash_end = 4500 * sim::kMs;

  eopts.threads = 1;
  ElasticRaftGroup serial(options.seed, eopts, options.bug);
  serial.Run(schedule);
  {
    eopts.threads = 2;
    ElasticRaftGroup parallel(options.seed, eopts, options.bug);
    parallel.Run(schedule);
    if (!serial.SameOutcome(parallel)) {
      result.report.Add("parallel-determinism",
                        "threads=2 elastic world diverged from threads=1 "
                        "(apply logs, membership views, or event totals)");
    }
  }
  serial.FinalChecks(schedule, &result);
  result.schedule = schedule.ToString();
  return result;
}

// Serial drain/replace of every original replica: node i is drained
// (leadership handed off if it leads), removed, and replaced by fresh node
// 5+i — a rolling restart where the whole fleet turns over.
ScenarioResult RunRollingRestartScenario(const ScenarioOptions& options) {
  ScenarioResult result;
  ScheduleConfig noise;
  noise.num_nodes = 5;
  noise.horizon = 13 * sim::kSec;
  noise.allow_crash = false;
  noise.allow_partition = false;
  noise.allow_drop = false;
  noise.max_jitter_us = 8 * sim::kMs;
  FaultSchedule schedule = GenerateSchedule(options.seed, noise);
  for (uint32_t i = 0; i < 5; i++) {
    FaultAction drain;
    drain.at = (400 + 1800 * i) * sim::kMs;
    drain.kind = FaultAction::Kind::kDrain;
    drain.node = i;
    schedule.actions.push_back(drain);
    FaultAction join;
    join.at = drain.at + 900 * sim::kMs;
    join.kind = FaultAction::Kind::kJoin;
    join.node = 5 + i;
    schedule.actions.push_back(join);
  }
  std::stable_sort(
      schedule.actions.begin(), schedule.actions.end(),
      [](const FaultAction& a, const FaultAction& b) { return a.at < b.at; });

  ElasticOptions eopts;
  eopts.initial_nodes = 5;
  eopts.max_nodes = 10;
  eopts.horizon = noise.horizon;
  eopts.client_gap = 25 * sim::kMs;
  eopts.snapshot_every = 40;
  ElasticRaftGroup world(options.seed, eopts, options.bug);
  world.Run(schedule);
  world.FinalChecks(schedule, &result);
  result.schedule = schedule.ToString();
  return result;
}

// A replica is partitioned away twice while the leader keeps snapshotting
// and compacting its log past the laggard's position; each heal must end in
// a delta snapshot rescue (the second one reusing chunks already fetched).
ScenarioResult RunLaggardRejoinScenario(const ScenarioOptions& options) {
  ScenarioResult result;
  ScheduleConfig noise;
  noise.num_nodes = 5;
  noise.horizon = 11 * sim::kSec;
  noise.allow_crash = false;
  noise.allow_partition = false;
  noise.allow_drop = false;
  noise.max_jitter_us = 8 * sim::kMs;
  FaultSchedule schedule = GenerateSchedule(options.seed, noise);

  const sim::NodeId laggard = static_cast<sim::NodeId>(options.seed % 5);
  std::vector<sim::NodeId> rest;
  for (sim::NodeId id = 0; id < 5; id++) {
    if (id != laggard) rest.push_back(id);
  }
  auto cut = [&](sim::Time at, FaultAction::Kind kind) {
    FaultAction action;
    action.at = at;
    action.kind = kind;
    if (kind == FaultAction::Kind::kPartition) {
      action.groups = {{laggard}, rest};
    }
    schedule.actions.push_back(action);
  };
  cut(800 * sim::kMs, FaultAction::Kind::kPartition);
  cut(3800 * sim::kMs, FaultAction::Kind::kHeal);
  cut(5500 * sim::kMs, FaultAction::Kind::kPartition);
  cut(7500 * sim::kMs, FaultAction::Kind::kHeal);
  std::stable_sort(
      schedule.actions.begin(), schedule.actions.end(),
      [](const FaultAction& a, const FaultAction& b) { return a.at < b.at; });

  ElasticOptions eopts;
  eopts.initial_nodes = 5;
  eopts.max_nodes = 5;
  eopts.horizon = noise.horizon;
  eopts.client_gap = 18 * sim::kMs;
  eopts.snapshot_every = 32;
  ElasticRaftGroup world(options.seed, eopts, options.bug);
  world.Run(schedule);
  world.FinalChecks(schedule, &result);
  // Both isolation windows outlast several snapshot intervals, so log
  // back-fill is impossible and the laggard's recovery proves the delta
  // catch-up path ran.
  if (world.installs(laggard) == 0 && result.report.ok()) {
    result.report.Add("catchup-liveness",
                      "laggard node " + std::to_string(laggard) +
                          " was never rescued by a snapshot transfer despite "
                          "the leader compacting past it");
  }
  result.schedule = schedule.ToString();
  return result;
}

}  // namespace

const std::vector<Scenario>& AllScenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"raft_crash_restart",
       "5-node Raft under crash/restart faults (<=2 down at once)",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 5;
         sched.max_concurrent_down = 2;
         sched.allow_partition = false;
         sched.allow_drop = false;
         sched.allow_jitter = false;
         sched.horizon = 10 * sim::kSec;
         return RunRaftScenario(options, sched);
       }},
      {"raft_partition",
       "5-node Raft under the full nemesis menu: crashes, partitions, "
       "message-drop bursts, jitter spikes",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 5;
         sched.max_concurrent_down = 2;
         sched.horizon = 10 * sim::kSec;
         return RunRaftScenario(options, sched);
       }},
      {"raft_parallel",
       "5-node Raft with one simulator partition per replica, faults and "
       "client injected via global events; the same seed runs at 1 and 2 "
       "worker threads and must produce identical apply logs and event "
       "totals (conservative parallel engine determinism)",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 5;
         sched.max_concurrent_down = 2;
         sched.horizon = 5 * sim::kSec;
         return RunPartitionedRaftScenario(options, sched);
       }},
      {"pbft_crash",
       "4-node PBFT (f=1) under crash/restart, loss bursts and jitter",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 4;
         sched.max_concurrent_down = 1;
         sched.allow_partition = false;
         sched.max_drop_rate = 0.2;
         sched.horizon = 8 * sim::kSec;
         return RunBftScenario(options, sched, {});
       }},
      {"pbft_byzantine",
       "7-node PBFT (f=2) with an equivocating replica 0, plus one "
       "crash/restart budget and loss bursts",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 7;
         sched.max_concurrent_down = 1;
         sched.allow_partition = false;
         sched.max_drop_rate = 0.2;
         sched.horizon = 8 * sim::kSec;
         return RunBftScenario(options, sched, {0});
       }},
      {"ledger_pipeline",
       "3-node Raft apply stream sealed into per-node hash-linked blocks "
       "over MPT state; chains audited block by block",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 3;
         sched.max_concurrent_down = 1;
         sched.allow_partition = false;
         sched.allow_drop = false;
         sched.allow_jitter = false;
         sched.horizon = 8 * sim::kSec;
         return RunLedgerPipelineScenario(options, sched);
       }},
      {"quorum_system",
       "full Quorum (order-execute blockchain on Raft) under partitions, "
       "loss bursts and jitter; per-node ledgers audited",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 4;
         sched.allow_crash = false;
         sched.max_drop_rate = 0.3;
         sched.horizon = 8 * sim::kSec;
         sched.quiet_tail = 0.35;
         return RunQuorumScenario(options, sched);
       }},
      {"harmony_system",
       "fused order-then-deterministic-execute pipeline (harmonylike) under "
       "partitions, loss bursts and jitter; chains, prefix agreement and "
       "state-digest replay audited",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 4;
         sched.allow_crash = false;
         sched.max_drop_rate = 0.3;
         sched.horizon = 8 * sim::kSec;
         sched.quiet_tail = 0.35;
         return RunHarmonyScenario(options, sched);
       }},
      {"txn_serializability",
       "random OCC / MVCC / lock-table histories checked against a serial "
       "oracle (final state certified by an audit txn)",
       [](const ScenarioOptions& options) { return RunTxnScenario(options); }},
      {"overload_shed",
       "flash crowd far past Quorum's capacity with a reject-newest admission "
       "gate under partitions; exactly-once outcomes, reject accounting, "
       "no-silent-drop conservation and ledger audits checked",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 4;
         sched.allow_crash = false;
         // Partitions + jitter only: iid message loss would break the
         // strict conservation check (the Quorum client path has no
         // retransmit, so a dropped submit or completion legitimately
         // vanishes). Partitions never cut the client links — the client
         // node is outside every replica group — so conservation stays
         // exact while consensus is still stressed.
         sched.allow_drop = false;
         sched.horizon = 8 * sim::kSec;
         sched.quiet_tail = 0.35;
         return RunOverloadShedScenario(options, sched);
       }},
      {"shard_epoch",
       "harmonyshard (global sequencer + 3 Raft shards) under partitions "
       "that sever whole shards mid-epoch, drop bursts and jitter; epoch "
       "atomicity, digest agreement, zero 2PC rounds, at-most-once "
       "completions and a global replay oracle checked",
       [](const ScenarioOptions& options) {
         ScheduleConfig sched;
         sched.num_nodes = 3;  // virtual nodes = shards
         sched.allow_crash = false;
         sched.max_drop_rate = 0.3;
         sched.horizon = 8 * sim::kSec;
         sched.quiet_tail = 0.35;
         return RunShardEpochScenario(options, sched);
       }},
      {"elastic_growth",
       "3-replica Raft KV group scales out to 5 mid-flash-crowd on the "
       "parallel engine (snapshot transfer + single-server config changes), "
       "replayed at 1 and 2 worker threads; membership safety, catch-up "
       "digests and join liveness checked",
       [](const ScenarioOptions& options) {
         return RunElasticGrowthScenario(options);
       }},
      {"rolling_restart",
       "every replica of a 5-node Raft KV group is serially drained "
       "(leadership hand-off), removed and replaced by a fresh joiner under "
       "live traffic; membership safety, catch-up digests and join/leave "
       "liveness checked",
       [](const ScenarioOptions& options) {
         return RunRollingRestartScenario(options);
       }},
      {"laggard_rejoin",
       "one replica is partitioned away twice while the leader snapshots and "
       "compacts past it; each heal must end in a delta snapshot rescue "
       "(chunk-dedup catch-up), verified by digest against full replay",
       [](const ScenarioOptions& options) {
         return RunLaggardRejoinScenario(options);
       }},
  };
  return kScenarios;
}

const Scenario* FindScenario(const std::string& name) {
  for (const Scenario& scenario : AllScenarios()) {
    if (scenario.name == name) return &scenario;
  }
  return nullptr;
}

ScenarioResult RunScenario(const Scenario& scenario,
                           const ScenarioOptions& options) {
  // Scenarios construct their simulators internally, so tracing rides in on
  // the process-default sink (serial replay contexts only — see the
  // trace_path doc comment).
  obs::TraceSink sink;
  if (!options.trace_path.empty()) {
    sim::Simulator::SetDefaultTraceSink(&sink);
  }
  ScenarioResult result = scenario.run(options);
  if (!options.trace_path.empty()) {
    sim::Simulator::SetDefaultTraceSink(nullptr);
    obs::WriteChromeTrace(sink, options.trace_path);
  }
  result.scenario = scenario.name;
  result.seed = options.seed;
  result.bug = options.bug;
  return result;
}

}  // namespace dicho::testing
