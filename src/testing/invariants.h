#ifndef DICHO_TESTING_INVARIANTS_H_
#define DICHO_TESTING_INVARIANTS_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "consensus/pbft.h"
#include "consensus/raft.h"
#include "ledger/ledger.h"
#include "lifecycle/membership.h"
#include "lifecycle/snapshot.h"
#include "sim/network.h"

namespace dicho::testing {

struct Violation {
  std::string invariant;  // e.g. "raft-election-safety"
  std::string detail;
};

/// Accumulates invariant violations during and after a run. Empty = pass.
class InvariantReport {
 public:
  void Add(std::string invariant, std::string detail) {
    violations_.push_back({std::move(invariant), std::move(detail)});
  }
  void Merge(const InvariantReport& other) {
    violations_.insert(violations_.end(), other.violations_.begin(),
                       other.violations_.end());
  }
  bool ok() const { return violations_.empty(); }
  const std::vector<Violation>& violations() const { return violations_; }
  /// One line per violation, stable across replays of the same seed.
  std::string Summary() const {
    std::string out;
    for (const auto& v : violations_) {
      out += v.invariant + ": " + v.detail + "\n";
    }
    return out;
  }

 private:
  std::vector<Violation> violations_;
};

/// Raft safety (Ongaro & Ousterhout §5.2-5.4):
///   raft-election-safety     at most one leader is ever elected per term
///   raft-log-matching        committed prefixes agree pairwise (term + cmd)
///   raft-state-machine       no node applies a different command at an
///                            index some node already applied (re-application
///                            after Restart must replay identical commands)
class RaftInvariantChecker {
 public:
  explicit RaftInvariantChecker(std::vector<consensus::RaftNode*> nodes)
      : nodes_(std::move(nodes)) {}

  /// Wire into every node's apply callback.
  void OnApply(sim::NodeId node, uint64_t index, const std::string& cmd);
  /// Poll periodically (virtual time): election safety is sticky — once a
  /// node is seen leading term T, no other node may ever lead T.
  void Observe();
  /// End-of-run: pairwise committed-prefix comparison.
  void CheckFinal();

  uint64_t applied_total() const { return applied_total_; }
  InvariantReport* report() { return &report_; }

 private:
  std::vector<consensus::RaftNode*> nodes_;
  std::map<uint64_t, sim::NodeId> leader_of_term_;
  std::map<uint64_t, std::string> committed_;  // index -> first-seen cmd
  uint64_t applied_total_ = 0;
  InvariantReport report_;
};

/// PBFT safety for the correct (non-Byzantine) replicas:
///   bft-agreement    no two correct replicas execute different commands at
///                    the same sequence number
///   bft-validity     every executed command was actually submitted by a
///                    client (a fabricated equivocation payload must never
///                    execute)
///   bft-sequential   execution has no gaps below last_executed
class BftInvariantChecker {
 public:
  BftInvariantChecker(std::vector<consensus::BftNode*> nodes,
                      std::set<sim::NodeId> byzantine)
      : nodes_(std::move(nodes)), byzantine_(std::move(byzantine)) {}

  void NoteSubmitted(const std::string& cmd) { submitted_.insert(cmd); }
  /// Wire into every node's apply callback.
  void OnApply(sim::NodeId node, uint64_t seq, const std::string& cmd);
  /// End-of-run: pairwise executed-log comparison + gap check.
  void CheckFinal();

  uint64_t executed_total() const { return executed_total_; }
  InvariantReport* report() { return &report_; }

 private:
  bool IsByzantine(sim::NodeId node) const {
    return byzantine_.count(node) > 0;
  }

  std::vector<consensus::BftNode*> nodes_;
  std::set<sim::NodeId> byzantine_;
  std::set<std::string> submitted_;
  std::map<uint64_t, std::string> executed_;  // seq -> first-seen cmd
  uint64_t executed_total_ = 0;
  InvariantReport report_;
};

/// Membership-change safety across a run with config changes:
///   membership-agreement      every node reaching config version v reports
///                             the exact same member set for v
///   membership-single-change  consecutive versions differ by exactly one
///                             member (the Raft §6 single-server rule the
///                             quorum-overlap argument rests on)
///   membership-quorum-overlap no two disjoint majority quorums are possible
///                             across any adjacent config pair — the
///                             "no two disjoint quorums across any
///                             config-change prefix" invariant (adjacent
///                             pairs suffice: overlap composes transitively
///                             through the shared intermediate config)
/// Wire SeedInitial with the bootstrap member set (version 0), then
/// OnConfigChange into every node's config-change callback.
class MembershipInvariantChecker {
 public:
  void SeedInitial(const std::vector<sim::NodeId>& members);
  void OnConfigChange(sim::NodeId node, const lifecycle::MembershipView& view);
  void CheckFinal();

  uint64_t changes_observed() const { return changes_observed_; }
  InvariantReport* report() { return &report_; }

 private:
  std::map<uint64_t, std::vector<sim::NodeId>> views_;  // version -> members
  std::map<sim::NodeId, uint64_t> last_version_;
  uint64_t changes_observed_ = 0;
  InvariantReport report_;
};

/// Catch-up correctness: a node's materialized key-value state must equal a
/// from-scratch replay of the canonical committed log up to that node's
/// apply frontier — whether the state came from normal applies, snapshot
/// install, or delta catch-up ("joined node's state digest equals the
/// full-replay digest"). Commands are "key=value" puts (the elasticity
/// scenarios' state-machine format); anything else is ignored by both the
/// node and the replay, so digests still match.
class CatchupDigestChecker {
 public:
  /// Feed the canonical log (first writer wins; agreement between nodes is
  /// the Raft checkers' job, not this one's).
  void NoteCommitted(uint64_t index, const std::string& cmd);
  /// Compare `state` (the node's live map) against replay of [1, upto].
  void CheckNode(sim::NodeId node, uint64_t upto,
                 const std::map<std::string, std::string>& state);
  /// Applies one command to a replay map (shared with scenario drivers so
  /// the two sides can never drift).
  static void ApplyCommand(const std::string& cmd,
                           std::map<std::string, std::string>* state);

  uint64_t checks_run() const { return checks_run_; }
  InvariantReport* report() { return &report_; }

 private:
  std::map<uint64_t, std::string> canonical_;  // index -> cmd
  uint64_t checks_run_ = 0;
  InvariantReport report_;
};

/// Ledger audits over hash-linked chains produced by a replicated pipeline:
///   ledger-verify      every node's chain passes Chain::Verify (hash links
///                      + Merkle txn roots recomputed from scratch)
///   ledger-agreement   block hashes agree at every common height — chains
///                      are prefixes of one history
///   ledger-state       replaying every block's write sets into a fresh MPT
///                      reproduces each header's state_digest
///   ledger-once        no txn id appears twice on one node's chain: a txn
///                      re-cut from a block reported lost is applied once
///                      even when that block commits after all
namespace ledger_audit {

void AuditChain(const ledger::Chain& chain, const std::string& label,
                InvariantReport* report);

void CheckPrefixAgreement(const std::vector<const ledger::Chain*>& chains,
                          InvariantReport* report);

void CheckTxnsOnce(const ledger::Chain& chain, const std::string& label,
                   InvariantReport* report);

/// `initial` seeds the replay state (scenario pre-loads), applied before
/// block 0.
void CheckStateDigests(
    const ledger::Chain& chain,
    const std::vector<std::pair<std::string, std::string>>& initial,
    InvariantReport* report);

}  // namespace ledger_audit

}  // namespace dicho::testing

#endif  // DICHO_TESTING_INVARIANTS_H_
