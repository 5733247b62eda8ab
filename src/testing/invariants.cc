#include "testing/invariants.h"

#include <algorithm>
#include <unordered_map>

#include "adt/mpt.h"
#include "crypto/sha256.h"

namespace dicho::testing {

namespace {

std::string Truncate(const std::string& s, size_t n = 48) {
  if (s.size() <= n) return s;
  return s.substr(0, n) + "...";
}

}  // namespace

// --- Raft ------------------------------------------------------------------

void RaftInvariantChecker::OnApply(sim::NodeId node, uint64_t index,
                                   const std::string& cmd) {
  applied_total_++;
  auto [it, inserted] = committed_.emplace(index, cmd);
  if (!inserted && it->second != cmd) {
    report_.Add("raft-state-machine",
                "node " + std::to_string(node) + " applied '" +
                    Truncate(cmd) + "' at index " + std::to_string(index) +
                    " but '" + Truncate(it->second) +
                    "' was already applied there");
  }
}

void RaftInvariantChecker::Observe() {
  for (consensus::RaftNode* node : nodes_) {
    if (!node->IsLeader()) continue;
    uint64_t term = node->current_term();
    auto [it, inserted] = leader_of_term_.emplace(term, node->id());
    if (!inserted && it->second != node->id()) {
      report_.Add("raft-election-safety",
                  "term " + std::to_string(term) + " has two leaders: node " +
                      std::to_string(it->second) + " and node " +
                      std::to_string(node->id()));
    }
  }
}

void RaftInvariantChecker::CheckFinal() {
  Observe();
  for (size_t a = 0; a < nodes_.size(); a++) {
    for (size_t b = a + 1; b < nodes_.size(); b++) {
      consensus::RaftNode* na = nodes_[a];
      consensus::RaftNode* nb = nodes_[b];
      uint64_t common = std::min(
          {na->commit_index(), nb->commit_index(), na->log_size(),
           nb->log_size()});
      // Entries at or below a snapshot anchor are compacted away — the
      // anchor itself was committed state, so comparison starts past the
      // higher of the two anchors.
      uint64_t start =
          std::max(na->snapshot_index(), nb->snapshot_index()) + 1;
      for (uint64_t i = start; i <= common; i++) {
        if (na->EntryTerm(i) != nb->EntryTerm(i) ||
            na->CommittedEntry(i) != nb->CommittedEntry(i)) {
          report_.Add(
              "raft-log-matching",
              "nodes " + std::to_string(na->id()) + "/" +
                  std::to_string(nb->id()) + " diverge at committed index " +
                  std::to_string(i) + ": (term " +
                  std::to_string(na->EntryTerm(i)) + ", '" +
                  Truncate(na->CommittedEntry(i)) + "') vs (term " +
                  std::to_string(nb->EntryTerm(i)) + ", '" +
                  Truncate(nb->CommittedEntry(i)) + "')");
          break;  // one report per pair keeps the summary deterministic+short
        }
      }
    }
  }
}

// --- Membership ------------------------------------------------------------

namespace {

std::string MembersToString(const std::vector<sim::NodeId>& members) {
  std::string out = "[";
  for (size_t i = 0; i < members.size(); i++) {
    if (i > 0) out += ",";
    out += std::to_string(members[i]);
  }
  return out + "]";
}

}  // namespace

void MembershipInvariantChecker::SeedInitial(
    const std::vector<sim::NodeId>& members) {
  views_[0] = members;
}

void MembershipInvariantChecker::OnConfigChange(
    sim::NodeId node, const lifecycle::MembershipView& view) {
  changes_observed_++;
  auto [it, inserted] = views_.emplace(view.version, view.members);
  if (!inserted && it->second != view.members) {
    report_.Add("membership-agreement",
                "node " + std::to_string(node) + " reached config version " +
                    std::to_string(view.version) + " as " +
                    MembersToString(view.members) + " but " +
                    MembersToString(it->second) + " was already recorded");
  }
  auto [last, fresh] = last_version_.emplace(node, view.version);
  if (!fresh) {
    if (view.version <= last->second) {
      report_.Add("membership-agreement",
                  "node " + std::to_string(node) +
                      " config version went backwards: " +
                      std::to_string(last->second) + " -> " +
                      std::to_string(view.version));
    }
    last->second = view.version;
  }
}

void MembershipInvariantChecker::CheckFinal() {
  for (auto it = views_.begin(); it != views_.end(); ++it) {
    auto next = std::next(it);
    if (next == views_.end()) break;
    if (next->first != it->first + 1) continue;  // node skipped versions via
                                                 // snapshot; pair unknown
    const std::vector<sim::NodeId>& a = it->second;
    const std::vector<sim::NodeId>& b = next->second;
    if (!lifecycle::IsSingleServerChange(a, b)) {
      report_.Add("membership-single-change",
                  "config " + std::to_string(it->first) + " -> " +
                      std::to_string(next->first) + " changes " +
                      MembersToString(a) + " to " + MembersToString(b) +
                      " (more than one member differs)");
    }
    if (lifecycle::DisjointQuorumsPossible(a, b)) {
      report_.Add("membership-quorum-overlap",
                  "configs " + std::to_string(it->first) + "/" +
                      std::to_string(next->first) + " admit disjoint quorums: " +
                      MembersToString(a) + " vs " + MembersToString(b));
    }
  }
}

// --- Catch-up digest --------------------------------------------------------

void CatchupDigestChecker::NoteCommitted(uint64_t index,
                                         const std::string& cmd) {
  canonical_.emplace(index, cmd);
}

void CatchupDigestChecker::ApplyCommand(
    const std::string& cmd, std::map<std::string, std::string>* state) {
  size_t eq = cmd.find('=');
  if (eq == std::string::npos || eq == 0) return;  // no-op / leader noop
  (*state)[cmd.substr(0, eq)] = cmd.substr(eq + 1);
}

void CatchupDigestChecker::CheckNode(
    sim::NodeId node, uint64_t upto,
    const std::map<std::string, std::string>& state) {
  checks_run_++;
  std::map<std::string, std::string> replay;
  for (const auto& [index, cmd] : canonical_) {
    if (index > upto) break;
    ApplyCommand(cmd, &replay);
  }
  crypto::Digest want = lifecycle::StateDigest(replay);
  crypto::Digest got = lifecycle::StateDigest(state);
  if (!(want == got)) {
    report_.Add("catchup-digest",
                "node " + std::to_string(node) + " state at apply frontier " +
                    std::to_string(upto) + " diverges from full replay (" +
                    std::to_string(state.size()) + " vs " +
                    std::to_string(replay.size()) + " keys)");
  }
}

// --- PBFT ------------------------------------------------------------------

void BftInvariantChecker::OnApply(sim::NodeId node, uint64_t seq,
                                  const std::string& cmd) {
  if (IsByzantine(node)) return;  // safety is a promise to correct replicas
  executed_total_++;
  auto [it, inserted] = executed_.emplace(seq, cmd);
  if (!inserted && it->second != cmd) {
    report_.Add("bft-agreement",
                "node " + std::to_string(node) + " executed '" +
                    Truncate(cmd) + "' at seq " + std::to_string(seq) +
                    " but '" + Truncate(it->second) +
                    "' already executed there");
  }
  if (!submitted_.empty() && submitted_.count(cmd) == 0) {
    report_.Add("bft-validity", "node " + std::to_string(node) +
                                    " executed never-submitted command '" +
                                    Truncate(cmd) + "' at seq " +
                                    std::to_string(seq));
  }
}

void BftInvariantChecker::CheckFinal() {
  std::vector<consensus::BftNode*> correct;
  for (consensus::BftNode* node : nodes_) {
    if (!IsByzantine(node->id())) correct.push_back(node);
  }
  for (consensus::BftNode* node : correct) {
    for (uint64_t seq = 1; seq <= node->last_executed(); seq++) {
      if (!node->HasExecuted(seq)) {
        report_.Add("bft-sequential",
                    "node " + std::to_string(node->id()) +
                        " has a gap at seq " + std::to_string(seq) +
                        " below last_executed " +
                        std::to_string(node->last_executed()));
        break;
      }
    }
  }
  for (size_t a = 0; a < correct.size(); a++) {
    for (size_t b = a + 1; b < correct.size(); b++) {
      uint64_t common =
          std::min(correct[a]->last_executed(), correct[b]->last_executed());
      for (uint64_t seq = 1; seq <= common; seq++) {
        if (!correct[a]->HasExecuted(seq) || !correct[b]->HasExecuted(seq)) {
          continue;  // gap already reported above
        }
        if (correct[a]->ExecutedEntry(seq) != correct[b]->ExecutedEntry(seq)) {
          report_.Add("bft-agreement",
                      "nodes " + std::to_string(correct[a]->id()) + "/" +
                          std::to_string(correct[b]->id()) +
                          " diverge at seq " + std::to_string(seq));
          break;
        }
      }
    }
  }
}

// --- Ledger ----------------------------------------------------------------

namespace ledger_audit {

void AuditChain(const ledger::Chain& chain, const std::string& label,
                InvariantReport* report) {
  Status s = chain.Verify();
  if (!s.ok()) {
    report->Add("ledger-verify",
                label + ": chain verification failed: " + s.message());
  }
}

void CheckPrefixAgreement(const std::vector<const ledger::Chain*>& chains,
                          InvariantReport* report) {
  // Every replica appends committed blocks in consensus order, so all chains
  // must be prefixes of one canonical history: block hashes equal at every
  // common height.
  for (size_t a = 0; a < chains.size(); a++) {
    for (size_t b = a + 1; b < chains.size(); b++) {
      uint64_t common = std::min(chains[a]->height(), chains[b]->height());
      for (uint64_t h = 0; h < common; h++) {
        if (chains[a]->block(h).header.Hash() !=
            chains[b]->block(h).header.Hash()) {
          report->Add("ledger-agreement",
                      "chains " + std::to_string(a) + "/" + std::to_string(b) +
                          " diverge at height " + std::to_string(h));
          break;
        }
      }
    }
  }
}

void CheckTxnsOnce(const ledger::Chain& chain, const std::string& label,
                   InvariantReport* report) {
  std::unordered_map<uint64_t, uint64_t> first_height;
  for (uint64_t h = 0; h < chain.height(); h++) {
    for (const auto& txn : chain.block(h).txns) {
      auto [it, fresh] = first_height.emplace(txn.txn_id, h);
      if (!fresh) {
        report->Add("ledger-once",
                    label + ": txn " + std::to_string(txn.txn_id) +
                        " applied at heights " + std::to_string(it->second) +
                        " and " + std::to_string(h));
        return;
      }
    }
  }
}

void CheckStateDigests(
    const ledger::Chain& chain,
    const std::vector<std::pair<std::string, std::string>>& initial,
    InvariantReport* report) {
  adt::MerklePatriciaTrie replay;
  for (const auto& [key, value] : initial) replay.Put(key, value);
  for (uint64_t h = 0; h < chain.height(); h++) {
    const ledger::BlockView block = chain.block(h);
    for (const auto& txn : block.txns) {
      if (!txn.valid) continue;  // aborted txns stay on chain, writes don't
      for (const auto& [key, value] : txn.write_set) replay.Put(key, value);
    }
    if (replay.RootDigest() != block.header.state_digest) {
      report->Add("ledger-state",
                  "block " + std::to_string(h) +
                      " state_digest does not match MPT replay of its write "
                      "sets (got " +
                      crypto::DigestHex(replay.RootDigest()) + ", header " +
                      crypto::DigestHex(block.header.state_digest) + ")");
      return;
    }
  }
}

}  // namespace ledger_audit

}  // namespace dicho::testing
