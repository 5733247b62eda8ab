#ifndef DICHO_LIFECYCLE_CATCHUP_H_
#define DICHO_LIFECYCLE_CATCHUP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "lifecycle/snapshot.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace dicho::lifecycle {

using sim::NodeId;
using sim::Time;

/// Which chunks of a target manifest a replica still needs, given what its
/// local chunk store already holds. The reused count is the delta-sync win:
/// chunks shared with a previous snapshot are never resent.
struct DeltaPlan {
  std::vector<crypto::Digest> need;
  uint64_t reused = 0;
};

DeltaPlan ComputeDelta(const SnapshotManifest& target, const ChunkStore& have);

/// One replicated-log entry shipped during catch-up (the tail past the
/// snapshot anchor). `term` is consensus-specific (0 where meaningless).
struct CatchupEntry {
  uint64_t index = 0;
  uint64_t term = 0;
  std::string cmd;
};

struct LogSuffix {
  /// Term of the entry at the snapshot anchor (Raft InstallSnapshot needs
  /// it for the consistency check on the first append after install).
  uint64_t anchor_term = 0;
  std::vector<CatchupEntry> entries;  // ascending index, all > anchor
};

struct CatchupStats {
  uint64_t control_bytes = 0;   // requests + need lists
  uint64_t manifest_bytes = 0;  // manifest replies
  uint64_t chunk_bytes = 0;     // chunk payloads shipped
  uint64_t chunks_fetched = 0;
  uint64_t chunks_reused = 0;   // delta win: already present at the joiner
  uint64_t log_entries = 0;     // tail entries shipped past the anchor
  uint64_t log_bytes = 0;
  uint64_t retries = 0;

  uint64_t TotalBytes() const {
    return control_bytes + manifest_bytes + chunk_bytes + log_bytes;
  }
  /// Sums another round into this one (multi-round catch-ups).
  CatchupStats& operator+=(const CatchupStats& round) {
    control_bytes += round.control_bytes;
    manifest_bytes += round.manifest_bytes;
    chunk_bytes += round.chunk_bytes;
    chunks_fetched += round.chunks_fetched;
    chunks_reused += round.chunks_reused;
    log_entries += round.log_entries;
    log_bytes += round.log_bytes;
    retries += round.retries;
    return *this;
  }
};

struct TransferConfig {
  /// Per-round reply timeout before the request is resent (doubles per
  /// attempt). Must dwarf the network RTT; catch-up runs under live faults.
  Time retry_timeout = 250 * sim::kMs;
  int max_attempts = 10;
  /// Modeled wire size of a bare control message.
  uint64_t request_bytes = 64;
  /// Modeled per-entry framing overhead for shipped log entries.
  uint64_t entry_overhead_bytes = 16;
};

struct TransferResult {
  bool ok = false;
  SnapshotManifest manifest;
  LogSuffix suffix;
  CatchupStats stats;
};

/// Pull-based snapshot + delta transfer between two simulated nodes,
/// modeled on fossil's sync protocol: the joiner asks for the source's
/// manifest, diffs it against its own chunk store, requests only the
/// missing chunk digests, and receives chunk bodies plus the log tail past
/// the anchor. Every message rides SimNetwork (so partitions, drops and
/// node-down states apply) and every round retries on timeout, so a
/// transfer either completes, observes its own abort predicate, or fails
/// after bounded attempts — callers re-initiate with a fresh source.
///
/// Threading contract (parallel engine): source accessors run inside
/// delivery events on the source node's partition; joiner-side state is
/// only touched inside events on the joiner's partition. `done` runs on the
/// joiner's partition.
class SnapshotTransfer {
 public:
  struct Source {
    /// Liveness probe, evaluated on the source partition; a false return
    /// means no reply (the joiner times out and retries).
    std::function<bool()> available;
    std::function<SnapshotManifest()> manifest;
    /// Chunk store the manifest's digests resolve against.
    std::function<const ChunkStore*()> chunks;
    /// Committed log entries with index > `after` (bounded by the caller).
    std::function<LogSuffix(uint64_t after)> log_suffix;
  };

  /// Abort predicate evaluated on the joiner partition before each retry;
  /// return false when the joiner has crashed or the transfer is obsolete.
  using AlivePredicate = std::function<bool()>;
  using DoneFn = std::function<void(TransferResult)>;

  /// Fire-and-forget: the transfer object manages its own lifetime and
  /// invokes `done` exactly once. Verified chunks are inserted into
  /// `joiner_store` as they arrive (idempotent — re-delivery dedups).
  static void Start(sim::Simulator* sim, sim::SimNetwork* net, NodeId source,
                    NodeId joiner, Source src, ChunkStore* joiner_store,
                    AlivePredicate joiner_alive, TransferConfig config,
                    DoneFn done);
};

}  // namespace dicho::lifecycle

#endif  // DICHO_LIFECYCLE_CATCHUP_H_
