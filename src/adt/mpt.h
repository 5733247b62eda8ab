#ifndef DICHO_ADT_MPT_H_
#define DICHO_ADT_MPT_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "adt/node_store.h"
#include "common/slice.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace dicho::adt {

/// Tuning knobs for the fast storage path (docs/STORAGE.md).
struct MptOptions {
  /// Values of at least this many bytes are stored *out of line*: the leaf
  /// (or branch value slot) carries the value's 32-byte content digest and
  /// length, and the bytes live once in a digest-keyed value store. Path
  /// nodes then re-serialize and re-hash without touching the value, and
  /// identical values (common under read-modify-write workloads) are
  /// deduplicated and never re-hashed thanks to a digest memo cache.
  ///
  /// Default SIZE_MAX = everything inline: the wire format and every root
  /// digest stay byte-identical to the original implementation (golden
  /// traces depend on this). Opt in (the fast storage path, DESIGN.md §2g)
  /// and roots legitimately differ — they commit to the same logical state
  /// through a different node encoding.
  size_t inline_value_threshold = SIZE_MAX;
};

/// Merkle Patricia Trie — the authenticated state index of Ethereum and
/// Quorum. Keys are split into 4-bit nibbles; three node kinds:
///   leaf      (remaining path, value)
///   extension (shared path, child hash)
///   branch    (16 child hashes + optional value)
/// Every node is content-addressed: stored under SHA-256 of its
/// serialization, so the root digest commits to the entire state and every
/// update copy-writes the path from leaf to root (this is the per-commit
/// "MPT reconstruction" cost the paper measures in Section 5.3.3).
///
/// Hot-path layout: nodes live in a NodeStore (digest-keyed open-addressing
/// table over an arena), node parsing is zero-copy over arena Slices, and the
/// insert recursion walks (path, depth) indexes instead of materializing
/// per-level sub-paths. Sibling digests are carried verbatim from the parsed
/// parent, so unchanged subtrees are never re-serialized or re-hashed.
/// The serialized node format and therefore every root digest and proof are
/// byte-identical to the original std::map-based implementation (golden
/// tests assert this) — unless out-of-line values are opted into via
/// MptOptions, which adds a fourth node kind ('V' leaves) and a
/// branch-value digest slot.
///
/// Two commit APIs:
///   Put(key, value)            one key, path copy-written immediately.
///   StagePut + CommitBatch     a block's worth of puts applied in one
///                              walk: each dirty node is serialized and
///                              hashed exactly once however many staged
///                              keys pass through it, and untouched
///                              sibling subtrees are reused by digest
///                              (the memoization the hit counter tracks).
///                              The resulting root is byte-identical to
///                              sequential Puts of the same batch.
///
/// Deletion is not supported: the benchmarked blockchain state stores are
/// insert/update-only (documented in DESIGN.md).
class MerklePatriciaTrie {
 public:
  MerklePatriciaTrie() = default;
  explicit MerklePatriciaTrie(MptOptions options) : options_(options) {}

  // Copying would silently share the node stores; ShareStoresOf says so.
  MerklePatriciaTrie(const MerklePatriciaTrie&) = delete;
  MerklePatriciaTrie& operator=(const MerklePatriciaTrie&) = delete;

  /// Sets options on a still-empty trie — for owners that default-construct
  /// their tries (NodeSet members) and opt into the fast storage path
  /// afterwards. Must be called before the first Put/StagePut; the
  /// representation is part of the root commitment, so flipping it on a
  /// populated trie would split the state across two encodings. The node
  /// stores may already hold other tries' nodes (ShareStoresOf).
  void Configure(MptOptions options) {
    assert(size_ == 0 && staged_.empty());
    options_ = options;
  }

  /// Makes this still-empty trie file its nodes and out-of-line values in
  /// `owner`'s content-addressed stores, which then live as long as either
  /// trie. Each trie keeps its own root, size() and counters; a node both
  /// write is stored once. Tries sharing stores must be used from one
  /// thread at a time.
  void ShareStoresOf(const MerklePatriciaTrie& owner) {
    assert(size_ == 0 && staged_.empty());
    nodes_ = owner.nodes_;
    values_ = owner.values_;
  }
  bool SharesStoresWith(const MerklePatriciaTrie& other) const {
    return nodes_ == other.nodes_;
  }

  /// A trie's logical state: its root and everything it reports. Two
  /// checkpoints taken around an update on one trie describe that update,
  /// which another trie sharing its stores can then Adopt.
  struct Checkpoint {
    crypto::Digest root = crypto::ZeroDigest();
    size_t size = 0;
    uint64_t total_node_bytes = 0;
    uint64_t out_of_line_values = 0;
    uint64_t value_dedup_hits = 0;
    uint64_t batch_reuse_hits = 0;
    size_t last_update_nodes = 0;
    /// Identify the stores and encoding the root was computed under.
    const NodeStore* store = nullptr;
    size_t inline_value_threshold = SIZE_MAX;
  };
  Checkpoint checkpoint() const;

  /// Applies the update another trie made from `before` to `after` without
  /// recomputing it: the root moves to `after.root`, whose nodes are
  /// already in the shared store, and every counter advances by the same
  /// delta, so this trie reads as if it had made the update itself.
  /// Returns false, changing nothing, unless this trie shares the store the
  /// update was computed in, uses the same encoding, has nothing staged
  /// and sits at `before.root`.
  bool Adopt(const Checkpoint& before, const Checkpoint& after);

  Status Put(const Slice& key, const Slice& value);
  Status Get(const Slice& key, std::string* value) const;

  /// Stages a put for the next CommitBatch. Staged puts are not visible to
  /// Get/Prove until committed; within a batch the last staged value for a
  /// key wins (matching sequential Put order).
  void StagePut(const Slice& key, const Slice& value);

  struct BatchCommitStats {
    size_t keys = 0;             // distinct keys applied
    size_t nodes_written = 0;    // nodes serialized + hashed + stored
    size_t subtrees_reused = 0;  // present subtrees carried by digest only
  };
  /// Applies every staged put in one trie walk. The root digest is
  /// byte-identical to issuing the same puts sequentially; the saving is
  /// that shared path nodes are written once per batch instead of once per
  /// key, and every untouched subtree is skipped (memoized by its digest).
  Status CommitBatch(BatchCommitStats* stats = nullptr);

  /// Digest committing to the whole key-value state; ZeroDigest when empty.
  crypto::Digest RootDigest() const { return root_; }

  /// Number of distinct keys.
  size_t size() const { return size_; }

  /// Access path for `key`: the serialized nodes from root to the terminal
  /// node. Verifiable against the root digest without any other state.
  struct Proof {
    std::vector<std::string> nodes;
  };
  Status Prove(const Slice& key, Proof* proof) const;

  /// Storage accounting ------------------------------------------------------
  /// Bytes of every node (and out-of-line value) ever written (archival
  /// store: all historical versions reachable from old roots). Under shared
  /// stores a trie counts what its own updates, computed or adopted, added
  /// to them: the figure private stores give while the sharing tries follow
  /// one history, and less once a trie rewrites nodes another trie stored.
  uint64_t TotalNodeBytes() const { return total_node_bytes_; }
  /// Bytes of nodes reachable from the current root (live state), including
  /// the 32-byte content hash each node is filed under and the out-of-line
  /// value bytes the reachable nodes reference.
  uint64_t ReachableBytes() const;
  /// Nodes in the node store, which counts every trie sharing it.
  size_t node_count() const { return nodes_->size(); }
  /// Nodes written by the most recent Put or CommitBatch (hashing work per
  /// update).
  size_t last_update_nodes() const { return last_update_nodes_; }

  /// Fast-path accounting ----------------------------------------------------
  /// Out-of-line values stored (0 unless opted in via MptOptions).
  uint64_t out_of_line_values() const { return out_of_line_values_; }
  /// Puts whose value bytes were already stored: memo-cache hits (which
  /// skip SHA-256 over the value entirely) plus value-store hits (digest
  /// computed, bytes not re-stored).
  uint64_t value_dedup_hits() const { return value_dedup_hits_; }
  /// Cumulative CommitBatch subtree reuses (the memoization hit counter).
  uint64_t batch_reuse_hits() const { return batch_reuse_hits_; }

  /// Implementation detail, public only so mpt.cc's file-local helpers can
  /// take them as parameters: how a node refers to its value (inline bytes
  /// or an out-of-line digest+length), and one staged key during
  /// CommitBatch. Both are defined in mpt.cc; not part of the API.
  struct ValueRef;
  struct BatchEntry;

 private:
  using Digest = crypto::Digest;
  using Nibbles = std::vector<uint8_t>;

  static void ToNibbles(const Slice& key, Nibbles* out);

  Digest Store(const Slice& serialized);
  /// Files `value` in the value store under its content digest, consulting
  /// the memo cache first. Returns the digest; `*newly_stored` reports
  /// whether bytes were written (false on dedup).
  Digest StoreValue(const Slice& value, bool* newly_stored);
  /// Inline ref below the threshold, out-of-line (stored) ref at/above it.
  ValueRef MakeValueRef(const Slice& value);

  /// Recursive insert below the node named by `node` (nullptr = empty
  /// subtree): returns the digest of the replacement node.
  Digest InsertAt(const Digest* node, const Nibbles& path, size_t depth,
                  const ValueRef& value);
  /// Batch counterpart: applies entries[begin, end) (sorted by full nibble
  /// path, distinct keys, all sharing their first `depth` nibbles) below
  /// `node`. `view` (a NodeView*) substitutes for a stored node when
  /// recursing into a synthesized extension remainder.
  Digest BatchInsertAt(const Digest* node, const void* view,
                       BatchEntry* begin, BatchEntry* end, size_t depth,
                       BatchCommitStats* stats);
  /// Builds a fresh subtree holding exactly entries[begin, end) — the
  /// no-existing-node case of BatchInsertAt.
  Digest BuildSubtree(BatchEntry* begin, BatchEntry* end, size_t depth,
                      BatchCommitStats* stats);

  Status GetAt(const Digest& node, const Nibbles& path, size_t depth,
               std::string* value,
               std::vector<std::string>* proof_nodes) const;
  uint64_t ReachableBytesAt(const Digest& node) const;

  MptOptions options_;
  Digest root_ = crypto::ZeroDigest();
  bool has_root_ = false;
  std::shared_ptr<NodeStore> nodes_ = std::make_shared<NodeStore>();
  /// Out-of-line value bytes, digest-keyed (empty unless opted in).
  std::shared_ptr<NodeStore> values_ = std::make_shared<NodeStore>();
  uint64_t total_node_bytes_ = 0;
  size_t size_ = 0;
  size_t last_update_nodes_ = 0;
  uint64_t out_of_line_values_ = 0;
  uint64_t value_dedup_hits_ = 0;
  uint64_t batch_reuse_hits_ = 0;
  /// True after InsertAt when the Put overwrote an existing key.
  bool put_replaced_ = false;
  /// Replacements observed during the current CommitBatch.
  size_t batch_replaced_ = 0;

  /// Digest memo for out-of-line values: maps recently stored value bytes
  /// to their digest so repeated identical values skip SHA-256 entirely.
  /// Entries point into the value-store arena (stable for the trie's life);
  /// hits are confirmed by memcmp, the quick hash only routes.
  struct ValueMemo {
    const char* data = nullptr;
    uint32_t len = 0;
    Digest digest;
  };
  static constexpr size_t kValueMemoSlots = 64;  // power of two
  ValueMemo value_memo_[kValueMemoSlots];

  /// Staged puts awaiting CommitBatch.
  struct StagedPut {
    std::string nibbles;
    std::string value;
  };
  std::vector<StagedPut> staged_;
  /// Full nibble paths synthesized for existing leaves merged during a
  /// CommitBatch walk; deque so growth never moves earlier strings (batch
  /// entries hold raw pointers into them).
  std::deque<std::string> batch_path_pool_;

  /// Reused scratch buffers: key nibbles and the node being serialized.
  /// Safe because every Serialize*→Store pair completes before the parent
  /// serializes (the recursion returns digests, not buffers).
  Nibbles nibbles_scratch_;
  std::string node_scratch_;
};

/// Verifies an MPT access path: checks that proof.nodes[0] hashes to `root`,
/// each node links to the next, and the terminal node binds `key` to
/// `value` — either inline or, for out-of-line nodes, through the value's
/// content digest and length.
bool VerifyMptProof(const crypto::Digest& root, const Slice& key,
                    const Slice& value, const MerklePatriciaTrie::Proof& proof);

}  // namespace dicho::adt

#endif  // DICHO_ADT_MPT_H_
