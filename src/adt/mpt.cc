#include "adt/mpt.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/coding.h"

namespace dicho::adt {
namespace {

// Node serialization. Nibbles are stored one per byte — marginally larger
// than Ethereum's hex-prefix packing but simpler to audit; the storage
// overhead comparison (Fig. 13) is unaffected in shape. The byte format is
// frozen: root digests are golden-tested against the original
// std::map-backed implementation. The 'V' tag and the branch out-of-line
// value bit are produced only when out-of-line values are opted into via
// MptOptions — default-mode bytes are untouched.
constexpr char kLeafTag = 'L';
constexpr char kExtTag = 'E';
constexpr char kBranchTag = 'B';
constexpr char kVLeafTag = 'V';  // leaf whose value is out of line

constexpr uint32_t kHasValueBit = 1u << 16;
constexpr uint32_t kValueOutOfLineBit = 1u << 17;

using Digest = crypto::Digest;

// Zero-copy view of a serialized node: path/value are Slices into the
// arena-resident (or proof-owned) raw bytes, which are stable for the life
// of the trie; child digests are copied out since they are only 32 bytes.
struct NodeView {
  char tag = 0;
  Slice path;                 // leaf/ext: nibbles, one per byte
  Slice value;                // leaf/branch, inline case
  bool has_value = false;     // branch
  bool value_out_of_line = false;  // 'V' leaf or branch with bit 17
  Digest value_digest;        // valid iff value_out_of_line
  uint64_t value_len = 0;     // valid iff value_out_of_line
  Digest child;               // ext
  Digest children[16];        // branch; valid iff bit set in `bitmap`
  uint32_t bitmap = 0;        // branch: bit i = child i present
};

void AppendPath(std::string* out, const uint8_t* nibbles, size_t n) {
  PutVarint32(out, static_cast<uint32_t>(n));
  out->append(reinterpret_cast<const char*>(nibbles), n);
}

bool ParsePath(Slice* in, Slice* path) {
  uint32_t len;
  if (!GetVarint32(in, &len) || in->size() < len) return false;
  *path = Slice(in->data(), len);
  in->RemovePrefix(len);
  return true;
}

inline Slice DigestSlice(const Digest& d) {
  return Slice(reinterpret_cast<const char*>(d.data()), d.size());
}

void SerializeExt(std::string* out, const uint8_t* path, size_t n,
                  const Digest& child) {
  out->clear();
  out->push_back(kExtTag);
  AppendPath(out, path, n);
  PutLengthPrefixed(out, DigestSlice(child));
}

bool ParseNode(const Slice& raw, NodeView* node) {
  if (raw.empty()) return false;
  Slice in = raw;
  node->tag = in[0];
  in.RemovePrefix(1);
  if (node->tag == kLeafTag) {
    if (!ParsePath(&in, &node->path) || !GetLengthPrefixed(&in, &node->value)) {
      return false;
    }
    node->has_value = true;
    return in.empty();
  }
  if (node->tag == kVLeafTag) {
    Slice digest;
    if (!ParsePath(&in, &node->path) || !GetLengthPrefixed(&in, &digest) ||
        digest.size() != 32 || !GetVarint64(&in, &node->value_len)) {
      return false;
    }
    node->value_digest = crypto::DigestFromBytes(digest);
    node->has_value = true;
    node->value_out_of_line = true;
    return in.empty();
  }
  if (node->tag == kExtTag) {
    Slice child;
    if (!ParsePath(&in, &node->path) || !GetLengthPrefixed(&in, &child) ||
        child.size() != 32) {
      return false;
    }
    node->child = crypto::DigestFromBytes(child);
    return in.empty();
  }
  if (node->tag == kBranchTag) {
    uint32_t bitmap;
    if (!GetVarint32(&in, &bitmap)) return false;
    node->bitmap = bitmap & 0xFFFF;
    for (int i = 0; i < 16; i++) {
      if (bitmap & (1u << i)) {
        Slice child;
        if (!GetLengthPrefixed(&in, &child) || child.size() != 32) {
          return false;
        }
        node->children[i] = crypto::DigestFromBytes(child);
      }
    }
    node->has_value = (bitmap & kHasValueBit) != 0;
    node->value_out_of_line = (bitmap & kValueOutOfLineBit) != 0;
    if (node->value_out_of_line && !node->has_value) return false;
    if (node->has_value) {
      if (node->value_out_of_line) {
        Slice digest;
        if (!GetLengthPrefixed(&in, &digest) || digest.size() != 32 ||
            !GetVarint64(&in, &node->value_len)) {
          return false;
        }
        node->value_digest = crypto::DigestFromBytes(digest);
      } else if (!GetLengthPrefixed(&in, &node->value)) {
        return false;
      }
    }
    return in.empty();
  }
  return false;
}

size_t CommonPrefix(const Slice& a, const uint8_t* b, size_t bn) {
  const size_t max = a.size() < bn ? a.size() : bn;
  size_t n = 0;
  while (n < max && static_cast<uint8_t>(a[n]) == b[n]) n++;
  return n;
}

inline const uint8_t* PathBytes(const Slice& s) {
  return reinterpret_cast<const uint8_t*>(s.data());
}

}  // namespace

/// A node's value: either inline bytes or an out-of-line reference to the
/// value store. Slices point at staged strings or arena bytes — both stable
/// for the duration of the Put/CommitBatch that uses the ref.
struct MerklePatriciaTrie::ValueRef {
  Slice inline_value;
  bool out_of_line = false;
  Digest digest;
  uint64_t len = 0;
};

/// One staged key during CommitBatch. `path` is the FULL nibble path from
/// the root (entries are routed by indexing path[depth]); bytes live in
/// staged_ strings or batch_path_pool_.
struct MerklePatriciaTrie::BatchEntry {
  const uint8_t* path = nullptr;
  size_t path_len = 0;
  ValueRef value;
  size_t order = 0;  // arrival index; last staged value for a key wins
};

namespace {

/// Leaf serialization that respects the value representation.
void SerializeLeafRef(std::string* out, const uint8_t* path, size_t n,
                      const MerklePatriciaTrie::ValueRef& v) {
  out->clear();
  if (v.out_of_line) {
    out->push_back(kVLeafTag);
    AppendPath(out, path, n);
    PutLengthPrefixed(out, DigestSlice(v.digest));
    PutVarint64(out, v.len);
  } else {
    out->push_back(kLeafTag);
    AppendPath(out, path, n);
    PutLengthPrefixed(out, v.inline_value);
  }
}

void SerializeBranchRef(std::string* out, const Digest children[16],
                        uint32_t child_bitmap, bool has_value,
                        const MerklePatriciaTrie::ValueRef& v) {
  out->clear();
  out->push_back(kBranchTag);
  uint32_t bitmap = child_bitmap;
  if (has_value) {
    bitmap |= kHasValueBit;
    if (v.out_of_line) bitmap |= kValueOutOfLineBit;
  }
  PutVarint32(out, bitmap);
  for (int i = 0; i < 16; i++) {
    if (child_bitmap & (1u << i)) {
      PutLengthPrefixed(out, DigestSlice(children[i]));
    }
  }
  if (has_value) {
    if (v.out_of_line) {
      PutLengthPrefixed(out, DigestSlice(v.digest));
      PutVarint64(out, v.len);
    } else {
      PutLengthPrefixed(out, v.inline_value);
    }
  }
}

/// ValueRef for a value already resident in a parsed node — reuses the
/// out-of-line digest instead of re-storing (and re-hashing) the bytes.
MerklePatriciaTrie::ValueRef RefFromView(const NodeView& node) {
  MerklePatriciaTrie::ValueRef ref;
  ref.inline_value = node.value;
  ref.out_of_line = node.value_out_of_line;
  ref.digest = node.value_digest;
  ref.len = node.value_len;
  return ref;
}

/// Lexicographic order on full nibble paths (prefix sorts first), ties by
/// arrival order so the last staged value for a key wins after dedup.
bool BatchEntryLess(const MerklePatriciaTrie::BatchEntry& a,
                    const MerklePatriciaTrie::BatchEntry& b) {
  const size_t min_len = a.path_len < b.path_len ? a.path_len : b.path_len;
  int c = min_len == 0 ? 0 : memcmp(a.path, b.path, min_len);
  if (c != 0) return c < 0;
  if (a.path_len != b.path_len) return a.path_len < b.path_len;
  return a.order < b.order;
}

bool SamePath(const MerklePatriciaTrie::BatchEntry& a,
              const MerklePatriciaTrie::BatchEntry& b) {
  return a.path_len == b.path_len &&
         (a.path_len == 0 || memcmp(a.path, b.path, a.path_len) == 0);
}

}  // namespace

void MerklePatriciaTrie::ToNibbles(const Slice& key, Nibbles* out) {
  out->clear();
  out->reserve(key.size() * 2);
  for (size_t i = 0; i < key.size(); i++) {
    uint8_t b = static_cast<uint8_t>(key[i]);
    out->push_back(b >> 4);
    out->push_back(b & 0xF);
  }
}

MerklePatriciaTrie::Checkpoint MerklePatriciaTrie::checkpoint() const {
  Checkpoint c;
  c.root = root_;
  c.size = size_;
  c.total_node_bytes = total_node_bytes_;
  c.out_of_line_values = out_of_line_values_;
  c.value_dedup_hits = value_dedup_hits_;
  c.batch_reuse_hits = batch_reuse_hits_;
  c.last_update_nodes = last_update_nodes_;
  c.store = nodes_.get();
  c.inline_value_threshold = options_.inline_value_threshold;
  return c;
}

bool MerklePatriciaTrie::Adopt(const Checkpoint& before,
                               const Checkpoint& after) {
  if (after.store != nodes_.get() ||
      after.inline_value_threshold != options_.inline_value_threshold ||
      !staged_.empty() || root_ != before.root) {
    return false;
  }
  root_ = after.root;
  has_root_ = after.size > 0;
  size_ += after.size - before.size;
  total_node_bytes_ += after.total_node_bytes - before.total_node_bytes;
  out_of_line_values_ += after.out_of_line_values - before.out_of_line_values;
  value_dedup_hits_ += after.value_dedup_hits - before.value_dedup_hits;
  batch_reuse_hits_ += after.batch_reuse_hits - before.batch_reuse_hits;
  last_update_nodes_ = after.last_update_nodes;
  return true;
}

MerklePatriciaTrie::Digest MerklePatriciaTrie::Store(const Slice& serialized) {
  Digest digest = crypto::Sha256Hash(serialized);
  if (nodes_->Insert(digest, serialized)) {
    total_node_bytes_ += 32 + serialized.size();
  }
  last_update_nodes_++;
  return digest;
}

MerklePatriciaTrie::Digest MerklePatriciaTrie::StoreValue(const Slice& value,
                                                          bool* newly_stored) {
  // Quick routing hash: length plus three sampled 8-byte windows. It only
  // picks the memo slot — a hit is confirmed by full memcmp against the
  // arena-resident bytes, so collisions cost time, never correctness.
  uint64_t h = (value.size() + 1) * 0x9E3779B97F4A7C15ull;
  if (value.size() >= 24) {
    uint64_t a, b, c;
    memcpy(&a, value.data(), 8);
    memcpy(&b, value.data() + value.size() / 2, 8);
    memcpy(&c, value.data() + value.size() - 8, 8);
    h ^= a * 0xC2B2AE3D27D4EB4Full;
    h ^= b * 0x165667B19E3779F9ull;
    h ^= c * 0x27D4EB2F165667C5ull;
  } else {
    for (size_t i = 0; i < value.size(); i++) {
      h = h * 131 + static_cast<uint8_t>(value[i]);
    }
  }
  h ^= h >> 29;
  ValueMemo& memo = value_memo_[h & (kValueMemoSlots - 1)];
  if (memo.data != nullptr && memo.len == value.size() &&
      memcmp(memo.data, value.data(), value.size()) == 0) {
    value_dedup_hits_++;
    *newly_stored = false;
    return memo.digest;
  }
  Digest digest = crypto::Sha256Hash(value);
  if (values_->Insert(digest, value)) {
    total_node_bytes_ += 32 + value.size();
    out_of_line_values_++;
    *newly_stored = true;
  } else {
    value_dedup_hits_++;
    *newly_stored = false;
  }
  // Point the memo at the arena copy — stable for the trie's lifetime,
  // unlike the caller's buffer.
  Slice stored;
  bool found = values_->Find(digest, &stored);
  assert(found);
  (void)found;
  memo.data = stored.data();
  memo.len = static_cast<uint32_t>(stored.size());
  memo.digest = digest;
  return digest;
}

MerklePatriciaTrie::ValueRef MerklePatriciaTrie::MakeValueRef(
    const Slice& value) {
  ValueRef ref;
  if (value.size() >= options_.inline_value_threshold) {
    bool newly_stored = false;
    ref.digest = StoreValue(value, &newly_stored);
    ref.out_of_line = true;
    ref.len = value.size();
  } else {
    ref.inline_value = value;
  }
  return ref;
}

Status MerklePatriciaTrie::Put(const Slice& key, const Slice& value) {
  ToNibbles(key, &nibbles_scratch_);
  last_update_nodes_ = 0;
  put_replaced_ = false;
  ValueRef ref = MakeValueRef(value);
  // Copy the root digest: InsertAt must not read through an alias of root_
  // while we overwrite it.
  Digest old_root = root_;
  root_ = InsertAt(has_root_ ? &old_root : nullptr, nibbles_scratch_, 0, ref);
  has_root_ = true;
  if (!put_replaced_) size_++;
  return Status::Ok();
}

MerklePatriciaTrie::Digest MerklePatriciaTrie::InsertAt(
    const Digest* node_digest, const Nibbles& path, size_t depth,
    const ValueRef& value) {
  const uint8_t* rest = path.data() + depth;
  const size_t rest_n = path.size() - depth;

  if (node_digest == nullptr) {
    SerializeLeafRef(&node_scratch_, rest, rest_n, value);
    return Store(node_scratch_);
  }
  Slice raw;
  bool found = nodes_->Find(*node_digest, &raw);
  assert(found);
  (void)found;
  NodeView node;
  bool ok = ParseNode(raw, &node);
  assert(ok);
  (void)ok;

  if (node.tag == kLeafTag || node.tag == kVLeafTag) {
    if (node.path.size() == rest_n &&
        (rest_n == 0 || memcmp(node.path.data(), rest, rest_n) == 0)) {
      put_replaced_ = true;
      SerializeLeafRef(&node_scratch_, rest, rest_n, value);  // overwrite
      return Store(node_scratch_);
    }
    size_t cp = CommonPrefix(node.path, rest, rest_n);
    Digest children[16];
    uint32_t bitmap = 0;
    bool branch_has_value = false;
    ValueRef branch_value;
    // Existing leaf's continuation (value representation carried verbatim:
    // an out-of-line value is never re-stored or re-hashed here).
    if (node.path.size() == cp) {
      branch_has_value = true;
      branch_value = RefFromView(node);
    } else {
      uint8_t idx = PathBytes(node.path)[cp];
      SerializeLeafRef(&node_scratch_, PathBytes(node.path) + cp + 1,
                       node.path.size() - cp - 1, RefFromView(node));
      children[idx] = Store(node_scratch_);
      bitmap |= (1u << idx);
    }
    // New key's continuation.
    if (rest_n == cp) {
      branch_has_value = true;
      branch_value = value;
    } else {
      uint8_t idx = rest[cp];
      SerializeLeafRef(&node_scratch_, rest + cp + 1, rest_n - cp - 1, value);
      children[idx] = Store(node_scratch_);
      bitmap |= (1u << idx);
    }
    SerializeBranchRef(&node_scratch_, children, bitmap, branch_has_value,
                       branch_value);
    Digest branch = Store(node_scratch_);
    if (cp > 0) {
      SerializeExt(&node_scratch_, rest, cp, branch);
      return Store(node_scratch_);
    }
    return branch;
  }

  if (node.tag == kExtTag) {
    size_t cp = CommonPrefix(node.path, rest, rest_n);
    if (cp == node.path.size()) {
      Digest child = InsertAt(&node.child, path, depth + cp, value);
      SerializeExt(&node_scratch_, rest, cp, child);
      return Store(node_scratch_);
    }
    // Split the extension at cp.
    Digest children[16];
    uint32_t bitmap = 0;
    bool branch_has_value = false;
    ValueRef branch_value;
    // The extension's remainder.
    {
      uint8_t idx = PathBytes(node.path)[cp];
      if (node.path.size() - cp == 1) {
        children[idx] = node.child;
      } else {
        SerializeExt(&node_scratch_, PathBytes(node.path) + cp + 1,
                     node.path.size() - cp - 1, node.child);
        children[idx] = Store(node_scratch_);
      }
      bitmap |= (1u << idx);
    }
    // The new key's remainder.
    if (rest_n == cp) {
      branch_has_value = true;
      branch_value = value;
    } else {
      uint8_t idx = rest[cp];
      SerializeLeafRef(&node_scratch_, rest + cp + 1, rest_n - cp - 1, value);
      children[idx] = Store(node_scratch_);
      bitmap |= (1u << idx);
    }
    SerializeBranchRef(&node_scratch_, children, bitmap, branch_has_value,
                       branch_value);
    Digest branch = Store(node_scratch_);
    if (cp > 0) {
      SerializeExt(&node_scratch_, rest, cp, branch);
      return Store(node_scratch_);
    }
    return branch;
  }

  // Branch.
  if (rest_n == 0) {
    if (node.has_value) put_replaced_ = true;
    SerializeBranchRef(&node_scratch_, node.children, node.bitmap, true,
                       value);
    return Store(node_scratch_);
  }
  uint8_t idx = rest[0];
  const Digest* child =
      (node.bitmap & (1u << idx)) ? &node.children[idx] : nullptr;
  node.children[idx] = InsertAt(child, path, depth + 1, value);
  node.bitmap |= (1u << idx);
  SerializeBranchRef(&node_scratch_, node.children, node.bitmap,
                     node.has_value, RefFromView(node));
  return Store(node_scratch_);
}

void MerklePatriciaTrie::StagePut(const Slice& key, const Slice& value) {
  StagedPut staged;
  ToNibbles(key, &nibbles_scratch_);
  staged.nibbles.assign(nibbles_scratch_.begin(), nibbles_scratch_.end());
  staged.value.assign(value.data(), value.size());
  staged_.push_back(std::move(staged));
}

Status MerklePatriciaTrie::CommitBatch(BatchCommitStats* stats_out) {
  BatchCommitStats stats;
  last_update_nodes_ = 0;
  batch_replaced_ = 0;
  if (!staged_.empty()) {
    std::vector<BatchEntry> entries;
    entries.reserve(staged_.size());
    for (size_t i = 0; i < staged_.size(); i++) {
      BatchEntry entry;
      entry.path = reinterpret_cast<const uint8_t*>(staged_[i].nibbles.data());
      entry.path_len = staged_[i].nibbles.size();
      entry.value = MakeValueRef(staged_[i].value);
      entry.order = i;
      entries.push_back(entry);
    }
    std::sort(entries.begin(), entries.end(), BatchEntryLess);
    // Dedup: within a path run the latest arrival sorts last and wins,
    // matching the result of sequential Puts in staging order.
    std::vector<BatchEntry> uniq;
    uniq.reserve(entries.size());
    for (const BatchEntry& entry : entries) {
      if (!uniq.empty() && SamePath(uniq.back(), entry)) {
        uniq.back() = entry;
      } else {
        uniq.push_back(entry);
      }
    }
    Digest old_root = root_;
    root_ = BatchInsertAt(has_root_ ? &old_root : nullptr, nullptr,
                          uniq.data(), uniq.data() + uniq.size(), 0, &stats);
    has_root_ = true;
    size_ += uniq.size() - batch_replaced_;
    stats.keys = uniq.size();
    stats.nodes_written = last_update_nodes_;
    batch_reuse_hits_ += stats.subtrees_reused;
    staged_.clear();
    batch_path_pool_.clear();
  }
  if (stats_out != nullptr) *stats_out = stats;
  return Status::Ok();
}

MerklePatriciaTrie::Digest MerklePatriciaTrie::BuildSubtree(
    BatchEntry* begin, BatchEntry* end, size_t depth,
    BatchCommitStats* stats) {
  assert(begin < end);
  if (end - begin == 1) {
    SerializeLeafRef(&node_scratch_, begin->path + depth,
                     begin->path_len - depth, begin->value);
    return Store(node_scratch_);
  }
  // Longest prefix common to all entries = lcp(first, last): sorted order
  // means every entry between the extremes shares their common prefix.
  const BatchEntry& first = *begin;
  const BatchEntry& last = *(end - 1);
  const size_t max_cp =
      (first.path_len < last.path_len ? first.path_len : last.path_len) -
      depth;
  size_t cp = 0;
  while (cp < max_cp && first.path[depth + cp] == last.path[depth + cp]) cp++;
  const size_t d2 = depth + cp;

  Digest children[16];
  uint32_t bitmap = 0;
  bool has_value = false;
  ValueRef branch_value;
  BatchEntry* it = begin;
  // At most one entry can terminate at the branch (paths are distinct).
  if (it->path_len == d2) {
    has_value = true;
    branch_value = it->value;
    it++;
  }
  while (it < end) {
    const uint8_t nib = it->path[d2];
    BatchEntry* group_end = it;
    while (group_end < end && group_end->path[d2] == nib) group_end++;
    children[nib] = BuildSubtree(it, group_end, d2 + 1, stats);
    bitmap |= (1u << nib);
    it = group_end;
  }
  SerializeBranchRef(&node_scratch_, children, bitmap, has_value,
                     branch_value);
  Digest branch = Store(node_scratch_);
  if (cp > 0) {
    SerializeExt(&node_scratch_, begin->path + depth, cp, branch);
    return Store(node_scratch_);
  }
  return branch;
}

MerklePatriciaTrie::Digest MerklePatriciaTrie::BatchInsertAt(
    const Digest* node_digest, const void* view, BatchEntry* begin,
    BatchEntry* end, size_t depth, BatchCommitStats* stats) {
  assert(begin < end);
  if (node_digest == nullptr && view == nullptr) {
    return BuildSubtree(begin, end, depth, stats);
  }
  NodeView parsed;
  const NodeView* node;
  if (view != nullptr) {
    node = static_cast<const NodeView*>(view);
  } else {
    Slice raw;
    bool found = nodes_->Find(*node_digest, &raw);
    assert(found);
    (void)found;
    bool ok = ParseNode(raw, &parsed);
    assert(ok);
    (void)ok;
    node = &parsed;
  }

  if (node->tag == kLeafTag || node->tag == kVLeafTag) {
    // If a staged entry overwrites the leaf's exact path, the leaf just
    // disappears under the new entries; otherwise it is merged in as one
    // more entry and the subtree rebuilt around it.
    const size_t leaf_rest = node->path.size();
    bool replaced = false;
    for (BatchEntry* it = begin; it < end; it++) {
      if (it->path_len - depth == leaf_rest &&
          (leaf_rest == 0 ||
           memcmp(it->path + depth, node->path.data(), leaf_rest) == 0)) {
        replaced = true;
        break;
      }
    }
    if (replaced) {
      batch_replaced_++;
      return BuildSubtree(begin, end, depth, stats);
    }
    // Synthesize the leaf's full path: shared route prefix + leaf rest.
    // Pooled so the pointer outlives this frame (deque never moves).
    batch_path_pool_.emplace_back();
    std::string& full = batch_path_pool_.back();
    full.assign(reinterpret_cast<const char*>(begin->path), depth);
    full.append(node->path.data(), leaf_rest);
    BatchEntry synthetic;
    synthetic.path = reinterpret_cast<const uint8_t*>(full.data());
    synthetic.path_len = full.size();
    synthetic.value = RefFromView(*node);
    std::vector<BatchEntry> merged(begin, end);
    merged.insert(
        std::upper_bound(merged.begin(), merged.end(), synthetic,
                         BatchEntryLess),
        synthetic);
    return BuildSubtree(merged.data(), merged.data() + merged.size(), depth,
                        stats);
  }

  if (node->tag == kExtTag) {
    const Slice ext = node->path;
    // Shortest lcp between the extension path and any entry — attained at
    // the sorted extremes.
    auto lcp_with_ext = [&](const BatchEntry& entry) {
      const size_t rest_n = entry.path_len - depth;
      const size_t max = ext.size() < rest_n ? ext.size() : rest_n;
      size_t n = 0;
      while (n < max &&
             static_cast<uint8_t>(ext[n]) == entry.path[depth + n]) {
        n++;
      }
      return n;
    };
    const size_t cp =
        std::min(lcp_with_ext(*begin), lcp_with_ext(*(end - 1)));
    if (cp == ext.size()) {
      // Every entry descends through the extension.
      Digest child =
          BatchInsertAt(&node->child, nullptr, begin, end, depth + cp, stats);
      SerializeExt(&node_scratch_, PathBytes(ext), cp, child);
      return Store(node_scratch_);
    }
    // Split at cp: branch over the extension's remainder and the entries.
    const size_t d2 = depth + cp;
    const uint8_t ext_nib = PathBytes(ext)[cp];
    Digest children[16];
    uint32_t bitmap = 0;
    bool has_value = false;
    ValueRef branch_value;
    BatchEntry* it = begin;
    if (it->path_len == d2) {
      has_value = true;
      branch_value = it->value;
      it++;
    }
    bool ext_merged = false;
    while (it < end) {
      const uint8_t nib = it->path[d2];
      BatchEntry* group_end = it;
      while (group_end < end && group_end->path[d2] == nib) group_end++;
      if (nib == ext_nib) {
        // These entries continue into the extension's remainder.
        if (ext.size() - cp == 1) {
          children[nib] = BatchInsertAt(&node->child, nullptr, it, group_end,
                                        d2 + 1, stats);
        } else {
          NodeView remainder;
          remainder.tag = kExtTag;
          remainder.path = Slice(ext.data() + cp + 1, ext.size() - cp - 1);
          remainder.child = node->child;
          children[nib] = BatchInsertAt(nullptr, &remainder, it, group_end,
                                        d2 + 1, stats);
        }
        ext_merged = true;
      } else {
        children[nib] = BuildSubtree(it, group_end, d2 + 1, stats);
      }
      bitmap |= (1u << nib);
      it = group_end;
    }
    if (!ext_merged) {
      // No entry enters the extension's subtree: carried by digest only.
      if (ext.size() - cp == 1) {
        children[ext_nib] = node->child;
      } else {
        SerializeExt(&node_scratch_, PathBytes(ext) + cp + 1,
                     ext.size() - cp - 1, node->child);
        children[ext_nib] = Store(node_scratch_);
      }
      stats->subtrees_reused++;
      bitmap |= (1u << ext_nib);
    }
    SerializeBranchRef(&node_scratch_, children, bitmap, has_value,
                       branch_value);
    Digest branch = Store(node_scratch_);
    if (cp > 0) {
      SerializeExt(&node_scratch_, begin->path + depth, cp, branch);
      return Store(node_scratch_);
    }
    return branch;
  }

  // Branch.
  Digest children[16];
  for (int i = 0; i < 16; i++) {
    if (node->bitmap & (1u << i)) children[i] = node->children[i];
  }
  uint32_t bitmap = node->bitmap;
  uint32_t touched = 0;
  bool has_value = node->has_value;
  ValueRef branch_value = RefFromView(*node);
  BatchEntry* it = begin;
  if (it->path_len == depth) {
    if (node->has_value) batch_replaced_++;
    has_value = true;
    branch_value = it->value;
    it++;
  }
  while (it < end) {
    const uint8_t nib = it->path[depth];
    BatchEntry* group_end = it;
    while (group_end < end && group_end->path[depth] == nib) group_end++;
    if (node->bitmap & (1u << nib)) {
      children[nib] = BatchInsertAt(&node->children[nib], nullptr, it,
                                    group_end, depth + 1, stats);
    } else {
      children[nib] = BuildSubtree(it, group_end, depth + 1, stats);
    }
    bitmap |= (1u << nib);
    touched |= (1u << nib);
    it = group_end;
  }
  // Untouched present children are memoized: reused by digest, never
  // re-serialized or re-hashed.
  stats->subtrees_reused +=
      static_cast<size_t>(__builtin_popcount(node->bitmap & ~touched));
  SerializeBranchRef(&node_scratch_, children, bitmap, has_value,
                     branch_value);
  return Store(node_scratch_);
}

Status MerklePatriciaTrie::Get(const Slice& key, std::string* value) const {
  if (!has_root_) return Status::NotFound();
  thread_local Nibbles path;
  ToNibbles(key, &path);
  return GetAt(root_, path, 0, value, nullptr);
}

Status MerklePatriciaTrie::GetAt(const Digest& node_digest,
                                 const Nibbles& path, size_t depth,
                                 std::string* value,
                                 std::vector<std::string>* proof_nodes) const {
  Slice raw;
  if (!nodes_->Find(node_digest, &raw)) {
    return Status::Corruption("dangling node hash");
  }
  if (proof_nodes != nullptr) proof_nodes->push_back(raw.ToString());
  NodeView node;
  if (!ParseNode(raw, &node)) return Status::Corruption("bad node");

  auto load_value = [&]() -> Status {
    if (node.value_out_of_line) {
      Slice stored;
      if (!values_->Find(node.value_digest, &stored)) {
        return Status::Corruption("dangling value digest");
      }
      value->assign(stored.data(), stored.size());
      return Status::Ok();
    }
    value->assign(node.value.data(), node.value.size());
    return Status::Ok();
  };

  const uint8_t* rest = path.data() + depth;
  const size_t rest_n = path.size() - depth;
  if (node.tag == kLeafTag || node.tag == kVLeafTag) {
    if (node.path.size() != rest_n ||
        (rest_n != 0 && memcmp(node.path.data(), rest, rest_n) != 0)) {
      return Status::NotFound();
    }
    return load_value();
  }
  if (node.tag == kExtTag) {
    size_t cp = CommonPrefix(node.path, rest, rest_n);
    if (cp != node.path.size()) return Status::NotFound();
    return GetAt(node.child, path, depth + cp, value, proof_nodes);
  }
  // Branch.
  if (rest_n == 0) {
    if (!node.has_value) return Status::NotFound();
    return load_value();
  }
  if (!(node.bitmap & (1u << rest[0]))) return Status::NotFound();
  return GetAt(node.children[rest[0]], path, depth + 1, value, proof_nodes);
}

Status MerklePatriciaTrie::Prove(const Slice& key, Proof* proof) const {
  proof->nodes.clear();
  if (!has_root_) return Status::NotFound();
  thread_local Nibbles path;
  ToNibbles(key, &path);
  std::string value;
  return GetAt(root_, path, 0, &value, &proof->nodes);
}

uint64_t MerklePatriciaTrie::ReachableBytes() const {
  if (!has_root_) return 0;
  return ReachableBytesAt(root_);
}

uint64_t MerklePatriciaTrie::ReachableBytesAt(const Digest& node_digest) const {
  Slice raw;
  if (!nodes_->Find(node_digest, &raw)) return 0;
  NodeView node;
  if (!ParseNode(raw, &node)) return 0;
  uint64_t total = 32 + raw.size();
  // Out-of-line value bytes (and their digest key) are live state the node
  // references; shared values are counted once per referencing node, which
  // over-approximates slightly but keeps the walk single-pass.
  if (node.value_out_of_line) total += 32 + node.value_len;
  if (node.tag == kExtTag) {
    total += ReachableBytesAt(node.child);
  } else if (node.tag == kBranchTag) {
    for (int i = 0; i < 16; i++) {
      if (node.bitmap & (1u << i)) total += ReachableBytesAt(node.children[i]);
    }
  }
  return total;
}

bool VerifyMptProof(const crypto::Digest& root, const Slice& key,
                    const Slice& value,
                    const MerklePatriciaTrie::Proof& proof) {
  if (proof.nodes.empty()) return false;
  std::vector<uint8_t> path;
  path.reserve(key.size() * 2);
  for (size_t i = 0; i < key.size(); i++) {
    uint8_t b = static_cast<uint8_t>(key[i]);
    path.push_back(b >> 4);
    path.push_back(b & 0xF);
  }

  // Out-of-line nodes bind the value through its content digest: the
  // verifier recomputes SHA-256 over the claimed value, no value store
  // needed.
  auto value_matches = [&](const NodeView& node) {
    if (node.value_out_of_line) {
      return node.value_len == value.size() &&
             crypto::Sha256Hash(value) == node.value_digest;
    }
    return node.value == value;
  };

  Digest expected = root;
  size_t depth = 0;
  for (size_t n = 0; n < proof.nodes.size(); n++) {
    const std::string& raw = proof.nodes[n];
    if (crypto::Sha256Hash(raw) != expected) return false;
    NodeView node;
    if (!ParseNode(raw, &node)) return false;
    const uint8_t* rest = path.data() + depth;
    const size_t rest_n = path.size() - depth;
    if (node.tag == kLeafTag || node.tag == kVLeafTag) {
      return n == proof.nodes.size() - 1 && node.path.size() == rest_n &&
             (rest_n == 0 || memcmp(node.path.data(), rest, rest_n) == 0) &&
             value_matches(node);
    }
    if (node.tag == kExtTag) {
      size_t cp = CommonPrefix(node.path, rest, rest_n);
      if (cp != node.path.size()) return false;
      depth += cp;
      expected = node.child;
      continue;
    }
    // Branch.
    if (rest_n == 0) {
      return n == proof.nodes.size() - 1 && node.has_value &&
             value_matches(node);
    }
    if (!(node.bitmap & (1u << rest[0]))) return false;
    expected = node.children[rest[0]];
    depth += 1;
  }
  return false;  // ran out of nodes before reaching the terminal
}

}  // namespace dicho::adt
