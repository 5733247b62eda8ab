#ifndef DICHO_STORAGE_BTREE_BTREE_H_
#define DICHO_STORAGE_BTREE_BTREE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "storage/kv.h"

namespace dicho::storage::btree {

/// In-memory B+-tree in the BoltDB mold (etcd's storage engine): interior
/// nodes hold separator keys, leaves hold the records and are chained for
/// range scans. Order is the max children per interior node / max records
/// per leaf.
class BTree : public KvStore {
 public:
  explicit BTree(int order = 64);
  ~BTree() override;

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Copies `value` into one buffer owned by the leaf.
  Status Put(const Slice& key, const Slice& value) override;
  /// Stores `value` without copying it: the leaf keeps `owner` alive and
  /// points into it, so trees that are handed the same owner (replicas
  /// applying one replicated command) hold one copy of the bytes between
  /// them. `value` must lie inside `*owner`; anything else aborts.
  Status Put(const Slice& key, std::shared_ptr<const std::string> owner,
             const Slice& value);
  Status Delete(const Slice& key) override;
  Status Get(const Slice& key, std::string* value) override;
  Status Write(const WriteBatch& batch) override;
  std::unique_ptr<storage::Iterator> NewIterator() override;
  /// Logical bytes (keys + values written), however many trees share the
  /// value buffers.
  uint64_t ApproximateSize() const override { return bytes_; }

  size_t size() const { return count_; }
  int height() const;

  /// Structural invariant checker used by the property tests: key ordering,
  /// fill factors, uniform leaf depth, leaf-chain consistency.
  bool CheckInvariants() const;

 private:
  struct Node;
  /// `value` points at `value_size` immutable bytes and shares ownership of
  /// the buffer holding them: a private copy, or a replicated command.
  struct LeafEntry {
    std::string key;
    std::shared_ptr<const char> value;
    size_t value_size = 0;

    Slice value_slice() const { return Slice(value.get(), value_size); }
  };

  Node* FindLeaf(const Slice& key) const;
  void SplitChild(Node* parent, int index);
  Status PutValue(const Slice& key, std::shared_ptr<const char> value,
                  size_t value_size);
  void InsertNonFull(Node* node, const Slice& key,
                     std::shared_ptr<const char>* value, size_t value_size,
                     bool* inserted, uint64_t* delta_bytes);
  void FreeNode(Node* node);
  bool CheckNode(const Node* node, const std::string* lower,
                 const std::string* upper, int depth, int leaf_depth) const;
  int LeafDepth() const;

  int order_;
  Node* root_;
  size_t count_ = 0;
  uint64_t bytes_ = 0;

  friend class BTreeIterator;
};

}  // namespace dicho::storage::btree

#endif  // DICHO_STORAGE_BTREE_BTREE_H_
