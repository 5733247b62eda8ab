#include "storage/btree/btree.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <utility>

namespace dicho::storage::btree {

struct BTree::Node {
  bool leaf;
  // Interior: keys.size() + 1 == children.size(); keys are separators —
  // subtree i holds keys < keys[i], subtree i+1 holds keys >= keys[i].
  std::vector<std::string> keys;
  std::vector<Node*> children;
  // Leaf payload + chain.
  std::vector<LeafEntry> entries;
  Node* next = nullptr;

  explicit Node(bool is_leaf) : leaf(is_leaf) {}
};

namespace {

/// The child of an interior node whose range holds `key`: the index of the
/// first separator greater than it.
size_t ChildIndex(const std::vector<std::string>& separators,
                  const Slice& key) {
  return std::upper_bound(separators.begin(), separators.end(), key,
                          [](const Slice& k, const std::string& separator) {
                            return k < Slice(separator);
                          }) -
         separators.begin();
}

}  // namespace

BTree::BTree(int order) : order_(order < 4 ? 4 : order) {
  root_ = new Node(/*is_leaf=*/true);
}

BTree::~BTree() { FreeNode(root_); }

void BTree::FreeNode(Node* node) {
  if (!node->leaf) {
    for (Node* child : node->children) FreeNode(child);
  }
  delete node;
}

int BTree::height() const {
  int h = 1;
  const Node* n = root_;
  while (!n->leaf) {
    n = n->children[0];
    h++;
  }
  return h;
}

BTree::Node* BTree::FindLeaf(const Slice& key) const {
  Node* node = root_;
  while (!node->leaf) {
    node = node->children[ChildIndex(node->keys, key)];
  }
  return node;
}

Status BTree::Get(const Slice& key, std::string* value) {
  Node* leaf = FindLeaf(key);
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), key,
      [](const LeafEntry& e, const Slice& k) { return Slice(e.key) < k; });
  if (it == leaf->entries.end() || Slice(it->key) != key) {
    return Status::NotFound();
  }
  value->assign(it->value.get(), it->value_size);
  return Status::Ok();
}

void BTree::SplitChild(Node* parent, int index) {
  Node* child = parent->children[index];
  Node* sibling = new Node(child->leaf);
  std::string separator;

  if (child->leaf) {
    size_t mid = child->entries.size() / 2;
    sibling->entries.assign(
        std::make_move_iterator(child->entries.begin() + mid),
        std::make_move_iterator(child->entries.end()));
    child->entries.resize(mid);
    sibling->next = child->next;
    child->next = sibling;
    separator = sibling->entries.front().key;
  } else {
    // Interior: promote the median; left keeps < median, right keeps >.
    size_t mid = child->keys.size() / 2;
    separator = child->keys[mid];
    sibling->keys.assign(child->keys.begin() + mid + 1, child->keys.end());
    sibling->children.assign(child->children.begin() + mid + 1,
                             child->children.end());
    child->keys.resize(mid);
    child->children.resize(mid + 1);
  }

  parent->keys.insert(parent->keys.begin() + index, separator);
  parent->children.insert(parent->children.begin() + index + 1, sibling);
}

void BTree::InsertNonFull(Node* node, const Slice& key,
                          std::shared_ptr<const char>* value,
                          size_t value_size, bool* inserted,
                          uint64_t* delta_bytes) {
  if (node->leaf) {
    auto it = std::lower_bound(
        node->entries.begin(), node->entries.end(), key,
        [](const LeafEntry& e, const Slice& k) { return Slice(e.key) < k; });
    if (it != node->entries.end() && Slice(it->key) == key) {
      *delta_bytes = value_size - it->value_size;
      it->value = std::move(*value);
      it->value_size = value_size;
      *inserted = false;
    } else {
      node->entries.insert(it, {key.ToString(), std::move(*value), value_size});
      *delta_bytes = key.size() + value_size;
      *inserted = true;
    }
    return;
  }
  size_t i = ChildIndex(node->keys, key);
  Node* child = node->children[i];
  bool full = child->leaf
                  ? static_cast<int>(child->entries.size()) >= order_
                  : static_cast<int>(child->keys.size()) >= order_;
  if (full) {
    SplitChild(node, static_cast<int>(i));
    if (Slice(node->keys[i]).Compare(key) <= 0) {
      child = node->children[i + 1];
    } else {
      child = node->children[i];
    }
  }
  InsertNonFull(child, key, value, value_size, inserted, delta_bytes);
}

Status BTree::Put(const Slice& key, const Slice& value) {
  std::shared_ptr<char[]> copy =
      std::make_shared_for_overwrite<char[]>(value.size());
  if (!value.empty()) memcpy(copy.get(), value.data(), value.size());
  char* bytes = copy.get();
  return PutValue(key, std::shared_ptr<const char>(std::move(copy), bytes),
                  value.size());
}

Status BTree::Put(const Slice& key, std::shared_ptr<const std::string> owner,
                  const Slice& value) {
  // A total order even when the pointers lie in unrelated arrays.
  const std::less_equal<const char*> le;
  if (owner == nullptr || !le(owner->data(), value.data()) ||
      !le(value.data() + value.size(), owner->data() + owner->size())) {
    std::fprintf(stderr,
                 "btree: shared Put value (%zu bytes) lies outside its owner "
                 "buffer\n",
                 value.size());
    std::abort();
  }
  return PutValue(key, std::shared_ptr<const char>(std::move(owner),
                                                   value.data()),
                  value.size());
}

Status BTree::PutValue(const Slice& key, std::shared_ptr<const char> value,
                       size_t value_size) {
  bool root_full = root_->leaf
                       ? static_cast<int>(root_->entries.size()) >= order_
                       : static_cast<int>(root_->keys.size()) >= order_;
  if (root_full) {
    Node* new_root = new Node(/*is_leaf=*/false);
    new_root->children.push_back(root_);
    root_ = new_root;
    SplitChild(root_, 0);
  }
  bool inserted = false;
  uint64_t delta = 0;
  InsertNonFull(root_, key, &value, value_size, &inserted, &delta);
  if (inserted) count_++;
  bytes_ += delta;
  return Status::Ok();
}

Status BTree::Delete(const Slice& key) {
  // Lazy deletion: remove from the leaf without rebalancing (common in
  // practice for in-memory trees; underfull leaves merge away on later
  // splits of the key space). Min-fill is therefore not an invariant after
  // deletes — CheckInvariants() checks ordering/depth only.
  Node* leaf = FindLeaf(key);
  auto it = std::lower_bound(
      leaf->entries.begin(), leaf->entries.end(), key,
      [](const LeafEntry& e, const Slice& k) { return Slice(e.key) < k; });
  if (it == leaf->entries.end() || Slice(it->key) != key) {
    return Status::NotFound();
  }
  bytes_ -= it->key.size() + it->value_size;
  leaf->entries.erase(it);
  count_--;
  return Status::Ok();
}

Status BTree::Write(const WriteBatch& batch) {
  for (const auto& op : batch.ops()) {
    if (op.type == WriteBatch::OpType::kPut) {
      Status s = Put(op.key, op.value);
      if (!s.ok()) return s;
    } else {
      Status s = Delete(op.key);
      if (!s.ok() && !s.IsNotFound()) return s;
    }
  }
  return Status::Ok();
}

class BTreeIterator : public storage::Iterator {
 public:
  explicit BTreeIterator(const BTree* tree) : tree_(tree) {}

  bool Valid() const override { return leaf_ != nullptr; }

  void SeekToFirst() override {
    const BTree::Node* n = tree_->root_;
    while (!n->leaf) n = n->children[0];
    leaf_ = n;
    index_ = 0;
    SkipEmptyLeaves();
  }

  void Seek(const Slice& target) override {
    leaf_ = tree_->FindLeaf(target);
    const auto& entries = leaf_->entries;
    index_ = static_cast<size_t>(
        std::lower_bound(entries.begin(), entries.end(), target,
                         [](const BTree::LeafEntry& e, const Slice& k) {
                           return Slice(e.key) < k;
                         }) -
        entries.begin());
    SkipEmptyLeaves();
  }

  void Next() override {
    assert(Valid());
    index_++;
    SkipEmptyLeaves();
  }

  Slice key() const override { return Slice(leaf_->entries[index_].key); }
  Slice value() const override { return leaf_->entries[index_].value_slice(); }

 private:
  void SkipEmptyLeaves() {
    while (leaf_ != nullptr && index_ >= leaf_->entries.size()) {
      leaf_ = leaf_->next;
      index_ = 0;
    }
  }

  const BTree* tree_;
  const BTree::Node* leaf_ = nullptr;
  size_t index_ = 0;
};

std::unique_ptr<storage::Iterator> BTree::NewIterator() {
  return std::make_unique<BTreeIterator>(this);
}

int BTree::LeafDepth() const {
  int d = 0;
  const Node* n = root_;
  while (!n->leaf) {
    n = n->children[0];
    d++;
  }
  return d;
}

bool BTree::CheckNode(const Node* node, const std::string* lower,
                      const std::string* upper, int depth,
                      int leaf_depth) const {
  if (node->leaf) {
    if (depth != leaf_depth) return false;
    for (size_t i = 0; i < node->entries.size(); i++) {
      const std::string& k = node->entries[i].key;
      if (i > 0 && !(node->entries[i - 1].key < k)) return false;
      if (lower != nullptr && k < *lower) return false;
      if (upper != nullptr && !(k < *upper)) return false;
    }
    return true;
  }
  if (node->children.size() != node->keys.size() + 1) return false;
  for (size_t i = 0; i + 1 < node->keys.size(); i++) {
    if (!(node->keys[i] < node->keys[i + 1])) return false;
  }
  for (size_t i = 0; i < node->children.size(); i++) {
    const std::string* lo = (i == 0) ? lower : &node->keys[i - 1];
    const std::string* hi = (i == node->keys.size()) ? upper : &node->keys[i];
    if (!CheckNode(node->children[i], lo, hi, depth + 1, leaf_depth)) {
      return false;
    }
  }
  return true;
}

bool BTree::CheckInvariants() const {
  return CheckNode(root_, nullptr, nullptr, 0, LeafDepth());
}

}  // namespace dicho::storage::btree
