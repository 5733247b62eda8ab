#include "storage/btree/btree.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "storage/memkv.h"

namespace dicho::storage::btree {
namespace {

TEST(BTreeTest, PutGet) {
  BTree tree;
  ASSERT_TRUE(tree.Put("k", "v").ok());
  std::string value;
  ASSERT_TRUE(tree.Get("k", &value).ok());
  EXPECT_EQ(value, "v");
  EXPECT_TRUE(tree.Get("missing", &value).IsNotFound());
}

TEST(BTreeTest, Overwrite) {
  BTree tree;
  ASSERT_TRUE(tree.Put("k", "v1").ok());
  ASSERT_TRUE(tree.Put("k", "v2").ok());
  std::string value;
  ASSERT_TRUE(tree.Get("k", &value).ok());
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(tree.size(), 1u);
}

TEST(BTreeTest, DeleteRemoves) {
  BTree tree;
  ASSERT_TRUE(tree.Put("k", "v").ok());
  ASSERT_TRUE(tree.Delete("k").ok());
  std::string value;
  EXPECT_TRUE(tree.Get("k", &value).IsNotFound());
  EXPECT_TRUE(tree.Delete("k").IsNotFound());
  EXPECT_EQ(tree.size(), 0u);
}

TEST(BTreeTest, SplitsGrowHeight) {
  BTree tree(/*order=*/4);
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    ASSERT_TRUE(tree.Put(buf, "v").ok());
  }
  EXPECT_GT(tree.height(), 2);
  EXPECT_TRUE(tree.CheckInvariants());
  for (int i = 0; i < 1000; i++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%04d", i);
    std::string value;
    ASSERT_TRUE(tree.Get(buf, &value).ok()) << buf;
  }
}

TEST(BTreeTest, IteratorSortedScan) {
  BTree tree(/*order=*/8);
  std::map<std::string, std::string> model;
  Rng rng(11);
  for (int i = 0; i < 1000; i++) {
    std::string key = rng.Bytes(1 + rng.Uniform(12));
    model[key] = "v" + std::to_string(i);
    ASSERT_TRUE(tree.Put(key, model[key]).ok());
  }
  auto it = tree.NewIterator();
  auto expect = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, model.end());
    EXPECT_EQ(it->key(), Slice(expect->first));
    EXPECT_EQ(it->value(), Slice(expect->second));
  }
  EXPECT_EQ(expect, model.end());
}

TEST(BTreeTest, SeekLowerBound) {
  BTree tree(/*order=*/4);
  for (int i = 0; i < 100; i += 10) {
    char buf[16];
    snprintf(buf, sizeof(buf), "key%03d", i);
    ASSERT_TRUE(tree.Put(buf, "v").ok());
  }
  auto it = tree.NewIterator();
  it->Seek("key025");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), Slice("key030"));
  it->Seek("key090");
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(it->key(), Slice("key090"));
  it->Seek("zzz");
  EXPECT_FALSE(it->Valid());
}

TEST(BTreeTest, WriteBatch) {
  BTree tree;
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  ASSERT_TRUE(tree.Write(batch).ok());
  std::string value;
  EXPECT_TRUE(tree.Get("a", &value).IsNotFound());
  ASSERT_TRUE(tree.Get("b", &value).ok());
}

TEST(BTreeTest, ApproximateSizeTracksBytes) {
  BTree tree;
  ASSERT_TRUE(tree.Put("abc", "0123456789").ok());
  EXPECT_EQ(tree.ApproximateSize(), 13u);
  ASSERT_TRUE(tree.Put("abc", "01234").ok());
  EXPECT_EQ(tree.ApproximateSize(), 8u);
  ASSERT_TRUE(tree.Delete("abc").ok());
  EXPECT_EQ(tree.ApproximateSize(), 0u);
}

TEST(BTreeTest, PutCopiesCallerBytes) {
  BTree tree;
  std::string key = "k";
  std::string value = "original";
  ASSERT_TRUE(tree.Put(key, value).ok());
  key[0] = 'x';
  value.assign("mutated!");
  std::string got;
  ASSERT_TRUE(tree.Get("k", &got).ok());
  EXPECT_EQ(got, "original");
  EXPECT_TRUE(tree.Get("x", &got).IsNotFound());
}

TEST(BTreeTest, SharedPutKeepsOwnerAlive) {
  BTree tree;
  auto owner = std::make_shared<const std::string>("header:payload:trailer");
  std::weak_ptr<const std::string> watch = owner;
  const Slice value(owner->data() + 7, 7);  // "payload"
  ASSERT_TRUE(tree.Put("k", owner, value).ok());
  owner.reset();
  ASSERT_FALSE(watch.expired());
  std::string got;
  ASSERT_TRUE(tree.Get("k", &got).ok());
  EXPECT_EQ(got, "payload");
  auto it = tree.NewIterator();
  it->SeekToFirst();
  ASSERT_TRUE(it->Valid());
  EXPECT_EQ(static_cast<const void*>(it->value().data()),
            static_cast<const void*>(watch.lock()->data() + 7));
  EXPECT_EQ(tree.ApproximateSize(), 1u + 7u);
  it.reset();
  // Overwriting the key drops the owner's last reference.
  ASSERT_TRUE(tree.Put("k", "replaced").ok());
  EXPECT_TRUE(watch.expired());
  ASSERT_TRUE(tree.Get("k", &got).ok());
  EXPECT_EQ(got, "replaced");
}

TEST(BTreeDeathTest, SharedPutRejectsValueOutsideOwner) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto owner = std::make_shared<const std::string>("0123456789");
  EXPECT_DEATH(
      {
        BTree tree;
        std::string elsewhere = "0123";
        (void)tree.Put("k", owner, Slice(elsewhere));
      },
      "outside its owner");
  EXPECT_DEATH(
      {
        BTree tree;
        // Starts inside the owner but runs past its end.
        (void)tree.Put("k", owner, Slice(owner->data() + 8, 3));
      },
      "outside its owner");
}

// Differential fuzz across node orders: B+-tree vs std::map oracle, with
// invariants checked along the way.
class BTreeFuzzSweep : public ::testing::TestWithParam<int> {};

TEST_P(BTreeFuzzSweep, MatchesOracle) {
  BTree tree(GetParam());
  std::map<std::string, std::string> model;
  Rng rng(GetParam() * 7919);
  for (int i = 0; i < 5000; i++) {
    std::string key = "k" + std::to_string(rng.Uniform(600));
    double dice = rng.NextDouble();
    if (dice < 0.6) {
      std::string value = rng.Bytes(1 + rng.Uniform(30));
      model[key] = value;
      ASSERT_TRUE(tree.Put(key, value).ok());
    } else if (dice < 0.85) {
      bool existed = model.erase(key) > 0;
      Status s = tree.Delete(key);
      EXPECT_EQ(s.ok(), existed);
    } else {
      std::string got;
      Status s = tree.Get(key, &got);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound());
      } else {
        ASSERT_TRUE(s.ok());
        EXPECT_EQ(got, it->second);
      }
    }
    if (i % 500 == 0) {
      ASSERT_TRUE(tree.CheckInvariants()) << "iteration " << i;
    }
  }
  EXPECT_TRUE(tree.CheckInvariants());
  EXPECT_EQ(tree.size(), model.size());
  auto it = tree.NewIterator();
  auto expect = model.begin();
  for (it->SeekToFirst(); it->Valid(); it->Next(), ++expect) {
    ASSERT_NE(expect, model.end());
    EXPECT_EQ(it->key(), Slice(expect->first));
  }
  EXPECT_EQ(expect, model.end());
}

INSTANTIATE_TEST_SUITE_P(Orders, BTreeFuzzSweep,
                         ::testing::Values(4, 8, 16, 64, 128));

TEST(MemKvTest, BasicOperations) {
  storage::MemKv kv;
  ASSERT_TRUE(kv.Put("a", "1").ok());
  std::string value;
  ASSERT_TRUE(kv.Get("a", &value).ok());
  EXPECT_EQ(value, "1");
  ASSERT_TRUE(kv.Delete("a").ok());
  EXPECT_TRUE(kv.Get("a", &value).IsNotFound());
  EXPECT_EQ(kv.ApproximateSize(), 0u);
}

}  // namespace
}  // namespace dicho::storage::btree
