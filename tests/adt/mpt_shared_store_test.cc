#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adt/mpt.h"
#include "common/random.h"

namespace dicho::adt {
namespace {

// Tries that file into one content-addressed store: a trie that adopts
// another's update must read exactly as a trie with stores of its own that
// made the update itself. Run once with inline values and once with the
// fast storage path's out-of-line values.
class MptSharedStoreTest : public ::testing::TestWithParam<size_t> {
 protected:
  MptOptions Options() const {
    MptOptions options;
    options.inline_value_threshold = GetParam();
    return options;
  }
};

std::string Value(Rng* rng) {
  // Large values cross the out-of-line threshold; a few repeat byte for
  // byte so the value store deduplicates.
  switch (rng->Uniform(4)) {
    case 0:
      return "same-large-" + std::string(1200, 'x');
    case 1:
      return rng->Bytes(rng->UniformRange(1024, 2048));
    default:
      return rng->Bytes(rng->UniformRange(0, 64));
  }
}

void ExpectSameLogicalState(const MerklePatriciaTrie& a,
                            const MerklePatriciaTrie& b) {
  EXPECT_EQ(a.RootDigest(), b.RootDigest());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.TotalNodeBytes(), b.TotalNodeBytes());
  EXPECT_EQ(a.batch_reuse_hits(), b.batch_reuse_hits());
  EXPECT_EQ(a.out_of_line_values(), b.out_of_line_values());
  EXPECT_EQ(a.value_dedup_hits(), b.value_dedup_hits());
  EXPECT_EQ(a.last_update_nodes(), b.last_update_nodes());
}

TEST_P(MptSharedStoreTest, AdoptedUpdatesMatchAnIndependentTrie) {
  Rng rng(GetParam() == SIZE_MAX ? 404 : 405);
  MerklePatriciaTrie computer(Options());
  MerklePatriciaTrie adopter;
  adopter.Configure(Options());
  adopter.ShareStoresOf(computer);
  MerklePatriciaTrie independent(Options());
  ASSERT_TRUE(adopter.SharesStoresWith(computer));
  ASSERT_FALSE(independent.SharesStoresWith(computer));

  std::map<std::string, std::string> model;
  // Setup-style single Puts, then block-style batches that overwrite.
  for (int i = 0; i < 60; i++) {
    const std::string key = "acct" + std::to_string(i);
    const std::string value = Value(&rng);
    const MerklePatriciaTrie::Checkpoint before = computer.checkpoint();
    ASSERT_TRUE(computer.Put(key, value).ok());
    ASSERT_TRUE(adopter.Adopt(before, computer.checkpoint()));
    ASSERT_TRUE(independent.Put(key, value).ok());
    model[key] = value;
  }
  ExpectSameLogicalState(adopter, independent);
  for (int round = 0; round < 40; round++) {
    const MerklePatriciaTrie::Checkpoint before = computer.checkpoint();
    for (int i = 0; i < 6; i++) {
      const std::string key = "acct" + std::to_string(rng.Uniform(80));
      const std::string value = Value(&rng);
      computer.StagePut(key, value);
      independent.StagePut(key, value);
      model[key] = value;
    }
    ASSERT_TRUE(computer.CommitBatch().ok());
    ASSERT_TRUE(independent.CommitBatch().ok());
    ASSERT_TRUE(adopter.Adopt(before, computer.checkpoint()));
    ExpectSameLogicalState(adopter, independent);
  }
  ExpectSameLogicalState(computer, independent);
  if (GetParam() != SIZE_MAX) {
    EXPECT_GT(adopter.out_of_line_values(), 0u);
    EXPECT_GT(adopter.value_dedup_hits(), 0u);
  }
  EXPECT_GT(adopter.batch_reuse_hits(), 0u);

  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(adopter.Get(key, &got).ok()) << key;
    EXPECT_EQ(got, value);
    MerklePatriciaTrie::Proof proof;
    MerklePatriciaTrie::Proof independent_proof;
    ASSERT_TRUE(adopter.Prove(key, &proof).ok());
    ASSERT_TRUE(independent.Prove(key, &independent_proof).ok());
    EXPECT_EQ(proof.nodes, independent_proof.nodes) << key;
    EXPECT_TRUE(VerifyMptProof(adopter.RootDigest(), key, value, proof));
  }
}

TEST_P(MptSharedStoreTest, AdoptRefusesWhatItCannotApply) {
  MerklePatriciaTrie computer(Options());
  MerklePatriciaTrie stranger(Options());
  MerklePatriciaTrie behind;
  behind.Configure(Options());
  behind.ShareStoresOf(computer);
  MptOptions other_options;
  other_options.inline_value_threshold =
      GetParam() == SIZE_MAX ? 1024 : SIZE_MAX;
  MerklePatriciaTrie other_encoding;
  other_encoding.Configure(other_options);
  other_encoding.ShareStoresOf(computer);

  ASSERT_TRUE(computer.Put("a", "1").ok());
  const MerklePatriciaTrie::Checkpoint before = computer.checkpoint();
  ASSERT_TRUE(computer.Put("b", "2").ok());
  const MerklePatriciaTrie::Checkpoint after = computer.checkpoint();

  // Its own stores: the adopted root's nodes are not there.
  ASSERT_TRUE(stranger.Put("a", "1").ok());
  EXPECT_FALSE(stranger.Adopt(before, after));
  // Shared stores, but not at the update's pre-state.
  EXPECT_FALSE(behind.Adopt(before, after));
  EXPECT_EQ(behind.size(), 0u);
  EXPECT_EQ(behind.TotalNodeBytes(), 0u);
  // Shared stores, but another encoding of values.
  ASSERT_TRUE(other_encoding.Put("a", "1").ok());
  EXPECT_FALSE(other_encoding.Adopt(before, after));
  // Something staged: adopting would drop it.
  MerklePatriciaTrie staged;
  staged.Configure(Options());
  staged.ShareStoresOf(computer);
  ASSERT_TRUE(staged.Put("a", "1").ok());
  staged.StagePut("c", "3");
  EXPECT_FALSE(staged.Adopt(before, after));

  std::string got;
  EXPECT_TRUE(stranger.Get("b", &got).IsNotFound());
  EXPECT_TRUE(behind.Get("a", &got).IsNotFound());
}

// A trie that leaves the shared history still computes correct roots and
// proofs in the shared store: content addressing makes nodes another trie
// stored indistinguishable from its own.
TEST_P(MptSharedStoreTest, DivergedTrieStaysCorrectInTheSharedStore) {
  Rng rng(GetParam() == SIZE_MAX ? 506 : 507);
  MerklePatriciaTrie healthy(Options());
  MerklePatriciaTrie diverged;
  diverged.Configure(Options());
  diverged.ShareStoresOf(healthy);
  MerklePatriciaTrie reference(Options());  // the diverged history, alone

  for (int i = 0; i < 30; i++) {
    const std::string key = "acct" + std::to_string(i);
    const std::string value = Value(&rng);
    const MerklePatriciaTrie::Checkpoint before = healthy.checkpoint();
    ASSERT_TRUE(healthy.Put(key, value).ok());
    ASSERT_TRUE(diverged.Adopt(before, healthy.checkpoint()));
    ASSERT_TRUE(reference.Put(key, value).ok());
  }
  ASSERT_TRUE(diverged.Put("rogue", "value").ok());
  ASSERT_TRUE(reference.Put("rogue", "value").ok());
  std::map<std::string, std::string> model;
  for (int round = 0; round < 20; round++) {
    for (int i = 0; i < 5; i++) {
      const std::string key = "acct" + std::to_string(rng.Uniform(40));
      const std::string value = Value(&rng);
      healthy.StagePut(key, value);
      diverged.StagePut(key, value);
      reference.StagePut(key, value);
      model[key] = value;
    }
    ASSERT_TRUE(healthy.CommitBatch().ok());
    ASSERT_TRUE(diverged.CommitBatch().ok());
    ASSERT_TRUE(reference.CommitBatch().ok());
    ASSERT_EQ(diverged.RootDigest(), reference.RootDigest()) << round;
    ASSERT_NE(diverged.RootDigest(), healthy.RootDigest()) << round;
  }
  EXPECT_EQ(diverged.size(), reference.size());
  for (const auto& [key, value] : model) {
    std::string got;
    ASSERT_TRUE(diverged.Get(key, &got).ok());
    EXPECT_EQ(got, value);
    MerklePatriciaTrie::Proof proof;
    ASSERT_TRUE(diverged.Prove(key, &proof).ok());
    EXPECT_TRUE(VerifyMptProof(diverged.RootDigest(), key, value, proof));
  }
  std::string rogue;
  ASSERT_TRUE(diverged.Get("rogue", &rogue).ok());
  EXPECT_TRUE(healthy.Get("rogue", &rogue).IsNotFound());
}

std::string EncodingName(const ::testing::TestParamInfo<size_t>& info) {
  return info.param == SIZE_MAX ? "Inline" : "OutOfLine1024";
}

INSTANTIATE_TEST_SUITE_P(Encodings, MptSharedStoreTest,
                         ::testing::Values(SIZE_MAX, size_t{1024}),
                         EncodingName);

}  // namespace
}  // namespace dicho::adt
