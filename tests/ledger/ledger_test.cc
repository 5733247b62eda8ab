#include "ledger/ledger.h"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "common/random.h"
#include "crypto/signature.h"

namespace dicho::ledger {
namespace {

LedgerTxn MakeTxn(uint64_t id, const std::string& payload) {
  LedgerTxn txn;
  txn.txn_id = id;
  txn.client_id = id % 7;
  txn.payload = payload;
  txn.client_signature = crypto::Signer(txn.client_id).Sign(payload);
  txn.read_set = {{"key" + std::to_string(id), id}};
  txn.write_set = {{"key" + std::to_string(id), "value" + std::to_string(id)}};
  return txn;
}

Block MakeBlock(uint64_t number, const crypto::Digest& parent, int txns) {
  Block block;
  block.header.number = number;
  block.header.parent = parent;
  block.header.timestamp_us = number * 1000;
  for (int i = 0; i < txns; i++) {
    block.txns.push_back(MakeTxn(number * 100 + i, "payload"));
  }
  block.SealTxnRoot();
  return block;
}

TEST(LedgerTxnTest, SerializationRoundTrip) {
  LedgerTxn txn = MakeTxn(42, "the-payload");
  txn.endorsements = {{1, std::string(32, 'a')}, {2, std::string(32, 'b')}};
  txn.valid = false;
  LedgerTxn out;
  ASSERT_TRUE(LedgerTxn::Deserialize(txn.Serialize(), &out));
  EXPECT_EQ(out.txn_id, 42u);
  EXPECT_EQ(out.payload, "the-payload");
  EXPECT_EQ(out.endorsements.size(), 2u);
  EXPECT_EQ(out.read_set, txn.read_set);
  EXPECT_EQ(out.write_set, txn.write_set);
  EXPECT_FALSE(out.valid);
  EXPECT_FALSE(LedgerTxn::Deserialize("junk", &out));
}

TEST(LedgerTxnTest, LedgerByteSizeMatchesWireFormat) {
  // ByteSize() is computed arithmetically (no serialization on the block
  // append hot path); pin it to the actual wire bytes across shapes that
  // cross varint length boundaries.
  Rng rng(7);
  for (int round = 0; round < 50; round++) {
    LedgerTxn txn = MakeTxn(round, rng.Bytes(rng.Uniform(300)));
    uint64_t endorsers = rng.Uniform(5);
    for (uint64_t e = 0; e < endorsers; e++) {
      txn.endorsements.emplace_back(e, rng.Bytes(32));
    }
    uint64_t extra = rng.Uniform(200);  // push lengths past 127 sometimes
    txn.write_set.emplace_back(rng.Bytes(10), rng.Bytes(extra));
    txn.valid = round % 2 == 0;
    EXPECT_EQ(txn.ByteSize(), txn.Serialize().size());

    Block block;
    block.header.number = round;
    block.txns.push_back(txn);
    if (round % 3 == 0) block.txns.push_back(MakeTxn(round + 1000, "p"));
    block.SealTxnRoot();
    EXPECT_EQ(block.ByteSize(), block.Serialize().size());
  }
  EXPECT_EQ(Block{}.ByteSize(), Block{}.Serialize().size());
}

TEST(BlockTest, SerializationRoundTrip) {
  Block block = MakeBlock(3, crypto::Sha256Of("parent"), 5);
  Block out;
  ASSERT_TRUE(Block::Deserialize(block.Serialize(), &out));
  EXPECT_EQ(out.header.number, 3u);
  EXPECT_EQ(out.header.parent, block.header.parent);
  EXPECT_EQ(out.header.txn_root, block.header.txn_root);
  EXPECT_EQ(out.txns.size(), 5u);
}

TEST(ChainTest, AppendsLinkedBlocks) {
  Chain chain;
  ASSERT_TRUE(chain.Append(MakeBlock(0, crypto::ZeroDigest(), 3)).ok());
  ASSERT_TRUE(chain.Append(MakeBlock(1, chain.TipDigest(), 2)).ok());
  EXPECT_EQ(chain.height(), 2u);
  EXPECT_EQ(chain.TotalTxns(), 5u);
  EXPECT_GT(chain.TotalBytes(), 0u);
  EXPECT_TRUE(chain.Verify().ok());
}

TEST(ChainTest, RejectsBadParent) {
  Chain chain;
  ASSERT_TRUE(chain.Append(MakeBlock(0, crypto::ZeroDigest(), 1)).ok());
  Block bad = MakeBlock(1, crypto::Sha256Of("wrong"), 1);
  EXPECT_TRUE(chain.Append(bad).IsCorruption());
}

TEST(ChainTest, RejectsNonSequentialNumber) {
  Chain chain;
  ASSERT_TRUE(chain.Append(MakeBlock(0, crypto::ZeroDigest(), 1)).ok());
  Block skip = MakeBlock(5, chain.TipDigest(), 1);
  EXPECT_FALSE(chain.Append(skip).ok());
}

TEST(ChainTest, RejectsBadTxnRoot) {
  Chain chain;
  ASSERT_TRUE(chain.Append(MakeBlock(0, crypto::ZeroDigest(), 1)).ok());
  Block bad = MakeBlock(1, chain.TipDigest(), 2);
  bad.header.txn_root = crypto::Sha256Of("lies");
  EXPECT_TRUE(chain.Append(bad).IsCorruption());
}

TEST(ChainTest, DetectsTamperedTxn) {
  Chain chain;
  for (int i = 0; i < 5; i++) {
    ASSERT_TRUE(chain.Append(MakeBlock(i, chain.TipDigest(), 4)).ok());
  }
  ASSERT_TRUE(chain.Verify().ok());
  // Flip one byte of one transaction deep in history.
  chain.MutableBlockForTest(2).txns[1].payload[0] ^= 1;
  EXPECT_TRUE(chain.Verify().IsCorruption());
}

TEST(ChainTest, DetectsTamperedHeaderChain) {
  Chain chain;
  for (int i = 0; i < 4; i++) {
    ASSERT_TRUE(chain.Append(MakeBlock(i, chain.TipDigest(), 2)).ok());
  }
  // Rewriting a block's timestamp breaks the hash link to its child.
  chain.MutableBlockForTest(1).header.timestamp_us = 999999;
  EXPECT_TRUE(chain.Verify().IsCorruption());
}

TEST(ChainTest, TxnInclusionProofs) {
  Chain chain;
  for (int i = 0; i < 3; i++) {
    ASSERT_TRUE(chain.Append(MakeBlock(i, chain.TipDigest(), 8)).ok());
  }
  auto proof = chain.ProveTxn(1, 3);
  ASSERT_TRUE(proof.ok());
  const BlockView block = chain.block(1);
  EXPECT_TRUE(crypto::VerifyMerkleProof(block.txns[3].Serialize(),
                                        proof.value(),
                                        block.header.txn_root));
  // A different transaction's bytes fail against this proof.
  EXPECT_FALSE(crypto::VerifyMerkleProof(block.txns[4].Serialize(),
                                         proof.value(),
                                         block.header.txn_root));
  EXPECT_FALSE(chain.ProveTxn(99, 0).ok());
  EXPECT_FALSE(chain.ProveTxn(1, 99).ok());
}

TEST(LedgerTxnTest, EqualityCoversEveryField) {
  const LedgerTxn base = MakeTxn(9, "payload");
  EXPECT_EQ(base, MakeTxn(9, "payload"));
  std::vector<std::function<void(LedgerTxn*)>> edits = {
      [](LedgerTxn* t) { t->txn_id++; },
      [](LedgerTxn* t) { t->client_id++; },
      [](LedgerTxn* t) { t->payload += "x"; },
      [](LedgerTxn* t) { t->client_signature[0] ^= 1; },
      [](LedgerTxn* t) { t->endorsements.emplace_back(1, "sig"); },
      [](LedgerTxn* t) { t->read_set[0].second++; },
      [](LedgerTxn* t) { t->write_set[0].second += "x"; },
      [](LedgerTxn* t) { t->valid = false; },
  };
  for (size_t i = 0; i < edits.size(); i++) {
    LedgerTxn edited = base;
    edits[i](&edited);
    EXPECT_NE(edited, base) << "edit " << i;
  }
}

TEST(SealedBodyTest, SealsRootAndSizeOnce) {
  Block block = MakeBlock(0, crypto::ZeroDigest(), 6);
  SealedBodyPtr body = SealedBody::Seal(block.txns);
  EXPECT_EQ(body->root(), block.header.txn_root);
  EXPECT_EQ(body->txns(), block.txns);
  EXPECT_EQ(body->ByteSize() + (8 + 32 * 3 + 8), block.ByteSize());
  EXPECT_EQ(SealedBody::Seal({})->root(), crypto::ZeroDigest());
}

// Two chains append one sealed body under their own headers; each keeps
// its own logical accounting and a tamper stays local to the chain made.
TEST(ChainTest, SealedAppendSharesOneBody) {
  Chain a;
  Chain b;
  Chain reference;  // the same history through the verifying Append
  for (uint64_t i = 0; i < 4; i++) {
    Block block = MakeBlock(i, a.TipDigest(), 3);
    SealedBodyPtr body = SealedBody::Seal(block.txns);
    BlockHeader header = block.header;
    header.txn_root = crypto::ZeroDigest();  // taken from the body
    ASSERT_TRUE(a.AppendSealed(header, body).ok());
    header.parent = b.TipDigest();
    header.state_digest = crypto::Sha256Of("b's own state");
    ASSERT_TRUE(b.AppendSealed(header, body).ok());
    ASSERT_TRUE(reference.Append(block).ok());
  }
  for (uint64_t i = 0; i < 4; i++) {
    EXPECT_EQ(a.body(i).get(), b.body(i).get()) << i;
    EXPECT_EQ(a.block(i).header.txn_root, a.body(i)->root());
    EXPECT_EQ(a.block(i).header.Hash(), reference.block(i).header.Hash());
    EXPECT_NE(a.block(i).header.Hash(), b.block(i).header.Hash());
  }
  EXPECT_EQ(a.TipDigest(), reference.TipDigest());
  EXPECT_EQ(a.TotalBytes(), reference.TotalBytes());
  EXPECT_EQ(b.TotalBytes(), reference.TotalBytes());
  EXPECT_EQ(b.TotalTxns(), 12u);
  ASSERT_TRUE(a.Verify().ok());
  ASSERT_TRUE(b.Verify().ok());

  const SealedBody* shared = b.body(2).get();
  a.MutableBlockForTest(2).txns[1].payload[0] ^= 1;
  EXPECT_TRUE(a.Verify().IsCorruption());
  EXPECT_NE(a.body(2).get(), shared);
  EXPECT_EQ(b.body(2).get(), shared);
  EXPECT_EQ(b.block(2).txns[1].payload, "payload");
  EXPECT_TRUE(b.Verify().ok());
}

TEST(ChainTest, SealedAppendChecksNumberAndParent) {
  Chain chain;
  SealedBodyPtr body = SealedBody::Seal({MakeTxn(1, "p")});
  BlockHeader header;
  header.number = 1;
  EXPECT_FALSE(chain.AppendSealed(header, body).ok());
  header.number = 0;
  header.parent = crypto::Sha256Of("wrong");
  EXPECT_TRUE(chain.AppendSealed(header, body).IsCorruption());
  header.parent = crypto::ZeroDigest();
  ASSERT_TRUE(chain.AppendSealed(header, body).ok());
  header.number = 1;
  EXPECT_TRUE(chain.AppendSealed(header, body).IsCorruption());
  header.parent = chain.TipDigest();
  EXPECT_TRUE(chain.AppendSealed(header, body).ok());
  EXPECT_EQ(chain.height(), 2u);
}

TEST(ChainTest, LedgerStorageExceedsStateStorage) {
  // The Fig. 12 effect: the ledger keeps payloads, signatures, and rw-sets,
  // so block storage is a large multiple of the raw record bytes.
  Chain chain;
  Rng rng(5);
  uint64_t raw_bytes = 0;
  for (int b = 0; b < 10; b++) {
    Block block;
    block.header.number = b;
    block.header.parent = chain.TipDigest();
    for (int i = 0; i < 20; i++) {
      LedgerTxn txn = MakeTxn(b * 100 + i, rng.Bytes(100));
      raw_bytes += 100;
      block.txns.push_back(std::move(txn));
    }
    block.SealTxnRoot();
    ASSERT_TRUE(chain.Append(std::move(block)).ok());
  }
  // ~1.9x with bare transactions; Fabric-style endorsements push it to the
  // paper's ~4x (exercised in the systems tests).
  EXPECT_GT(chain.TotalBytes(), raw_bytes * 3 / 2);
}

}  // namespace
}  // namespace dicho::ledger
