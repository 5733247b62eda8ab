#ifndef DICHO_LEDGER_LEDGER_H_
#define DICHO_LEDGER_LEDGER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "crypto/merkle.h"
#include "crypto/sha256.h"

namespace dicho::ledger {

/// A transaction as recorded on the ledger: the full client request plus
/// replication-level context (signatures, read/write sets, validity). This
/// is the paper's "transaction-based replication" unit — the ledger keeps
/// enough application-level information to re-verify execution (Section
/// 3.1.1), which is also why it costs so much more storage than a database
/// (Fig. 12).
struct LedgerTxn {
  uint64_t txn_id = 0;
  uint64_t client_id = 0;
  std::string payload;          // serialized TxnRequest
  std::string client_signature; // 32B in our scheme
  /// Endorsement signatures (Fabric) or empty (order-execute chains).
  std::vector<std::pair<uint64_t, std::string>> endorsements;
  /// MVCC read set: key -> version observed during simulation.
  std::vector<std::pair<std::string, uint64_t>> read_set;
  /// Write set applied on commit.
  std::vector<std::pair<std::string, std::string>> write_set;
  bool valid = true;  // set false by validation (aborted txns stay on chain)

  std::string Serialize() const;
  static bool Deserialize(const std::string& data, LedgerTxn* out);
  /// Exact Serialize().size() computed arithmetically — no allocation, no
  /// byte copying (a hot-path cost on every block append; pinned to the
  /// wire format by a ledger test).
  uint64_t ByteSize() const;

  bool operator==(const LedgerTxn&) const = default;
};

struct BlockHeader {
  uint64_t number = 0;
  crypto::Digest parent = crypto::ZeroDigest();
  crypto::Digest txn_root = crypto::ZeroDigest();   // Merkle root over txns
  crypto::Digest state_digest = crypto::ZeroDigest();  // after applying block
  uint64_t timestamp_us = 0;

  std::string Serialize() const;
  crypto::Digest Hash() const { return crypto::Sha256Of(Serialize()); }
};

struct Block {
  BlockHeader header;
  std::vector<LedgerTxn> txns;

  /// Recomputes header.txn_root from the transactions.
  void SealTxnRoot();
  std::string Serialize() const;
  static bool Deserialize(const std::string& data, Block* out);
  /// Exact Serialize().size() without serializing (see LedgerTxn::ByteSize).
  uint64_t ByteSize() const;
};

class SealedBody;
using SealedBodyPtr = std::shared_ptr<const SealedBody>;

/// A block's transactions with their Merkle root, hashed once when sealed
/// and immutable after. Chains that recorded the same transactions hold the
/// same body; only headers are per chain (DESIGN.md §2c).
class SealedBody {
 public:
  static SealedBodyPtr Seal(std::vector<LedgerTxn> txns);

  const std::vector<LedgerTxn>& txns() const { return txns_; }
  const crypto::Digest& root() const { return root_; }
  /// Block::ByteSize() of a block carrying these txns, header excluded.
  uint64_t ByteSize() const { return bytes_; }

 private:
  friend class Chain;  // copy-on-write in MutableBlockForTest
  SealedBody() = default;

  std::vector<LedgerTxn> txns_;
  crypto::Digest root_ = crypto::ZeroDigest();
  uint64_t bytes_ = 0;
};

/// One block as a chain holds it: its own header over a possibly shared
/// body. Refers into the chain, so it is valid until the chain changes.
struct BlockView {
  const BlockHeader& header;
  const std::vector<LedgerTxn>& txns;
};

/// TESTING ONLY: a block of one chain opened for tampering.
struct MutableBlockView {
  BlockHeader& header;
  std::vector<LedgerTxn>& txns;
};

/// The append-only hash-linked chain of blocks. Verify() recomputes every
/// hash link and Merkle root, so any bit flipped anywhere in history is
/// detected — the tamper-evidence property databases lack (Section 3.3.1).
class Chain {
 public:
  Chain() = default;

  /// Appends after checking the block number, the parent link and the
  /// claimed txn root. The genesis block (number 0) must have a zero parent.
  Status Append(Block block);
  /// Appends a body sealed elsewhere after checking the block number and
  /// the parent link; the header's txn root is taken from the body.
  Status AppendSealed(BlockHeader header, SealedBodyPtr body);

  uint64_t height() const { return blocks_.size(); }
  BlockView block(uint64_t number) const {
    const Entry& entry = blocks_[number];
    return {entry.header, entry.body->txns()};
  }
  /// The body this chain holds at `number` (shared with every chain that
  /// appended the same one).
  const SealedBodyPtr& body(uint64_t number) const {
    return blocks_[number].body;
  }
  crypto::Digest TipDigest() const;

  /// Full-chain integrity check; re-hashes every body.
  Status Verify() const;

  /// Merkle inclusion proof that `txn_index` of `block_number` is on chain.
  Result<crypto::MerkleProof> ProveTxn(uint64_t block_number,
                                       uint64_t txn_index) const;

  /// Ledger storage written by this chain (Fig. 12's "block storage"):
  /// logical bytes, counted in full however many chains share a body.
  uint64_t TotalBytes() const { return total_bytes_; }
  uint64_t TotalTxns() const { return total_txns_; }

  /// TESTING ONLY: mutable access used by tamper-detection tests. The body
  /// is copied first, so no other chain sharing it sees the change.
  MutableBlockView MutableBlockForTest(uint64_t number);

 private:
  struct Entry {
    BlockHeader header;
    SealedBodyPtr body;
  };

  Status CheckLink(const BlockHeader& header) const;

  std::vector<Entry> blocks_;
  uint64_t total_bytes_ = 0;
  uint64_t total_txns_ = 0;
};

}  // namespace dicho::ledger

#endif  // DICHO_LEDGER_LEDGER_H_
