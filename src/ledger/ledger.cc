#include "ledger/ledger.h"

#include "common/coding.h"

namespace dicho::ledger {

namespace {

constexpr uint64_t kHeaderBytes = 8 + 32 * 3 + 8;

crypto::MerkleTree TxnTree(const std::vector<LedgerTxn>& txns) {
  std::vector<std::string> leaves;
  leaves.reserve(txns.size());
  for (const auto& txn : txns) leaves.push_back(txn.Serialize());
  return crypto::MerkleTree(leaves);
}

// The txn part of Block::Serialize()'s size.
uint64_t TxnsByteSize(const std::vector<LedgerTxn>& txns) {
  uint64_t total = VarintLength(txns.size());
  for (const auto& txn : txns) {
    uint64_t txn_bytes = txn.ByteSize();
    total += VarintLength(txn_bytes) + txn_bytes;
  }
  return total;
}

}  // namespace

std::string LedgerTxn::Serialize() const {
  std::string out;
  PutFixed64(&out, txn_id);
  PutFixed64(&out, client_id);
  PutLengthPrefixed(&out, payload);
  PutLengthPrefixed(&out, client_signature);
  PutVarint32(&out, static_cast<uint32_t>(endorsements.size()));
  for (const auto& [endorser, sig] : endorsements) {
    PutFixed64(&out, endorser);
    PutLengthPrefixed(&out, sig);
  }
  PutVarint32(&out, static_cast<uint32_t>(read_set.size()));
  for (const auto& [key, version] : read_set) {
    PutLengthPrefixed(&out, key);
    PutFixed64(&out, version);
  }
  PutVarint32(&out, static_cast<uint32_t>(write_set.size()));
  for (const auto& [key, value] : write_set) {
    PutLengthPrefixed(&out, key);
    PutLengthPrefixed(&out, value);
  }
  out.push_back(valid ? 1 : 0);
  return out;
}

uint64_t LedgerTxn::ByteSize() const {
  // Mirrors Serialize() field for field; LedgerByteSizeMatchesWireFormat
  // pins the equivalence.
  auto lp = [](size_t n) {
    return static_cast<uint64_t>(VarintLength(n)) + n;
  };
  uint64_t total = 8 + 8 + lp(payload.size()) + lp(client_signature.size());
  total += VarintLength(endorsements.size());
  for (const auto& [endorser, sig] : endorsements) {
    (void)endorser;
    total += 8 + lp(sig.size());
  }
  total += VarintLength(read_set.size());
  for (const auto& [key, version] : read_set) {
    (void)version;
    total += lp(key.size()) + 8;
  }
  total += VarintLength(write_set.size());
  for (const auto& [key, value] : write_set) {
    total += lp(key.size()) + lp(value.size());
  }
  return total + 1;  // valid byte
}

bool LedgerTxn::Deserialize(const std::string& data, LedgerTxn* out) {
  Slice in(data);
  Slice payload, sig;
  uint32_t n;
  if (!GetFixed64(&in, &out->txn_id) || !GetFixed64(&in, &out->client_id) ||
      !GetLengthPrefixed(&in, &payload) || !GetLengthPrefixed(&in, &sig) ||
      !GetVarint32(&in, &n)) {
    return false;
  }
  out->payload = payload.ToString();
  out->client_signature = sig.ToString();
  out->endorsements.clear();
  for (uint32_t i = 0; i < n; i++) {
    uint64_t endorser;
    Slice esig;
    if (!GetFixed64(&in, &endorser) || !GetLengthPrefixed(&in, &esig)) {
      return false;
    }
    out->endorsements.emplace_back(endorser, esig.ToString());
  }
  if (!GetVarint32(&in, &n)) return false;
  out->read_set.clear();
  for (uint32_t i = 0; i < n; i++) {
    Slice key;
    uint64_t version;
    if (!GetLengthPrefixed(&in, &key) || !GetFixed64(&in, &version)) {
      return false;
    }
    out->read_set.emplace_back(key.ToString(), version);
  }
  if (!GetVarint32(&in, &n)) return false;
  out->write_set.clear();
  for (uint32_t i = 0; i < n; i++) {
    Slice key, value;
    if (!GetLengthPrefixed(&in, &key) || !GetLengthPrefixed(&in, &value)) {
      return false;
    }
    out->write_set.emplace_back(key.ToString(), value.ToString());
  }
  if (in.size() != 1) return false;
  out->valid = in[0] != 0;
  return true;
}

std::string BlockHeader::Serialize() const {
  std::string out;
  PutFixed64(&out, number);
  out.append(reinterpret_cast<const char*>(parent.data()), parent.size());
  out.append(reinterpret_cast<const char*>(txn_root.data()), txn_root.size());
  out.append(reinterpret_cast<const char*>(state_digest.data()),
             state_digest.size());
  PutFixed64(&out, timestamp_us);
  return out;
}

void Block::SealTxnRoot() { header.txn_root = TxnTree(txns).root(); }

std::string Block::Serialize() const {
  std::string out = header.Serialize();
  PutVarint32(&out, static_cast<uint32_t>(txns.size()));
  for (const auto& txn : txns) PutLengthPrefixed(&out, txn.Serialize());
  return out;
}

uint64_t Block::ByteSize() const { return kHeaderBytes + TxnsByteSize(txns); }

bool Block::Deserialize(const std::string& data, Block* out) {
  Slice in(data);
  if (in.size() < kHeaderBytes) return false;
  if (!GetFixed64(&in, &out->header.number)) return false;
  out->header.parent = crypto::DigestFromBytes(Slice(in.data(), 32));
  in.RemovePrefix(32);
  out->header.txn_root = crypto::DigestFromBytes(Slice(in.data(), 32));
  in.RemovePrefix(32);
  out->header.state_digest = crypto::DigestFromBytes(Slice(in.data(), 32));
  in.RemovePrefix(32);
  if (!GetFixed64(&in, &out->header.timestamp_us)) return false;
  uint32_t n;
  if (!GetVarint32(&in, &n)) return false;
  out->txns.clear();
  for (uint32_t i = 0; i < n; i++) {
    Slice txn_bytes;
    if (!GetLengthPrefixed(&in, &txn_bytes)) return false;
    LedgerTxn txn;
    if (!LedgerTxn::Deserialize(txn_bytes.ToString(), &txn)) return false;
    out->txns.push_back(std::move(txn));
  }
  return in.empty();
}

SealedBodyPtr SealedBody::Seal(std::vector<LedgerTxn> txns) {
  std::shared_ptr<SealedBody> body(new SealedBody);
  body->root_ = TxnTree(txns).root();
  body->bytes_ = TxnsByteSize(txns);
  body->txns_ = std::move(txns);
  return body;
}

Status Chain::CheckLink(const BlockHeader& header) const {
  if (header.number != blocks_.size()) {
    return Status::InvalidArgument("non-sequential block number");
  }
  if (header.parent != TipDigest()) {
    return Status::Corruption("parent hash mismatch");
  }
  return Status::Ok();
}

Status Chain::Append(Block block) {
  Status s = CheckLink(block.header);
  if (!s.ok()) return s;
  SealedBodyPtr body = SealedBody::Seal(std::move(block.txns));
  if (body->root() != block.header.txn_root) {
    return Status::Corruption("txn root mismatch");
  }
  return AppendSealed(block.header, std::move(body));
}

Status Chain::AppendSealed(BlockHeader header, SealedBodyPtr body) {
  Status s = CheckLink(header);
  if (!s.ok()) return s;
  header.txn_root = body->root();
  total_bytes_ += kHeaderBytes + body->ByteSize();
  total_txns_ += body->txns().size();
  blocks_.push_back({header, std::move(body)});
  return Status::Ok();
}

crypto::Digest Chain::TipDigest() const {
  return blocks_.empty() ? crypto::ZeroDigest() : blocks_.back().header.Hash();
}

Status Chain::Verify() const {
  crypto::Digest parent = crypto::ZeroDigest();
  for (size_t i = 0; i < blocks_.size(); i++) {
    const BlockHeader& header = blocks_[i].header;
    if (header.number != i) {
      return Status::Corruption("block number broken at " + std::to_string(i));
    }
    if (header.parent != parent) {
      return Status::Corruption("hash link broken at block " +
                                std::to_string(i));
    }
    if (TxnTree(blocks_[i].body->txns()).root() != header.txn_root) {
      return Status::Corruption("txn root broken at block " +
                                std::to_string(i));
    }
    parent = header.Hash();
  }
  return Status::Ok();
}

Result<crypto::MerkleProof> Chain::ProveTxn(uint64_t block_number,
                                            uint64_t txn_index) const {
  if (block_number >= blocks_.size()) {
    return Status::NotFound("no such block");
  }
  const std::vector<LedgerTxn>& txns = blocks_[block_number].body->txns();
  if (txn_index >= txns.size()) {
    return Status::NotFound("no such txn");
  }
  return TxnTree(txns).Prove(txn_index);
}

MutableBlockView Chain::MutableBlockForTest(uint64_t number) {
  Entry& entry = blocks_[number];
  std::shared_ptr<SealedBody> copy(new SealedBody(*entry.body));
  entry.body = copy;
  return {entry.header, copy->txns_};
}

}  // namespace dicho::ledger
