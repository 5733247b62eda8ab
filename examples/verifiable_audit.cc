// Verifiable audit: what the blockchain's security-oriented storage actually
// buys you. A light client verifies (1) that a record is part of the
// authenticated state via an MPT proof, (2) that a transaction is included
// in the ledger via a Merkle audit path, and (3) that any tampering with
// history is detected — all without trusting the serving node.

#include <cstdio>

#include "adt/mpt.h"
#include "crypto/merkle.h"
#include "ledger/ledger.h"

using namespace dicho;

int main() {
  printf("1) Authenticated state: Merkle Patricia Trie proofs\n");
  adt::MerklePatriciaTrie state;
  for (int i = 0; i < 100; i++) {
    state.Put("account" + std::to_string(i),
              "balance=" + std::to_string(1000 + i));
  }
  crypto::Digest trusted_root = state.RootDigest();
  printf("   trusted state digest: %s...\n",
         crypto::DigestHex(trusted_root).substr(0, 24).c_str());

  // The (untrusted) server hands over a value plus its access path.
  adt::MerklePatriciaTrie::Proof proof;
  state.Prove("account42", &proof);
  bool ok = adt::VerifyMptProof(trusted_root, "account42", "balance=1042",
                                proof);
  printf("   honest value verifies:   %s\n", ok ? "yes" : "NO");
  bool forged = adt::VerifyMptProof(trusted_root, "account42",
                                    "balance=999999", proof);
  printf("   forged value verifies:   %s\n", forged ? "YES (bug!)" : "no");

  printf("\n2) Ledger inclusion: transaction audit paths\n");
  ledger::Chain chain;
  for (int b = 0; b < 5; b++) {
    ledger::Block block;
    block.header.number = b;
    block.header.parent = chain.TipDigest();
    for (int t = 0; t < 8; t++) {
      ledger::LedgerTxn txn;
      txn.txn_id = b * 8 + t;
      txn.payload = "transfer #" + std::to_string(txn.txn_id);
      block.txns.push_back(std::move(txn));
    }
    block.SealTxnRoot();
    chain.Append(std::move(block));
  }
  auto inclusion = chain.ProveTxn(3, 5);
  const ledger::BlockView block3 = chain.block(3);
  bool included = crypto::VerifyMerkleProof(block3.txns[5].Serialize(),
                                            inclusion.value(),
                                            block3.header.txn_root);
  printf("   txn (block 3, index 5) inclusion verifies: %s\n",
         included ? "yes" : "NO");

  printf("\n3) Tamper evidence: rewrite history, get caught\n");
  printf("   chain verifies before tampering: %s\n",
         chain.Verify().ToString().c_str());
  chain.MutableBlockForTest(2).txns[1].payload = "transfer #999999";
  printf("   ...a node silently rewrites a transaction in block 2...\n");
  printf("   chain verifies after tampering:  %s\n",
         chain.Verify().ToString().c_str());

  printf("\nA database gives you none of this without extra machinery — "
         "which is exactly what the hybrid systems bolt on (see the "
         "design_explorer example).\n");
  return 0;
}
