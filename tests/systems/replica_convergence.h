#ifndef DICHO_TESTS_SYSTEMS_REPLICA_CONVERGENCE_H_
#define DICHO_TESTS_SYSTEMS_REPLICA_CONVERGENCE_H_

#include <gtest/gtest.h>

#include <cstdint>

#include "crypto/sha256.h"
#include "ledger/ledger.h"
#include "sim/network.h"

namespace dicho::systems {

/// Replica agreement for a full-replication block pipeline: every replica
/// holds the same MPT root and a verified chain whose blocks carry the same
/// txn roots, height for height, as the first replica's. System must expose
/// node_ids(), state_of(id) and chain_of(id).
template <typename System>
void ExpectReplicasConverged(const System& system) {
  const auto& ids = system.node_ids();
  ASSERT_FALSE(ids.empty());
  const auto& state0 = system.state_of(ids[0]);
  const ledger::Chain& chain0 = system.chain_of(ids[0]);
  EXPECT_GT(chain0.height(), 0u);
  for (sim::NodeId id : ids) {
    EXPECT_EQ(crypto::DigestHex(system.state_of(id).RootDigest()),
              crypto::DigestHex(state0.RootDigest()))
        << id;
    const ledger::Chain& chain = system.chain_of(id);
    ASSERT_EQ(chain.height(), chain0.height()) << id;
    for (uint64_t b = 0; b < chain.height(); b++) {
      EXPECT_EQ(crypto::DigestHex(chain.block(b).header.txn_root),
                crypto::DigestHex(chain0.block(b).header.txn_root))
          << id << " block " << b;
    }
    EXPECT_EQ(crypto::DigestHex(chain.TipDigest()),
              crypto::DigestHex(chain0.TipDigest()))
        << id;
    EXPECT_TRUE(chain.Verify().ok()) << id;
  }
}

/// Sealed-body sharing in a fault-free run: at every height each replica
/// holds the one body sealed for that height, under its own header, and no
/// body is left held for a replica. System must also expose bodies_held().
template <typename System>
void ExpectOneBodyPerHeight(const System& system) {
  const auto& ids = system.node_ids();
  ASSERT_FALSE(ids.empty());
  const ledger::Chain& chain0 = system.chain_of(ids[0]);
  EXPECT_GT(chain0.height(), 0u);
  for (sim::NodeId id : ids) {
    const ledger::Chain& chain = system.chain_of(id);
    ASSERT_EQ(chain.height(), chain0.height()) << id;
    for (uint64_t b = 0; b < chain.height(); b++) {
      EXPECT_EQ(chain.body(b).get(), chain0.body(b).get())
          << id << " block " << b;
      EXPECT_EQ(chain.block(b).header.txn_root, chain.body(b)->root())
          << id << " block " << b;
    }
  }
  EXPECT_EQ(system.bodies_held(), 0u);
}

}  // namespace dicho::systems

#endif  // DICHO_TESTS_SYSTEMS_REPLICA_CONVERGENCE_H_
