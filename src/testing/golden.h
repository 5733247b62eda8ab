#ifndef DICHO_TESTING_GOLDEN_H_
#define DICHO_TESTING_GOLDEN_H_

#include <ostream>
#include <string>
#include <vector>

namespace dicho::testing {

/// A golden-equivalence case: a fixed-seed run whose canonical JSON render
/// must stay byte-identical across refactors. Each case builds a sealed
/// world (simulator seed, workload seed, system config all pinned), drives
/// a short YCSB mix, and renders committed/aborted counts, latency means,
/// per-phase sums, abort reasons, and the raw simulator/network event
/// counters — any change to event ordering, costs, or stamping shows up as
/// a byte diff. The sim-fuzz case digests every fault-injection scenario
/// at fixed seeds (progress, event counts, and the full nemesis schedule),
/// so scheduler-visible drift in the testing harness is caught too.
struct GoldenCase {
  std::string name;
  std::string (*run)();
};

/// gtest's printer for GoldenCase parameters: the case name. The default
/// dumps the struct's bytes, pointers included, so test ids would change
/// from run to run.
inline void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.name; }

/// Registry of every golden case (one JSON file per case under
/// tests/golden/). Covers all six concrete systems plus one HybridSystem
/// per transport (Raft, PBFT, shared log, primary-backup, PoW) and the
/// sim-fuzz scenario digests.
const std::vector<GoldenCase>& AllGoldenCases();
const GoldenCase* FindGoldenCase(const std::string& name);

}  // namespace dicho::testing

#endif  // DICHO_TESTING_GOLDEN_H_
