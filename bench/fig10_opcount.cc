// Reproduces Fig. 10: throughput and abort rate as operations per
// transaction grow (1..10), with the *total transaction payload held at
// 1000 bytes* (record size shrinks as ops grow — paper 5.3.2).
//
// Paper shapes: TiDB drops to ~32% of its single-op throughput (more
// conflicts + wider 2PC fan-out), aborting up to ~27% on write-write
// conflicts; Fabric's aborts climb steeply (~87%: inconsistent endorsements
// + read-write conflicts); Quorum is roughly flat (serial; fixed payload).

#include <iterator>

#include "bench_util.h"

namespace dicho::bench {
namespace {

void Run() {
  PrintHeader("Fig 10: ops per txn (payload fixed at 1000 B)");
  const int kOps[] = {1, 2, 4, 6, 8, 10};
  printf("%-8s %-6s", "system", "");
  for (int ops : kOps) printf("   ops=%-2d", ops);
  printf("\n");

  BenchScale scale;
  // Multi-key conflict probability scales with in-flight-keys/population;
  // use a larger population (the paper used 100K) so ops=10 is not
  // conflict-saturated.
  scale.record_count = 50000;
  scale.measure = 10 * sim::kSec;

  // Cells above max_ops are not run and print n/a.
  auto sweep = [&](const char* name, auto make, double arrival,
                   bool print_reasons, int max_ops = 10) {
    printf("%-8s %-6s", name, "tps");
    std::vector<workload::RunMetrics> all;
    for (int ops : kOps) {
      if (ops > max_ops) {
        printf(" %8s", "n/a");
        continue;
      }
      World w;
      auto system = make(&w);
      workload::YcsbConfig wcfg;
      wcfg.record_size = 1000;
      wcfg.ops_per_txn = ops;
      wcfg.fix_txn_size = true;
      wcfg.theta = 0.0;
      auto m = RunYcsb(&w, system.get(), wcfg, scale, 0, arrival);
      printf(" %8.0f", m.throughput_tps);
      fflush(stdout);
      all.push_back(std::move(m));
    }
    printf("\n%-8s %-6s", "", "abort");
    for (auto& m : all) printf(" %7.1f%%", m.AbortRate() * 100);
    for (size_t i = all.size(); i < std::size(kOps); i++) printf(" %8s", "n/a");
    printf("\n");
    if (print_reasons && !all.empty()) {
      auto& last = all.back();
      uint64_t inconsistent =
          last.aborts_by_reason[core::AbortReason::kInconsistentEndorsement];
      uint64_t rw = last.aborts_by_reason[core::AbortReason::kReadConflict];
      uint64_t total = inconsistent + rw;
      if (total > 0) {
        printf("%-8s %-6s at 10 ops: %.0f%% inconsistent-endorsement, "
               "%.0f%% read-write conflict\n",
               "", "cause", 100.0 * inconsistent / total, 100.0 * rw / total);
      }
    }
  };

  sweep("tidb", [](World* w) { return MakeTidb(w, 5, 5); }, 0, false);
  sweep("fabric", [](World* w) { return MakeFabric(w, 5); }, 1300, true);
  // etcd has no multi-op transactions: it rejects every multi-op request,
  // and closed-loop clients would resubmit each rejection at once.
  sweep("etcd-1op", [](World* w) { return MakeEtcd(w, 5); }, 0, false,
        /*max_ops=*/1);
  sweep("quorum", [](World* w) { return MakeQuorum(w, 5); }, 280, false);
  printf("(etcd runs ops=1 only — no multi-op transactions)\n");
}

}  // namespace
}  // namespace dicho::bench

int main() {
  dicho::bench::Run();
  return 0;
}
