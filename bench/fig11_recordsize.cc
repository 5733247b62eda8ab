// Reproduces Fig. 11: performance under uniform updates as the record size
// grows 10 -> 5000 bytes, plus the Quorum/Fabric latency breakdown — and
// the storage-raw-speed ablation on top of it: fabric and harmonylike rows
// re-run with fast_storage (DESIGN.md §2g — delta-backed Fabric commits,
// out-of-line MPT values for harmonylike), which should visibly flatten
// their record-size curves.
//
// Paper shapes: Quorum collapses 1547 -> 58 tps (per-commit MPT
// reconstruction grows 56 us -> 2.5 ms and the EVM cost is per-byte; both
// phases of its double execution grow at the same rate); Fabric stays
// roughly flat then halves at 5000 B; the databases decline moderately.
//
// Usage: fig11_recordsize [--quick]
//   --quick   2s measurement over 4000 records; CI smoke mode.

#include <cstring>
#include <functional>

#include "bench_util.h"

namespace dicho::bench {
namespace {

void Run(bool quick) {
  PrintHeader("Fig 11a: record size sweep, uniform updates (tps)");
  const size_t kSizes[] = {10, 100, 1000, 5000};
  printf("%-12s", "system");
  for (size_t s : kSizes) printf("%9zuB", s);
  printf("\n");

  BenchScale scale;
  scale.record_count = quick ? 4000 : 20000;
  scale.warmup = quick ? 1 * sim::kSec : 3 * sim::kSec;
  scale.measure = quick ? 2 * sim::kSec : 10 * sim::kSec;

  using RowFn = std::function<workload::RunMetrics(World*, size_t)>;
  struct Row {
    const char* name;
    RowFn run;
  };
  auto ycsb = [&scale](World* w, core::TransactionalSystem* system,
                       size_t size, double arrival) {
    workload::YcsbConfig wcfg;
    wcfg.record_size = size;
    return RunYcsb(w, system, wcfg, scale, 0, arrival);
  };
  const Row kRows[] = {
      {"quorum",
       [&](World* w, size_t size) {
         auto s = MakeQuorum(w, 5);
         return ycsb(w, s.get(), size, 2200);
       }},
      {"fabric",
       [&](World* w, size_t size) {
         auto s = MakeFabric(w, 5);
         return ycsb(w, s.get(), size, 2200);
       }},
      {"fabric+fs",
       [&](World* w, size_t size) {
         auto s = MakeFabric(w, 5, 1, /*fast_storage=*/true);
         return ycsb(w, s.get(), size, 2200);
       }},
      {"harmony",
       [&](World* w, size_t size) {
         auto s = MakeHarmony(w, 5);
         return ycsb(w, s.get(), size, 2200);
       }},
      {"harmony+fs",
       [&](World* w, size_t size) {
         auto s = MakeHarmony(w, 5, /*fast_storage=*/true);
         return ycsb(w, s.get(), size, 2200);
       }},
      {"tidb",
       [&](World* w, size_t size) {
         auto s = MakeTidb(w, 5, 5);
         return ycsb(w, s.get(), size, 0);
       }},
      {"etcd",
       [&](World* w, size_t size) {
         auto s = MakeEtcd(w, 5);
         return ycsb(w, s.get(), size, 0);
       }},
  };

  std::map<size_t, workload::RunMetrics> quorum_runs;
  for (const Row& row : kRows) {
    printf("%-12s", row.name);
    for (size_t size : kSizes) {
      World w;
      auto m = row.run(&w, size);
      printf("%10.0f", m.throughput_tps);
      fflush(stdout);
      if (strcmp(row.name, "quorum") == 0) quorum_runs[size] = std::move(m);
    }
    printf("\n");
  }
  printf("(fast-storage rows: delta-backed Fabric commit, out-of-line MPT "
         "values for harmonylike — DESIGN.md §2g)\n");

  if (quick) return;  // breakdown below needs the full-length runs

  PrintHeader("Fig 11b: Quorum phase latency vs record size (ms)");
  // Measured just below each size's capacity so queueing does not swamp the
  // phase structure (the paper's breakdown is per-transaction work).
  printf("%-8s %16s %22s\n", "size", "proposal wait", "exec+consensus+commit");
  for (size_t size : kSizes) {
    World w;
    auto quorum = MakeQuorum(&w, 5);
    workload::YcsbConfig wcfg;
    wcfg.record_size = size;
    double arrival = 0.7 * quorum_runs[size].throughput_tps;
    auto m = RunYcsb(&w, quorum.get(), wcfg, scale, 0, arrival);
    printf("%6zuB %14.0fms %20.0fms\n", size,
           m.phase(core::Phase::kProposal).Mean() / 1000.0,
           m.phase(core::Phase::kConsensusCommit).Mean() / 1000.0);
  }
  printf("(modeled per-record MPT reconstruction: 10B=%.0fus, 5000B=%.0fus "
         "— paper: 56us -> 2.5ms; fast path: 5000B=%.0fus)\n",
         sim::CostModel{}.MptUpdateCost(10),
         sim::CostModel{}.MptUpdateCost(5000),
         sim::CostModel{}.MptUpdateCostFast(5000));
}

}  // namespace
}  // namespace dicho::bench

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; i++) {
    if (strcmp(argv[i], "--quick") == 0) quick = true;
  }
  dicho::bench::Run(quick);
  return 0;
}
