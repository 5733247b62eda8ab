// Reproduces Fig. 8: (a) Fabric's per-phase transaction latency when
// unsaturated vs saturated — validation becomes the bottleneck and blocks
// pile up once the request rate exceeds capacity; (b) query latency
// breakdown — Fabric is dominated by client authentication, TiDB by data
// access. Part (c) extends the figure with the same breakdown for Quorum,
// TiDB, and etcd over the unified phase timeline: every system stamps its
// pipeline stages into the same typed enum, so one generic printer renders
// all of them.
//
// Every run here is traced: the printed rows are re-derived from the
// src/obs trace layer (DeriveRunMetrics), not from the driver's inline
// accounting — the figure and an exported trace can never disagree. Pass
// --trace=<prefix> to also dump the Chrome trace_event + metrics JSON per
// run.

#include "bench_util.h"

namespace dicho::bench {
namespace {

/// Traced variant of RunYcsb: attaches the world's sink/registry (must run
/// before system construction — callers pass a factory), drives the
/// workload, optionally exports, and returns the trace-derived metrics.
template <typename MakeSystemFn>
workload::RunMetrics RunTraced(World* w, MakeSystemFn make,
                               workload::YcsbConfig wcfg, BenchScale scale,
                               const std::string& tag, double query_fraction,
                               double arrival) {
  w->EnableObservability();
  auto system = make(w);
  RunYcsb(w, system.get(), wcfg, scale, query_fraction, arrival);
  workload::RunMetrics m = DeriveRunMetrics(w->trace);
  TraceExport::Dump(*w, tag);
  return m;
}

void PhaseRow(const char* label, workload::RunMetrics* m) {
  printf("%-12s execute=%7.1fms order=%7.1fms validate=%8.1fms total=%8.1fms\n",
         label, m->phase(core::Phase::kExecute).Mean() / 1000.0,
         m->phase(core::Phase::kOrder).Mean() / 1000.0,
         m->phase(core::Phase::kValidate).Mean() / 1000.0,
         m->txn_latency_us.Mean() / 1000.0);
}

void RunFabricBreakdown() {
  PrintHeader("Fig 8a: Fabric latency breakdown, unsaturated vs saturated");
  workload::YcsbConfig wcfg;
  wcfg.record_size = 1000;
  BenchScale scale;
  scale.record_count = 20000;
  scale.measure = 10 * sim::kSec;

  {
    World w;
    auto m = RunTraced(
        &w, [](World* world) { return MakeFabric(world, 5); }, wcfg, scale,
        "fig8a_unsaturated", 0, /*arrival=*/500);
    PhaseRow("unsaturated", &m);
  }
  {
    World w;
    w.EnableObservability();
    auto fabric = MakeFabric(&w, 5);
    RunYcsb(&w, fabric.get(), wcfg, scale, 0, /*arrival=*/1800);
    auto m = DeriveRunMetrics(w.trace);
    PhaseRow("saturated", &m);
    printf("  (validation queue at a peer after the run: %.0f ms of backlog)\n",
           fabric->ValidationBacklog(1) / 1000.0);
    TraceExport::Dump(w, "fig8a_saturated");
  }
}

void RunQueryBreakdown() {
  PrintHeader("Fig 8b: query latency breakdown (ms)");
  workload::YcsbConfig wcfg;
  wcfg.record_size = 1000;
  BenchScale scale;
  scale.record_count = 5000;
  scale.measure = 8 * sim::kSec;
  {
    World w;
    auto m = RunTraced(
        &w, [](World* world) { return MakeFabric(world, 5); }, wcfg, scale,
        "fig8b_fabric", 1.0, /*arrival=*/200);
    const double auth_us = m.phase(core::Phase::kAuth).Mean();
    printf("%-8s auth=%6.2fms read+net=%6.2fms total=%6.2fms\n", "fabric",
           auth_us / 1000.0, (m.query_latency_us.Mean() - auth_us) / 1000.0,
           m.query_latency_us.Mean() / 1000.0);
  }
  {
    World w;
    auto m = RunTraced(
        &w, [](World* world) { return MakeTidb(world, 5, 5); }, wcfg, scale,
        "fig8b_tidb", 1.0, /*arrival=*/200);
    printf("%-8s auth=%6.2fms read+net=%6.2fms total=%6.2fms\n", "tidb", 0.0,
           m.query_latency_us.Mean() / 1000.0,
           m.query_latency_us.Mean() / 1000.0);
  }
}

/// Prints every phase the system stamped (count > 0), in timeline enum
/// order — no per-system format strings needed.
void UniformPhaseRow(const char* label, const workload::RunMetrics& m) {
  printf("%-12s", label);
  for (size_t i = 0; i < core::kNumPhases; i++) {
    const Histogram& hist = m.phase_hist[i];
    if (hist.count() == 0) continue;
    printf(" %s=%.1fms", core::PhaseName(static_cast<core::Phase>(i)),
           hist.Mean() / 1000.0);
  }
  printf(" total=%.1fms\n", m.txn_latency_us.Mean() / 1000.0);
}

void RunCrossSystemBreakdown() {
  PrintHeader("Fig 8c: txn phase breakdown across systems (unified timeline)");
  workload::YcsbConfig wcfg;
  wcfg.record_size = 1000;
  BenchScale scale;
  scale.record_count = 5000;
  scale.measure = 8 * sim::kSec;
  {
    World w;
    auto m = RunTraced(
        &w, [](World* world) { return MakeFabric(world, 5); }, wcfg, scale,
        "fig8c_fabric", 0, /*arrival=*/500);
    UniformPhaseRow("fabric", m);
  }
  {
    World w;
    auto m = RunTraced(
        &w, [](World* world) { return MakeQuorum(world, 5); }, wcfg, scale,
        "fig8c_quorum_raft", 0, /*arrival=*/500);
    UniformPhaseRow("quorum-raft", m);
  }
  {
    World w;
    auto m = RunTraced(
        &w, [](World* world) { return MakeTidb(world, 5, 5); }, wcfg, scale,
        "fig8c_tidb", 0, /*arrival=*/500);
    UniformPhaseRow("tidb", m);
  }
  {
    World w;
    workload::YcsbConfig kv = wcfg;
    kv.ops_per_txn = 1;  // etcd rejects multi-op requests
    auto m = RunTraced(
        &w, [](World* world) { return MakeEtcd(world, 5); }, kv, scale, "fig8c_etcd",
        0, /*arrival=*/500);
    UniformPhaseRow("etcd", m);
  }
}

}  // namespace
}  // namespace dicho::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    dicho::bench::TraceExport::ParseArg(argv[i]);
  }
  dicho::bench::RunFabricBreakdown();
  dicho::bench::RunQueryBreakdown();
  dicho::bench::RunCrossSystemBreakdown();
  return 0;
}
