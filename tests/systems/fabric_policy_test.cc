#include <gtest/gtest.h>

#include "systems/fabric.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace dicho::systems {
namespace {

workload::RunMetrics RunFabric(FabricConfig config, double arrival) {
  sim::Simulator simulator(42);
  sim::SimNetwork network(&simulator, sim::NetworkConfig{});
  sim::CostModel costs;
  FabricSystem fabric(&simulator, &network, &costs, config);
  fabric.Start();
  simulator.RunFor(1 * sim::kSec);

  workload::YcsbConfig wcfg;
  wcfg.record_count = 5000;
  wcfg.record_size = 1000;
  workload::YcsbWorkload workload(wcfg, 3);
  for (int i = 0; i < 5000; i++) {
    fabric.Load(workload.KeyAt(i), workload.RandomValue());
  }
  workload::DriverConfig dcfg;
  dcfg.arrival_rate_tps = arrival;
  dcfg.warmup = 2 * sim::kSec;
  dcfg.measure = 8 * sim::kSec;
  workload::Driver driver(&simulator, &fabric,
                          [&workload] { return workload.NextTxn(); }, dcfg);
  return driver.Run();
}

TEST(FabricPolicyTest, FewerEndorsersValidateFaster) {
  // The all-peers endorsement policy is what couples Fabric's validation
  // cost to cluster size (Table 4). A 2-of-N policy removes most of it.
  FabricConfig all_peers;
  all_peers.num_peers = 8;
  FabricConfig two_of_n = all_peers;
  two_of_n.endorsers_required = 2;
  double tps_all = RunFabric(all_peers, 2000).throughput_tps;
  double tps_two = RunFabric(two_of_n, 2000).throughput_tps;
  EXPECT_GT(tps_two, tps_all * 1.5);
}

TEST(FabricPolicyTest, ParallelValidationLiftsThroughput) {
  FabricConfig serial;
  serial.num_peers = 5;
  FabricConfig parallel = serial;
  parallel.validation_parallelism = 4;
  double tps_serial = RunFabric(serial, 4000).throughput_tps;
  double tps_parallel = RunFabric(parallel, 4000).throughput_tps;
  EXPECT_GT(tps_parallel, tps_serial * 2);
}

TEST(FabricPolicyTest, SaturationInflatesValidationPhase) {
  FabricConfig config;
  config.num_peers = 5;
  auto unsat = RunFabric(config, 400);
  auto sat = RunFabric(config, 2500);
  // Fig. 8a: the validate phase inflates by queueing once saturated.
  EXPECT_GT(sat.phase(core::Phase::kValidate).Mean(),
            unsat.phase(core::Phase::kValidate).Mean() * 3);
}

}  // namespace
}  // namespace dicho::systems
