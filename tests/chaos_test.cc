// Chaos-harness tests: fault-plan determinism, fuzzer stream reproducibility,
// and named regression seeds for bugs the schedule-fuzzing sweep surfaced.
// Each regression seed replays the exact fault plan `chaos_run` reported as
// the first failing seed before the corresponding fix landed.
#include <gtest/gtest.h>

#include <string>

#include "apps/hyracks_apps.h"
#include "chaos/chaos.h"
#include "cluster/cluster.h"

namespace itask::chaos {
namespace {

apps::AppConfig TinyAppConfig() {
  apps::AppConfig config;
  config.dataset_bytes = 256 << 10;
  config.tpch_scale = 0.2;
  config.max_workers = 4;
  config.granularity_bytes = 16 << 10;
  config.deadline_ms = 60'000.0;  // Turns a live-lock into a test failure.
  return config;
}

// Fault-free, pressure-free run: the result-fingerprint oracle.
apps::AppResult RunClean(const std::string& app) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 64 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);
  return apps::RunHyracksApp(app, cl, TinyAppConfig(), apps::Mode::kITask);
}

// Replays one chaos_run sweep cell: derive the seed's fault plan, build the
// tiny pressured cluster with its spill-write faults wired in, and run the
// app under the installed schedule fuzzer with job-end auditing on.
apps::AppResult RunUnderSeed(const std::string& app, std::uint64_t seed) {
  const FaultPlan plan = FaultPlan::FromSeed(seed);
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 1536 << 10;  // Small enough to force interrupts.
  cc.heap.real_pauses = false;
  cc.io.failure.write_probability = plan.spill_write_fail_p;
  cc.io.failure.seed = plan.spill_fail_seed;
  cluster::Cluster cl(cc);

  SetAuditEnabled(true);
  ScheduleFuzzer fuzzer(plan.fuzz);
  Install(&fuzzer);
  apps::AppResult result = apps::RunHyracksApp(app, cl, TinyAppConfig(), apps::Mode::kITask);
  Uninstall();
  return result;
}

void ExpectCleanRun(const apps::AppResult& result, const apps::AppResult& reference,
                    std::uint64_t seed) {
  EXPECT_TRUE(result.metrics.succeeded) << "seed " << seed << ": "
                                        << result.metrics.Summary();
  EXPECT_TRUE(result.audit_violations.empty())
      << "seed " << seed << ": " << result.audit_violations.front();
  const auto in_path = DrainViolations();
  EXPECT_TRUE(in_path.empty()) << "seed " << seed << ": " << in_path.front();
  if (result.metrics.succeeded) {
    EXPECT_EQ(result.checksum, reference.checksum) << "seed " << seed;
    EXPECT_EQ(result.records, reference.records) << "seed " << seed;
  }
}

TEST(FaultPlanTest, DerivationIsDeterministic) {
  const FaultPlan a = FaultPlan::FromSeed(99);
  const FaultPlan b = FaultPlan::FromSeed(99);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_EQ(a.fuzz.seed, b.fuzz.seed);
  EXPECT_NE(FaultPlan::FromSeed(1).Describe(), FaultPlan::FromSeed(2).Describe());
}

TEST(ScheduleFuzzerTest, FaultDrawsReplayAcrossInstances) {
  FuzzConfig fc;
  fc.seed = 7;
  fc.shuffle_delay_p = 0.5;
  fc.forced_ome_p = 0.5;
  std::vector<std::uint64_t> first;
  {
    ScheduleFuzzer fz(fc);
    Install(&fz);
    for (int i = 0; i < 64; ++i) {
      first.push_back(fz.DrawShuffleDelayUs());
      first.push_back(fz.DrawForcedOme() ? 1 : 0);
    }
    Uninstall();
  }
  std::vector<std::uint64_t> second;
  {
    ScheduleFuzzer fz(fc);
    Install(&fz);
    for (int i = 0; i < 64; ++i) {
      second.push_back(fz.DrawShuffleDelayUs());
      second.push_back(fz.DrawForcedOme() ? 1 : 0);
    }
    Uninstall();
  }
  EXPECT_EQ(first, second);
}

TEST(ChaosPointTest, NoOpWhenNoFuzzerInstalled) {
  // The macro must be safe (and cheap) on every hot path when idle.
  CHAOS_POINT("test.idle");
  ScheduleFuzzer fz(FuzzConfig{});
  Install(&fz);
  CHAOS_POINT("test.active");
  Uninstall();
  EXPECT_EQ(fz.points_hit(), 1u);
  CHAOS_POINT("test.idle.again");
  EXPECT_EQ(fz.points_hit(), 1u);
}

// Seed 13's plan injects ~5% spill-write failures. Before the partition-load
// retry fix, every app aborted under it: the spill store surfaces a failed
// background write exactly once at load time (keeping the payload in the
// pending-write cache so a retry succeeds from memory), but
// DataPartition::EnsureResident treated that one-shot error as fatal and the
// worker's exception took the whole job down — with zero data actually lost.
TEST(ChaosRegressionTest, Seed13SpillWriteFaultIsRecoverableWordCount) {
  const apps::AppResult reference = RunClean("WC");
  ASSERT_TRUE(reference.metrics.succeeded);
  ExpectCleanRun(RunUnderSeed("WC", 13), reference, 13);
}

// Seed 29: same root cause, independently derived fault plan, exercised on
// HeapSort whose merge phase reloads far more spilled partitions.
TEST(ChaosRegressionTest, Seed29SpillWriteFaultIsRecoverableHeapSort) {
  const apps::AppResult reference = RunClean("HS");
  ASSERT_TRUE(reference.metrics.succeeded);
  ExpectCleanRun(RunUnderSeed("HS", 29), reference, 29);
}

// A slice of the full sweep cheap enough for every CI run; the 256-seed
// version lives in ci.sh's chaos tier and tools/chaos_run.
TEST(ChaosSweepTest, FirstEightSeedsRunCleanOnWordCount) {
  const apps::AppResult reference = RunClean("WC");
  ASSERT_TRUE(reference.metrics.succeeded);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    ExpectCleanRun(RunUnderSeed("WC", seed), reference, seed);
  }
}

}  // namespace
}  // namespace itask::chaos
