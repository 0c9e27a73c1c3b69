// Chaos-harness tests: the one fault plan (grammar, exact round trip, seed
// derivation), fuzzer stream reproducibility, and named regression seeds for
// bugs the schedule-fuzzing sweep surfaced. Each regression seed replays the
// exact fault plan `chaos_run` reported as the first failing seed before the
// corresponding fix landed.
#include <gtest/gtest.h>

#include <stdexcept>
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

// Replays one chaos_run sweep cell with no --faults spec: the seed's plan
// minus its net section (the sweep seed fills only schedule and spill), on
// the tiny pressured cluster that installs the fuzzer and arms the spill
// faults, with job-end auditing on.
apps::AppResult RunUnderSeed(const std::string& app, std::uint64_t seed) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 1536 << 10;  // Small enough to force interrupts.
  cc.heap.real_pauses = false;
  cc.faults = FaultPlan::FromSeed(seed);
  cc.faults.net = NetFaults{};
  cluster::Cluster cl(cc);

  SetAuditEnabled(true);
  return apps::RunHyracksApp(app, cl, TinyAppConfig(), apps::Mode::kITask);
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

FaultPlan Parse(const std::string& spec) {
  FaultPlan plan;
  std::string err;
  EXPECT_TRUE(FaultPlan::FromSpec(spec, &plan, &err)) << spec << ": " << err;
  return plan;
}

TEST(FaultPlanTest, DerivationIsDeterministic) {
  const FaultPlan a = FaultPlan::FromSeed(99);
  const FaultPlan b = FaultPlan::FromSeed(99);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Describe(), b.Describe());
  EXPECT_EQ(a.seed, 99u);
  EXPECT_NE(FaultPlan::FromSeed(1).Describe(), FaultPlan::FromSeed(2).Describe());
}

TEST(FaultPlanTest, SeededPlansRoundTripExactly) {
  // Describe() prints shortest round-trip numbers, so every derived plan
  // parses back bit-for-bit, not just to four significant digits.
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const FaultPlan plan = FaultPlan::FromSeed(seed);
    FaultPlan back;
    std::string err;
    ASSERT_TRUE(FaultPlan::FromSpec(plan.Describe(), &back, &err)) << seed << ": " << err;
    ASSERT_EQ(back, plan) << "seed " << seed << ": " << plan.Describe();
  }
}

TEST(FaultPlanTest, SpecRoundTripsEveryClause) {
  const FaultPlan plan = Parse(
      "seed=42,yield=0.25,sleep=0.03:40,flip=0.05,storm=0.1:4,ome=0.02,shuffle=0.2:150,"
      "spillwrite=0.04,spillread=0.01,spillnth=7,kill=1@5,hang=2@6.5,poison=3@3,"
      "disconnect=1@20,heal=1@40,drop=0.01,reorder=0.02,dup=0.03,corrupt=0.004,"
      "trunc=0.005,reset=0.006,delay=0.1:2:1,part=0>2@50+100,part=*<>3@10+0,ctrldrop=2");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.schedule.yield_p, 0.25);
  EXPECT_DOUBLE_EQ(plan.schedule.sleep_p, 0.03);
  EXPECT_EQ(plan.schedule.max_sleep_us, 40);
  EXPECT_DOUBLE_EQ(plan.schedule.pressure_flip_p, 0.05);
  EXPECT_DOUBLE_EQ(plan.schedule.signal_storm_p, 0.1);
  EXPECT_EQ(plan.schedule.signal_storm_burst, 4);
  EXPECT_DOUBLE_EQ(plan.schedule.forced_ome_p, 0.02);
  EXPECT_DOUBLE_EQ(plan.schedule.shuffle_delay_p, 0.2);
  EXPECT_EQ(plan.schedule.shuffle_delay_max_us, 150);
  EXPECT_DOUBLE_EQ(plan.spill.write_p, 0.04);
  EXPECT_DOUBLE_EQ(plan.spill.read_p, 0.01);
  EXPECT_EQ(plan.spill.every_nth, 7);
  ASSERT_EQ(plan.node.size(), 5u);
  EXPECT_EQ(plan.node[0], (NodeFault{1, 5.0, NodeFaultKind::kKill}));
  EXPECT_EQ(plan.node[1], (NodeFault{2, 6.5, NodeFaultKind::kHang}));
  EXPECT_EQ(plan.node[2], (NodeFault{3, 3.0, NodeFaultKind::kPoison}));
  EXPECT_EQ(plan.node[3], (NodeFault{1, 20.0, NodeFaultKind::kDisconnect}));
  EXPECT_EQ(plan.node[4], (NodeFault{1, 40.0, NodeFaultKind::kHeal}));
  EXPECT_DOUBLE_EQ(plan.net.drop, 0.01);
  EXPECT_DOUBLE_EQ(plan.net.reorder, 0.02);
  EXPECT_DOUBLE_EQ(plan.net.duplicate, 0.03);
  EXPECT_DOUBLE_EQ(plan.net.corrupt, 0.004);
  EXPECT_DOUBLE_EQ(plan.net.truncate, 0.005);
  EXPECT_DOUBLE_EQ(plan.net.reset, 0.006);
  EXPECT_DOUBLE_EQ(plan.net.delay, 0.1);
  EXPECT_DOUBLE_EQ(plan.net.delay_ms, 2.0);
  EXPECT_DOUBLE_EQ(plan.net.delay_jitter_ms, 1.0);
  ASSERT_EQ(plan.net.partitions.size(), 2u);
  EXPECT_EQ(plan.net.partitions[0].a, 0);
  EXPECT_EQ(plan.net.partitions[0].b, 2);
  EXPECT_FALSE(plan.net.partitions[0].two_way);
  EXPECT_DOUBLE_EQ(plan.net.partitions[0].start_ms, 50.0);
  EXPECT_DOUBLE_EQ(plan.net.partitions[0].duration_ms, 100.0);
  EXPECT_EQ(plan.net.partitions[1].a, kAnyEndpoint);
  EXPECT_EQ(plan.net.partitions[1].b, 3);
  EXPECT_TRUE(plan.net.partitions[1].two_way);
  EXPECT_DOUBLE_EQ(plan.net.partitions[1].duration_ms, 0.0);  // Never heals.
  EXPECT_EQ(plan.net.ctrl_drops, 2);
  EXPECT_TRUE(plan.schedule.active());
  EXPECT_TRUE(plan.spill.active());
  EXPECT_TRUE(plan.net.active());

  // Describe() emits a spec that parses back into the identical plan.
  EXPECT_EQ(Parse(plan.Describe()), plan);
}

TEST(FaultPlanTest, RejectsMalformedClauses) {
  FaultPlan plan;
  std::string err;
  for (const char* spec : {
           "drop=1.5",      // P > 1.
           "drop=x",        //
           "bogus=1",       // Unknown clause.
           "noequals",      //
           "delay=0.1",     // No MS.
           "part=0-2@5+5",  // No arrow.
           "part=0>2@5",    // No +DUR.
           "ctrldrop=0@20",  // ctrldrop is a count.
           "seed=",         //
           "kill=1",        // No @MS.
           "kill=x@5",      //
           "kill=1@5ms",    // Units are not part of the grammar.
           "spillwrite=2",  //
           "yield=-0.1",    //
           "storm=0.1",     // No :BURST.
           "7x",            // Neither a seed nor a clause.
       }) {
    err.clear();
    EXPECT_FALSE(FaultPlan::FromSpec(spec, &plan, &err)) << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
  // An empty spec is a valid no-op plan.
  ASSERT_TRUE(FaultPlan::FromSpec("", &plan, &err));
  EXPECT_EQ(plan, FaultPlan{});
  // A bare integer is that seed's derived plan.
  EXPECT_EQ(Parse("7"), FaultPlan::FromSeed(7));
}

TEST(FaultPlanTest, FromSeedIsDeterministicAndModerate) {
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    const FaultPlan a = FaultPlan::FromSeed(seed);
    ASSERT_EQ(a, FaultPlan::FromSeed(seed));
    // Never node faults or read faults; corrupt and truncate sever
    // connections, so they are opt-in through a spec too.
    EXPECT_TRUE(a.node.empty());
    EXPECT_DOUBLE_EQ(a.spill.read_p, 0.0);
    EXPECT_EQ(a.spill.every_nth, 0);
    EXPECT_DOUBLE_EQ(a.net.corrupt, 0.0);
    EXPECT_DOUBLE_EQ(a.net.truncate, 0.0);
    // Schedule and spill intensities stay in ranges jobs complete under.
    EXPECT_GE(a.schedule.yield_p, 0.05);
    EXPECT_LE(a.schedule.yield_p, 0.40);
    EXPECT_LE(a.schedule.sleep_p, 0.05);
    EXPECT_GE(a.schedule.max_sleep_us, 1);
    EXPECT_LE(a.schedule.max_sleep_us, 100);
    EXPECT_LE(a.schedule.pressure_flip_p, 0.10);
    EXPECT_LE(a.schedule.signal_storm_p, 0.20);
    EXPECT_GE(a.schedule.signal_storm_burst, 1);
    EXPECT_LE(a.schedule.signal_storm_burst, 4);
    EXPECT_LE(a.schedule.forced_ome_p, 0.05);
    EXPECT_LE(a.schedule.shuffle_delay_p, 0.25);
    EXPECT_GE(a.schedule.shuffle_delay_max_us, 1);
    EXPECT_LE(a.schedule.shuffle_delay_max_us, 300);
    EXPECT_LE(a.spill.write_p, 0.05);
    // Net probabilities stay inside the moderate bands the ledger absorbs.
    EXPECT_GE(a.net.drop, 0.01);
    EXPECT_LE(a.net.drop, 0.05);
    EXPECT_GE(a.net.duplicate, 0.01);
    EXPECT_LE(a.net.duplicate, 0.05);
    EXPECT_GE(a.net.reorder, 0.02);
    EXPECT_LE(a.net.reorder, 0.08);
    EXPECT_GT(a.net.reset, 0.0);
    EXPECT_LE(a.net.reset, 0.01);
    ASSERT_EQ(a.net.partitions.size(), 1u);
    EXPECT_FALSE(a.net.partitions[0].two_way);
    EXPECT_GT(a.net.partitions[0].duration_ms, 0.0);  // Always heals.
  }
  EXPECT_NE(FaultPlan::FromSeed(7), FaultPlan::FromSeed(8));
  // Seed 0 keeps seed 1's network intensities instead of a degenerate plan.
  EXPECT_EQ(FaultPlan::FromSeed(0).net, FaultPlan::FromSeed(1).net);
}

TEST(FaultPlanTest, RejectsFaultsThatCannotFire) {
  EXPECT_NO_THROW(Parse("kill=1@5,part=-1>*@0+5").CheckFires(2, true));
  EXPECT_THROW(Parse("kill=7@5").CheckFires(2, true), std::invalid_argument);
  EXPECT_THROW(Parse("hang=-1@5").CheckFires(2, true), std::invalid_argument);
  EXPECT_THROW(Parse("kill=1@5").CheckFires(2, false), std::invalid_argument);
  EXPECT_THROW(Parse("part=0>2@5+5").CheckFires(2, true), std::invalid_argument);
  EXPECT_THROW(Parse("part=-2<>*@5+5").CheckFires(2, false), std::invalid_argument);
  EXPECT_NO_THROW(FaultPlan::FromSeed(3).CheckFires(4, false));
}

TEST(ScheduleFuzzerTest, FaultDrawsReplayAcrossInstances) {
  ScheduleFaults fc;
  fc.shuffle_delay_p = 0.5;
  fc.forced_ome_p = 0.5;
  std::vector<std::uint64_t> first;
  {
    ScheduleFuzzer fz(fc, /*seed=*/7);
    Install(&fz);
    for (int i = 0; i < 64; ++i) {
      first.push_back(fz.DrawShuffleDelayUs());
      first.push_back(fz.DrawForcedOme() ? 1 : 0);
    }
    Uninstall();
  }
  std::vector<std::uint64_t> second;
  {
    ScheduleFuzzer fz(fc, /*seed=*/7);
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
  ScheduleFuzzer fz(ScheduleFaults{}, /*seed=*/0);
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
