// Pressure-driven partition migration (DESIGN.md §14): the MigrationBroker's
// staleness/headroom/cost decisions, the MigratePartition ownership-remap
// protocol (remap-before-send, ambiguous-failure abandon, definitive-failure
// revert), and end-to-end fingerprint parity under skewed pressure — with and
// without killing the migration destination mid-flight.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <iostream>
#include <thread>

#include "apps/hyracks_apps.h"
#include "chaos/chaos.h"
#include "itask/migration.h"
#include "itask/recovery.h"
#include "itask/runtime.h"
#include "itask/typed_partition.h"

// ---- MigrationBroker unit tests: staleness, ranking, cost model ----

namespace itask::core {
namespace {

TEST(MigrationBrokerTest, UnseenAndStaleNodesHaveNoHeadroom) {
  MigrationConfig config;
  config.stale_ms = 40.0;
  MigrationBroker broker(2, config);

  // Never heard from: never trusted.
  EXPECT_EQ(broker.FreeBytes(0), 0u);

  broker.Update(1, /*used=*/0, /*capacity=*/1 << 20);
  EXPECT_EQ(broker.FreeBytes(1),
            static_cast<std::uint64_t>(0.75 * (1 << 20)));

  // Past the cutoff the same stats count as "no headroom" — a wedged node's
  // final beat must not keep attracting migrations.
  std::this_thread::sleep_for(std::chrono::milliseconds(90));
  EXPECT_EQ(broker.FreeBytes(1), 0u);

  // A fresh beat restores trust.
  broker.Update(1, (1 << 20) / 2, 1 << 20);
  EXPECT_EQ(broker.FreeBytes(1),
            static_cast<std::uint64_t>(0.75 * (1 << 20)) - (1 << 20) / 2);
}

TEST(MigrationBrokerTest, ZeroCapacityAndOverfilledNodesHaveNoHeadroom) {
  MigrationBroker broker(2, MigrationConfig{});
  broker.Update(0, 0, 0);  // Heap not sized yet.
  EXPECT_EQ(broker.FreeBytes(0), 0u);
  broker.Update(1, /*used=*/900 << 10, /*capacity=*/1 << 20);  // Over the line.
  EXPECT_EQ(broker.FreeBytes(1), 0u);
}

TEST(MigrationBrokerTest, PickDestinationRanksBySlackAndFiltersPeers) {
  MigrationBroker broker(4, MigrationConfig{});
  auto all_serving = [](int) { return true; };

  // Nobody heard from yet: no destination.
  EXPECT_EQ(broker.PickDestination(0, 1 << 10, all_serving), -1);

  broker.Update(0, 0, 8 << 20);       // Source itself: must never be picked.
  broker.Update(1, 6 << 20, 8 << 20); // Fill line 6 MB: no slack at all.
  broker.Update(2, 1 << 20, 8 << 20); // 5 MB slack.
  broker.Update(3, 2 << 20, 8 << 20); // 4 MB slack.
  EXPECT_EQ(broker.PickDestination(0, 1 << 20, all_serving), 2);

  // The best-ranked peer dropping out of the serving set moves the pick.
  auto node2_down = [](int n) { return n != 2; };
  EXPECT_EQ(broker.PickDestination(0, 1 << 20, node2_down), 3);

  // A payload bigger than every peer's free space has nowhere to go.
  EXPECT_EQ(broker.PickDestination(0, 6 << 20, all_serving), -1);
}

TEST(MigrationBrokerTest, CostModelSpillsSmallAndMigratesLarge) {
  // Defaults: wire = mb/1000 * 1e6 + 200 us; spill = 2 * mb/400 * 1e6 us.
  // Break-even near 50 KB — the RTT dominates small payloads.
  MigrationBroker broker(2, MigrationConfig{});
  EXPECT_FALSE(broker.MigrationCheaper(16 << 10));
  EXPECT_TRUE(broker.MigrationCheaper(1 << 20));

  MigrationConfig fast_wire;
  fast_wire.rtt_us = 0.0;
  MigrationBroker broker2(2, fast_wire);
  EXPECT_TRUE(broker2.MigrationCheaper(16 << 10));  // No fixed cost: wire wins.
}

// ---- MigratePartition protocol: remap-before-send, revert vs abandon ----

struct U64Traits {
  using Tuple = std::uint64_t;
  static std::uint64_t SizeOf(const Tuple&) { return 16; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteVarint(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadVarint(); }
};
using U64Partition = VectorPartition<U64Traits>;

memsim::HeapConfig FastHeap() {
  memsim::HeapConfig config;
  config.capacity_bytes = 16 << 20;
  config.real_pauses = false;
  return config;
}

class MigrateProtocolTest : public ::testing::Test {
 protected:
  MigrateProtocolTest()
      : heap0_(FastHeap()),
        heap1_(FastHeap()),
        spill_(std::filesystem::temp_directory_path(), "migration-ledger"),
        rec_(RecoveryConfig{}, 2) {
    type_ = TypeIds::Get("migration.test.u64");
    rec_.RegisterFactory(type_, [this](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<U64Partition>(type_, heap, spill);
    });
    for (int n = 0; n < 2; ++n) {
      RecoveryNodeHooks hooks;
      hooks.heap = n == 0 ? &heap0_ : &heap1_;
      hooks.spill = &spill_;
      hooks.push = [this, n](PartitionPtr dp) { pushed_[n].push_back(std::move(dp)); };
      rec_.SetNodeHooks(n, std::move(hooks));
      rec_.SetNodeSink(n, [this, n](PartitionPtr dp) { sunk_[n].push_back(std::move(dp)); });
    }
  }

  // A registered input split plus a resident copy carrying its lineage stamp
  // (the shape TryMigrate hands to MigratePartition).
  std::shared_ptr<U64Partition> MakeRegisteredSplit(std::int64_t* id_out) {
    auto p = std::make_shared<U64Partition>(type_, &heap0_, &spill_);
    for (std::uint64_t v : {1ull, 2ull, 3ull}) {
      p->Append(v);
    }
    *id_out = rec_.RegisterSplit(*p, /*assigned_node=*/0);
    return p;
  }

  TypeId type_ = 0;
  memsim::ManagedHeap heap0_;
  memsim::ManagedHeap heap1_;
  serde::SpillManager spill_;
  RecoveryContext rec_;
  std::vector<PartitionPtr> pushed_[2];
  std::vector<PartitionPtr> sunk_[2];
};

TEST_F(MigrateProtocolTest, MigrateRemapsOwnershipAndDeliversInproc) {
  std::int64_t id = -1;
  auto dp = MakeRegisteredSplit(&id);

  ASSERT_EQ(rec_.MigratePartition(0, 1, dp),
            RecoveryContext::MigrateOutcome::kMigrated);
  ASSERT_EQ(pushed_[1].size(), 1u);
  EXPECT_EQ(pushed_[1][0]->origin_split(), id);
  EXPECT_EQ(pushed_[1][0]->origin_epoch(), 0u);
  EXPECT_EQ(pushed_[1][0]->TupleCount(), 3u);
  EXPECT_EQ(rec_.stats().partitions_migrated, 1u);
  EXPECT_GT(rec_.stats().migrated_bytes, 0u);

  // Ownership moved with the data: the split commits from the new node and
  // the job completes without the source ever touching it again.
  rec_.CommitEpoch(/*producer=*/1, id, /*epoch=*/0);
  EXPECT_TRUE(rec_.MergeSafe());
}

TEST_F(MigrateProtocolTest, CommittedOrMisassignedSplitsFailValidationFast) {
  std::int64_t id = -1;
  auto dp = MakeRegisteredSplit(&id);

  // Wrong source: the split is assigned to node 0, not node 1.
  EXPECT_EQ(rec_.MigratePartition(1, 0, dp),
            RecoveryContext::MigrateOutcome::kFailed);

  // Already committed: nothing left to move.
  rec_.CommitEpoch(0, id, 0);
  EXPECT_EQ(rec_.MigratePartition(0, 1, dp),
            RecoveryContext::MigrateOutcome::kFailed);
  EXPECT_EQ(rec_.stats().partitions_migrated, 0u);
  EXPECT_TRUE(pushed_[1].empty());
}

TEST_F(MigrateProtocolTest, DefinitiveChannelFailureRevertsOwnership) {
  std::int64_t id = -1;
  auto dp = MakeRegisteredSplit(&id);

  // Every attempt is refused before the frame could land: a verifiably
  // clean failure, so ownership reverts and the caller may spill instead.
  rec_.SetMigrationChannel(
      [](int, const ShuffleWireId&, const common::ByteBuffer&) {
        return DeliveryStatus::kPeerGone;
      });
  EXPECT_EQ(rec_.MigratePartition(0, 1, dp),
            RecoveryContext::MigrateOutcome::kFailed);
  EXPECT_EQ(rec_.stats().partitions_migrated, 0u);

  // The revert left the ledger coherent: the same split migrates cleanly
  // once the channel heals.
  std::uint64_t seen_seq = 0;
  rec_.SetMigrationChannel(
      [&seen_seq](int, const ShuffleWireId& wire, const common::ByteBuffer&) {
        seen_seq = wire.seq;
        return DeliveryStatus::kDelivered;
      });
  EXPECT_EQ(rec_.MigratePartition(0, 1, dp),
            RecoveryContext::MigrateOutcome::kMigrated);
  // Migration frames live in their own seq namespace (high bit), so they can
  // never collide with ledger shuffle seqs in the receiver's dedup sets.
  EXPECT_NE(seen_seq & (1ULL << 63), 0u);
  rec_.SetMigrationChannel(nullptr);
}

TEST_F(MigrateProtocolTest, AmbiguousFailureAbandonsAndReexecutesFromLineage) {
  std::int64_t id = -1;
  auto dp = MakeRegisteredSplit(&id);

  // Acks time out on every attempt: the frame *may* have landed, so handing
  // the split back to the source could double-execute it against a landed
  // stray. The protocol must abandon instead: bump the epoch (fencing the
  // stray) and re-execute from durable bytes.
  rec_.SetMigrationChannel(
      [](int, const ShuffleWireId&, const common::ByteBuffer&) {
        return DeliveryStatus::kBackoff;
      });
  EXPECT_EQ(rec_.MigratePartition(0, 1, dp),
            RecoveryContext::MigrateOutcome::kAbandoned);
  EXPECT_EQ(rec_.stats().partitions_migrated, 0u);
  rec_.SetMigrationChannel(nullptr);

  rec_.Sweep();  // Drives the scheduled re-execution.
  ASSERT_EQ(pushed_[1].size(), 1u);  // Re-materialized on the remapped owner.
  EXPECT_EQ(pushed_[1][0]->origin_split(), id);
  EXPECT_EQ(pushed_[1][0]->origin_epoch(), 1u);  // Fenced epoch.
  EXPECT_EQ(pushed_[1][0]->TupleCount(), 3u);    // Full durable payload.
  EXPECT_EQ(rec_.stats().splits_reexecuted, 1u);

  // A zombie commit from the stray copy under the old epoch is fenced.
  rec_.CommitEpoch(1, id, 0);
  EXPECT_EQ(rec_.stats().stale_commits, 1u);
  rec_.CommitEpoch(1, id, 1);
  EXPECT_TRUE(rec_.MergeSafe());
}

TEST_F(MigrateProtocolTest, HeartbeatsFeedBrokerAndMembershipTogether) {
  // The broker must never know about a node the failure detector didn't just
  // hear from: NoteRemoteHeartbeat couples Beat with the stats update.
  rec_.NoteRemoteHeartbeat(1, /*used=*/1 << 20, /*capacity=*/8 << 20);
  EXPECT_GT(rec_.broker().FreeBytes(1), 0u);
  EXPECT_EQ(rec_.broker().FreeBytes(0), 0u);  // Still silent.
}

// ---- SpillStep's three-way decision, driven deterministically ----
//
// The e2e runs below prove migrations happen under real skew, but whether a
// given run migrates depends on worker timing. These tests pin the decision
// itself: a live runtime whose queue holds exactly one eligible victim, a
// broker fed one heartbeat, and a direct SpillStep call — no monitor, no
// workers, no races.

class SpillStepMigrateTest : public ::testing::Test {
 protected:
  SpillStepMigrateTest()
      : heap0_(FastHeap()),
        heap1_(FastHeap()),
        spill_(std::filesystem::temp_directory_path(), "migration-spillstep"),
        rec_(RecoveryConfig{}, 2) {
    type_ = TypeIds::Get("migration.spillstep.u64");
    rec_.RegisterFactory(type_, [this](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<U64Partition>(type_, heap, spill);
    });
    for (int n = 0; n < 2; ++n) {
      RecoveryNodeHooks hooks;
      hooks.heap = n == 0 ? &heap0_ : &heap1_;
      hooks.spill = &spill_;
      hooks.push = [this, n](PartitionPtr dp) { pushed_[n].push_back(std::move(dp)); };
      rec_.SetNodeHooks(n, std::move(hooks));
    }

    NodeServices services{/*node_id=*/0, "spillstep-n0", &heap0_, &spill_,
                          /*tracer=*/nullptr};
    IrsConfig irs;
    irs.max_workers = 1;
    rt_ = std::make_unique<IrsRuntime>(services, irs, std::make_shared<JobState>());
    TaskSpec spec;  // Non-merge consumer: keeps the victim migration-eligible.
    spec.name = "consume";
    spec.input_type = type_;
    spec.output_type = TypeIds::Get("migration.spillstep.out");
    rt_->graph().Register(spec);
    rt_->FinalizeGraph();
    rt_->EnableFaultTolerance(&rec_);
  }

  // A registered (lineage-stamped) resident split sitting unpinned in the
  // runtime's queue — the exact shape SpillStep sees under pressure. 8192
  // tuples x 16 B = 128 KB: above the default size floor and cost-model
  // break-even, so only broker state decides the arm taken.
  std::shared_ptr<U64Partition> QueueEligibleVictim() {
    auto p = std::make_shared<U64Partition>(type_, &heap0_, &spill_);
    for (std::uint64_t i = 0; i < 8192; ++i) {
      p->Append(i);
    }
    rec_.RegisterSplit(*p, /*assigned_node=*/0);
    // Straight into the queue: IrsRuntime::Push would dispatch the partition
    // into an idle worker slot (no worker threads run in this fixture), and a
    // dispatched victim is exactly what SpillStep must never touch.
    rt_->queue().Push(p);
    return p;
  }

  TypeId type_ = 0;
  memsim::ManagedHeap heap0_;
  memsim::ManagedHeap heap1_;
  serde::SpillManager spill_;
  RecoveryContext rec_;
  std::vector<PartitionPtr> pushed_[2];
  std::unique_ptr<IrsRuntime> rt_;
};

TEST_F(SpillStepMigrateTest, TakesMigrateArmWhenPeerHasHeadroom) {
  auto dp = QueueEligibleVictim();
  const std::uint64_t bytes = dp->PayloadBytes();
  rec_.NoteRemoteHeartbeat(1, /*used=*/0, /*capacity=*/16 << 20);

  EXPECT_EQ(rt_->partition_manager().SpillStep(/*bytes_goal=*/1), bytes);

  // The victim moved instead of spilling: peer owns the bytes, local copy is
  // purged, and nothing was written to disk.
  EXPECT_EQ(rec_.stats().partitions_migrated, 1u);
  EXPECT_EQ(rec_.stats().migrated_bytes, bytes);
  EXPECT_EQ(rec_.stats().migrations_rejected, 0u);
  ASSERT_EQ(pushed_[1].size(), 1u);
  EXPECT_EQ(pushed_[1][0]->TupleCount(), 8192u);
  EXPECT_EQ(pushed_[1][0]->origin_split(), dp->origin_split());
  EXPECT_EQ(dp->PayloadBytes(), 0u);  // Purged: the local charge is released.
  EXPECT_EQ(heap0_.live_bytes(), 0u);
  EXPECT_EQ(heap1_.live_bytes(), bytes);
  EXPECT_TRUE(rt_->queue().ResidentSnapshot().empty());
}

TEST_F(SpillStepMigrateTest, FallsBackToSpillWithoutDestination) {
  auto dp = QueueEligibleVictim();
  const std::uint64_t bytes = dp->PayloadBytes();
  // No heartbeat: the broker never heard from the peer, so the cost model's
  // approval finds no destination and the decision falls back to local disk.

  EXPECT_EQ(rt_->partition_manager().SpillStep(/*bytes_goal=*/1), bytes);

  EXPECT_EQ(rec_.stats().partitions_migrated, 0u);
  // Two rejections, one spill: a fresh partition sits inside the thrash
  // cooldown window, so the cooldown branch tries the wire first, and the
  // all-candidates-recent fallback tries once more before spilling.
  EXPECT_EQ(rec_.stats().migrations_rejected, 2u);
  EXPECT_TRUE(pushed_[1].empty());
  EXPECT_FALSE(dp->resident());  // Spilled, not purged: reloadable locally.
  dp->EnsureResident();
  EXPECT_EQ(dp->TupleCount(), 8192u);
}

TEST_F(SpillStepMigrateTest, RecentlyLoadedVictimsStillMigrate) {
  auto dp = QueueEligibleVictim();
  const std::uint64_t bytes = dp->PayloadBytes();
  // Stamp a just-now load time: inside the thrash cooldown window, where
  // spilling is deferred (the imminent reload would ping-pong the disk) but
  // migration must remain available — the wire has no reload to thrash.
  dp->Spill();
  dp->EnsureResident();
  rec_.NoteRemoteHeartbeat(1, /*used=*/0, /*capacity=*/16 << 20);

  EXPECT_EQ(rt_->partition_manager().SpillStep(/*bytes_goal=*/1), bytes);
  EXPECT_EQ(rec_.stats().partitions_migrated, 1u);
  ASSERT_EQ(pushed_[1].size(), 1u);
  EXPECT_EQ(pushed_[1][0]->TupleCount(), 8192u);
}

}  // namespace
}  // namespace itask::core

// ---- End-to-end: skewed pressure, fingerprint parity, destination kill ----

namespace itask::apps {
namespace {

// Fast failure detection plus migration settings that favor the wire (the
// modeled spill device is slow and the RTT small, so any eligible pressured
// partition prefers a peer with headroom over the local disk).
cluster::Cluster MakeSkewedCluster(std::uint64_t node0_heap, std::uint64_t peer_heap,
                                   int nodes = 2, std::vector<chaos::NodeFault> faults = {}) {
  cluster::ClusterConfig cc;
  cc.num_nodes = nodes;
  cc.heap.capacity_bytes = node0_heap;
  cc.heap.real_pauses = false;
  cc.per_node_heap_bytes.assign(static_cast<std::size_t>(nodes), peer_heap);
  cc.per_node_heap_bytes[0] = node0_heap;
  cc.faults.node = std::move(faults);
  cc.recovery.heartbeat_ms = 1.0;
  cc.recovery.suspect_timeout_ms = 25.0;
  cc.recovery.migration.min_bytes = 1024;
  cc.recovery.migration.rtt_us = 10.0;
  cc.recovery.migration.disk_mbps = 50.0;
  return cluster::Cluster(cc);
}

AppConfig SkewConfig() {
  AppConfig config;
  config.dataset_bytes = 768 << 10;
  config.tpch_scale = 0.2;
  config.threads = 4;
  config.max_workers = 4;
  config.granularity_bytes = 64 << 10;  // Above the migration size floor.
  config.fault_tolerance = true;
  return config;
}

class MigrationE2eTest : public ::testing::Test {};

AppResult RunReference(const char* app, int nodes = 2) {
  // Same topology, no skew, no faults.
  auto cluster = MakeSkewedCluster(48 << 20, 48 << 20, nodes);
  return RunHyracksApp(app, cluster, SkewConfig(), Mode::kITask);
}

// One node at a fraction of its peers' heap: the pressured node must complete
// with a bit-for-bit fingerprint on every run. Whether a given run also takes
// the migrate arm depends on worker/monitor interleaving — an input-split
// remainder has to be sitting in the queue at interrupt time — so the counter
// is diagnostic-only here; the decision logic is pinned deterministically by
// SpillStepMigrateTest above, and "a skewed run actually migrates" is gated
// in CI (ci.sh tier 4e chaos smoke, tier 5d bench_migration).
TEST_F(MigrationE2eTest, SkewedPressurePreservesFingerprintAndMigrates) {
  std::uint64_t total_migrated = 0;
  std::uint64_t total_rejected = 0;
  std::uint64_t total_interrupts = 0;
  for (const char* app : {"WC", "HS"}) {
    const AppResult reference = RunReference(app);
    ASSERT_TRUE(reference.metrics.succeeded) << app;
    ASSERT_GT(reference.records, 0u) << app;

    // Every app gets one skewed parity round; extra rounds only run while the
    // aggregate migration counter is still hunting its first hit.
    for (int round = 0; round < 10 && (round == 0 || total_migrated == 0); ++round) {
      auto cluster = MakeSkewedCluster(/*node0_heap=*/448 << 10,
                                       /*peer_heap=*/8 << 20);
      const AppResult skewed =
          RunHyracksApp(app, cluster, SkewConfig(), Mode::kITask);
      ASSERT_TRUE(skewed.metrics.succeeded)
          << app << " round " << round << ": " << skewed.metrics.Summary();
      EXPECT_EQ(skewed.checksum, reference.checksum) << app << " round " << round;
      EXPECT_EQ(skewed.records, reference.records) << app << " round " << round;
      EXPECT_EQ(skewed.metrics.duplicate_tuples_dropped, 0u)
          << app << " round " << round;
      total_migrated += skewed.metrics.partitions_migrated;
      total_rejected += skewed.metrics.migrations_rejected;
      total_interrupts += skewed.metrics.interrupts + skewed.metrics.ome_interrupts;
    }
  }
  if (total_migrated == 0) {
    // ~1-in-15 processes never queue an eligible remainder at interrupt time
    // even across 10 rounds (rejected stays 0: the silent eligibility gates
    // filter every victim). Parity above is the hard assertion; migration
    // liveness is enforced deterministically and in CI instead.
    std::cerr << "note: no round took the migrate arm (rejected="
              << total_rejected << " interrupts=" << total_interrupts
              << "); covered by SpillStepMigrateTest + ci.sh tiers 4e/5d\n";
  }
}

// Killing the migration destination mid-flight must not lose or duplicate
// data: remap-before-send means OnNodeLost(target) re-executes every split
// the dead peer owned — including any migrated to it moments earlier — from
// durable bytes.
TEST_F(MigrationE2eTest, KillingMigrationDestinationPreservesFingerprint) {
  const AppResult reference = RunReference("WC", /*nodes=*/3);
  ASSERT_TRUE(reference.metrics.succeeded);

  // Three nodes: node 0 pressured, nodes 1-2 are destinations; node 1 dies
  // shortly into the run, while migrations toward it may be in flight.
  auto cluster = MakeSkewedCluster(/*node0_heap=*/448 << 10,
                                   /*peer_heap=*/8 << 20, /*nodes=*/3,
                                   {{1, 2.0, chaos::NodeFaultKind::kKill}});
  const AppResult faulted = RunHyracksApp("WC", cluster, SkewConfig(), Mode::kITask);
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.nodes_failed, 1u);
}

}  // namespace
}  // namespace itask::apps
