// Node-failure recovery tests (DESIGN.md §11): heartbeat detection, lineage
// re-execution, shuffle redelivery, graceful OOM degradation, and the
// exactly-once dedup audit. The end-to-end tests assert the strongest
// property the subsystem offers: a job that loses a node mid-flight produces
// the *identical* result fingerprint as a fault-free run, with zero
// duplicates observed by the ledger's dedup counter.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <thread>

#include "apps/hyracks_apps.h"
#include "chaos/chaos.h"
#include "itask/membership.h"
#include "itask/recovery.h"
#include "itask/typed_partition.h"

namespace itask::apps {
namespace {

using chaos::NodeFault;
using chaos::NodeFaultKind;

AppConfig FtConfig() {
  AppConfig config;
  config.dataset_bytes = 512 << 10;
  config.tpch_scale = 0.2;
  config.threads = 4;
  config.max_workers = 4;
  config.granularity_bytes = 8 << 10;
  config.fault_tolerance = true;
  return config;
}

// Shrinks the failure-detector timeouts so a kill is declared dead in tens of
// milliseconds instead of the production default.
core::RecoveryConfig FastDetection() {
  core::RecoveryConfig recovery;
  recovery.heartbeat_ms = 1.0;
  recovery.suspect_timeout_ms = 25.0;
  return recovery;
}

class RecoveryTest : public ::testing::Test {};

AppResult RunFt(const char* app, const AppConfig& config, std::vector<NodeFault> faults = {},
                const core::RecoveryConfig& recovery = FastDetection()) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 4;
  cc.heap.capacity_bytes = 48 << 20;
  cc.heap.real_pauses = false;
  cc.faults.node = std::move(faults);
  cc.recovery = recovery;
  cluster::Cluster cluster(cc);
  return RunHyracksApp(app, cluster, config, Mode::kITask);
}

// ---- Fault-free equivalence: FT routing must not change results ----

TEST_F(RecoveryTest, FaultFreeFtMatchesNonFt) {
  for (const char* app : {"WC", "HS", "HJ"}) {
    AppConfig base = FtConfig();
    base.fault_tolerance = false;
    const AppResult plain = RunFt(app, base);
    ASSERT_TRUE(plain.metrics.succeeded) << app;
    ASSERT_GT(plain.records, 0u) << app;

    const AppResult ft = RunFt(app, FtConfig());
    ASSERT_TRUE(ft.metrics.succeeded) << app;
    EXPECT_EQ(ft.checksum, plain.checksum) << app;
    EXPECT_EQ(ft.records, plain.records) << app;
    EXPECT_EQ(ft.metrics.nodes_failed, 0u) << app;
    EXPECT_EQ(ft.metrics.splits_reexecuted, 0u) << app;
    EXPECT_EQ(ft.metrics.duplicate_tuples_dropped, 0u) << app;
  }
}

// ---- Tentpole: killing any single node preserves the fingerprint ----

class KillNodeTest : public RecoveryTest,
                     public ::testing::WithParamInterface<const char*> {};

TEST_P(KillNodeTest, KilledNodeRecoversWithIdenticalFingerprint) {
  const char* app = GetParam();
  const AppResult reference = RunFt(app, FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);
  ASSERT_GT(reference.records, 0u);

  for (int victim : {0, 1, 3}) {
    // Age the victim's last beat past the dead timeout: a killed node with
    // no work left would otherwise let the job finish before detection, and
    // nodes_failed would stay 0.
    const AppResult faulted = RunFt(
        app, FtConfig(), {{victim, 2.0, NodeFaultKind::kKill, /*silence_age_ms=*/10000.0}});
    ASSERT_TRUE(faulted.metrics.succeeded)
        << app << " kill node " << victim << ": " << faulted.metrics.Summary();
    EXPECT_EQ(faulted.checksum, reference.checksum) << app << " kill node " << victim;
    EXPECT_EQ(faulted.records, reference.records) << app << " kill node " << victim;
    // The dedup audit counter: exactly-once delivery held.
    EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u)
        << app << " kill node " << victim;
    EXPECT_GE(faulted.metrics.nodes_failed, 1u) << app << " kill node " << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(Apps, KillNodeTest, ::testing::Values("WC", "HS", "HJ"));

// ---- Graceful degradation: escaped OME demotes to draining ----

TEST_F(RecoveryTest, OomPoisonedNodeDrainsAndJobCompletes) {
  const AppResult reference = RunFt("WC", FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);

  const AppResult faulted = RunFt("WC", FtConfig(), {{2, 1.0, NodeFaultKind::kPoison}});
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  // The poisoned node left the serving set one way or the other: demoted to
  // draining by the escaped-OME path, or declared dead if its monitor died.
  EXPECT_GE(faulted.metrics.nodes_draining + faulted.metrics.nodes_failed, 1u);
}

// ---- Zombie: a hung node is declared dead; its late work is fenced ----

TEST_F(RecoveryTest, HangedNodeIsDetectedAndFenced) {
  const AppResult reference = RunFt("WC", FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);

  // Age the zombie's last beat past the dead timeout so detection fires on
  // the next poll tick deterministically — without this, a fast job completes
  // before the wall-clock silence accumulates and nodes_failed stays 0.
  const AppResult faulted = RunFt(
      "WC", FtConfig(), {{1, 2.0, NodeFaultKind::kHang, /*silence_age_ms=*/10000.0}});
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.nodes_failed, 1u);
}

// ---- Disconnects: transient cuts must not be conflated with death ----

TEST_F(RecoveryTest, HealedDisconnectCausesNoReexecution) {
  // Grace far past the dead timeout: only an unhealed cut dies.
  core::RecoveryConfig recovery = FastDetection();
  recovery.disconnect_grace_ms = 60000.0;
  const AppResult reference = RunFt("WC", FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);

  const AppResult faulted = RunFt(
      "WC", FtConfig(),
      {{1, 2.0, NodeFaultKind::kDisconnect}, {1, 12.0, NodeFaultKind::kHeal}}, recovery);
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  // The whole point of kDisconnected: a cut that heals re-executes nothing
  // and kills nobody.
  EXPECT_EQ(faulted.metrics.splits_reexecuted, 0u);
  EXPECT_EQ(faulted.metrics.nodes_failed, 0u);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.partitions_healed, 1u);
}

TEST_F(RecoveryTest, UnhealedDisconnectExpiresGraceAndPromotesToDead) {
  // Tight grace so the expiry fires well inside the job.
  core::RecoveryConfig recovery = FastDetection();
  recovery.disconnect_grace_ms = 40.0;
  const AppResult reference = RunFt("WC", FtConfig());
  ASSERT_TRUE(reference.metrics.succeeded);

  // Never heals; age the beat past the grace so expiry doesn't race a fast
  // job (same determinism trick as HangedNodeIsDetectedAndFenced).
  const AppResult faulted = RunFt(
      "WC", FtConfig(), {{2, 2.0, NodeFaultKind::kDisconnect, /*silence_age_ms=*/10000.0}},
      recovery);
  ASSERT_TRUE(faulted.metrics.succeeded) << faulted.metrics.Summary();
  EXPECT_EQ(faulted.checksum, reference.checksum);
  EXPECT_EQ(faulted.records, reference.records);
  EXPECT_EQ(faulted.metrics.duplicate_tuples_dropped, 0u);
  EXPECT_GE(faulted.metrics.nodes_failed, 1u);  // Grace expired -> dead.
  EXPECT_EQ(faulted.metrics.partitions_healed, 0u);
}

}  // namespace
}  // namespace itask::apps

// ---- Membership unit tests (successor remapping) ----

namespace itask::core {
namespace {

TEST(MembershipTest, EffectiveOwnerMovesOnlyTheDeadNodesKeys) {
  Membership m(4);
  for (int h = 0; h < 4; ++h) {
    EXPECT_EQ(m.EffectiveOwner(h), h);
  }
  m.SetState(2, NodeLiveness::kDead);
  // Only the dead node's range moves — to its successor.
  EXPECT_EQ(m.EffectiveOwner(0), 0);
  EXPECT_EQ(m.EffectiveOwner(1), 1);
  EXPECT_EQ(m.EffectiveOwner(2), 3);
  EXPECT_EQ(m.EffectiveOwner(3), 3);
  // A second death walks past both, wrapping around.
  m.SetState(3, NodeLiveness::kDead);
  EXPECT_EQ(m.EffectiveOwner(2), 0);
  EXPECT_EQ(m.EffectiveOwner(3), 0);
  EXPECT_EQ(m.EffectiveOwner(0), 0);
  EXPECT_EQ(m.EffectiveOwner(1), 1);
  EXPECT_EQ(m.ServingCount(), 2);
}

TEST(MembershipTest, DisconnectedNodeKeepsServingAndHealNeedsAFreshBeat) {
  Membership m(3);
  m.NoteDisconnected(1);
  EXPECT_EQ(m.state(1), NodeLiveness::kDisconnected);
  // Mid-partition the node still owns its key range — remapping it would
  // redeliver its shuffle data even though it comes back intact.
  EXPECT_TRUE(m.Serving(1));
  EXPECT_EQ(m.EffectiveOwner(1), 1);
  EXPECT_EQ(m.ServingCount(), 3);
  // The pre-cut beat (stamped at construction) must not read as a heal:
  // only a beat that *postdates* the disconnect mark counts.
  EXPECT_FALSE(m.BeatSinceDisconnect(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  m.Beat(1);
  EXPECT_TRUE(m.BeatSinceDisconnect(1));
}

TEST(MembershipTest, ResetBeatsIsNotAHeal) {
  // A partition observed while the job was still feeding must not be healed
  // by the job-start reset of every beat stamp.
  Membership m(2);
  m.NoteDisconnected(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  m.ResetBeats();
  EXPECT_FALSE(m.BeatSinceDisconnect(0));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  m.Beat(0);
  EXPECT_TRUE(m.BeatSinceDisconnect(0));
}

TEST(MembershipTest, SuppressedBeatsNeverReadAsAHeal) {
  Membership m(2);
  m.SuppressBeats(0, true);
  m.NoteDisconnected(0);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  m.Beat(0);  // Dropped: the link is down.
  EXPECT_FALSE(m.BeatSinceDisconnect(0));
  m.SuppressBeats(0, false);
  m.Beat(0);
  EXPECT_TRUE(m.BeatSinceDisconnect(0));
}

TEST(MembershipTest, DrainingStopsServingButDemotionNeedsSurvivors) {
  Membership m(2);
  EXPECT_TRUE(m.TryDemoteToDraining(0));
  EXPECT_FALSE(m.Serving(0));
  EXPECT_EQ(m.EffectiveOwner(0), 1);
  // The last serving node may not drain — someone must finish the job.
  EXPECT_FALSE(m.TryDemoteToDraining(1));
  EXPECT_TRUE(m.Serving(1));
}

// ---- RecoveryContext unit tests: ledger fencing and dedup ----

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

class LedgerTest : public ::testing::Test {
 protected:
  explicit LedgerTest(RecoveryConfig config = RecoveryConfig{})
      : heap0_(FastHeap()),
        heap1_(FastHeap()),
        spill_(std::filesystem::temp_directory_path(), "recovery-ledger"),
        rec_(config, 2) {
    type_ = TypeIds::Get("recovery.test.u64");
    rec_.RegisterFactory(type_, [this](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<U64Partition>(type_, heap, spill);
    });
    for (int n = 0; n < 2; ++n) {
      RecoveryNodeHooks hooks;
      hooks.heap = n == 0 ? &heap0_ : &heap1_;
      hooks.spill = &spill_;
      hooks.push = [this, n](PartitionPtr dp) { pushed_[n].push_back(std::move(dp)); };
      hooks.idle = [this, n] { return !busy_[n]; };
      rec_.SetNodeHooks(n, std::move(hooks));
      rec_.SetNodeSink(n, [this, n](PartitionPtr dp) { sunk_[n].push_back(std::move(dp)); });
    }
  }

  std::shared_ptr<U64Partition> MakePartition(int node, Tag tag,
                                              std::initializer_list<std::uint64_t> vals) {
    auto p = std::make_shared<U64Partition>(type_, node == 0 ? &heap0_ : &heap1_, &spill_);
    p->set_tag(tag);
    for (std::uint64_t v : vals) {
      p->Append(v);
    }
    return p;
  }

  TypeId type_ = 0;
  memsim::ManagedHeap heap0_;
  memsim::ManagedHeap heap1_;
  serde::SpillManager spill_;
  RecoveryContext rec_;
  std::vector<PartitionPtr> pushed_[2];
  std::vector<PartitionPtr> sunk_[2];
  bool busy_[2] = {false, false};  // Whether the node "runs an activation".
};

TEST_F(LedgerTest, StagedEntriesDeliverOnceOnCommit) {
  auto split = MakePartition(0, kNoTag, {1, 2, 3});
  const std::int64_t id = rec_.RegisterSplit(*split, 0);
  EXPECT_FALSE(rec_.MergeSafe());  // Uncommitted split gates the merges.

  auto out = MakePartition(0, /*tag=*/1, {10, 20});
  out->set_origin(id, 0);
  ASSERT_TRUE(rec_.StageShuffle(/*producer=*/0, /*home=*/1, out));
  EXPECT_EQ(rec_.stats().entries_staged, 1u);
  ASSERT_TRUE(pushed_[1].empty());  // Staged, not delivered, until commit.

  rec_.CommitEpoch(/*producer=*/0, id, /*epoch=*/0);
  ASSERT_EQ(pushed_[1].size(), 1u);  // Delivered to the home node exactly once.
  EXPECT_TRUE(rec_.MergeSafe());
  EXPECT_EQ(rec_.stats().duplicates_dropped, 0u);

  // Owner completes the merge: staged sink chunks replay into the real sink
  // and the tag's ledger entries are released.
  auto chunk = MakePartition(1, /*tag=*/1, {30});
  ASSERT_TRUE(rec_.StageSinkChunk(1, chunk));
  ASSERT_TRUE(sunk_[1].empty());
  rec_.CommitSink(1, /*tag=*/1);
  ASSERT_EQ(sunk_[1].size(), 1u);
  EXPECT_TRUE(rec_.AllComplete());
}

TEST_F(LedgerTest, DeadProducerIsFencedAndSplitReexecutes) {
  auto split = MakePartition(0, kNoTag, {1, 2, 3});
  const std::int64_t id = rec_.RegisterSplit(*split, 0);

  // Node 0 dies before committing: its stage attempts are rejected and the
  // split re-executes on the survivor under a bumped epoch.
  rec_.membership().SetState(0, NodeLiveness::kDead);
  auto out = MakePartition(0, /*tag=*/1, {10});
  out->set_origin(id, 0);
  EXPECT_FALSE(rec_.StageShuffle(0, 1, out));
  EXPECT_EQ(rec_.stats().fenced_rejects, 1u);

  rec_.OnNodeLost(0);
  ASSERT_EQ(pushed_[1].size(), 1u);  // The re-executed split, on node 1.
  EXPECT_EQ(pushed_[1][0]->origin_split(), id);
  EXPECT_EQ(pushed_[1][0]->origin_epoch(), 1u);
  EXPECT_EQ(rec_.stats().splits_reexecuted, 1u);

  // A zombie commit under the old epoch is stale; the new epoch commits.
  rec_.CommitEpoch(0, id, 0);
  EXPECT_EQ(rec_.stats().stale_commits, 1u);
  EXPECT_FALSE(rec_.MergeSafe());
  rec_.CommitEpoch(1, id, 1);
  EXPECT_TRUE(rec_.MergeSafe());
}

TEST_F(LedgerTest, OwnerDeathRedeliversCommittedEntriesWithoutDuplicates) {
  auto split = MakePartition(0, kNoTag, {1});
  const std::int64_t id = rec_.RegisterSplit(*split, 0);
  auto out = MakePartition(0, /*tag=*/1, {10, 20});
  out->set_origin(id, 0);
  ASSERT_TRUE(rec_.StageShuffle(0, 1, out));
  rec_.CommitEpoch(0, id, 0);
  ASSERT_EQ(pushed_[1].size(), 1u);

  // The owner dies after delivery but before sinking tag 1: the committed
  // entry re-delivers to the survivor — no producer re-execution needed.
  rec_.membership().SetState(1, NodeLiveness::kDead);
  rec_.OnNodeLost(1);
  ASSERT_EQ(pushed_[0].size(), 1u);
  EXPECT_EQ(rec_.stats().redeliveries, 1u);
  EXPECT_EQ(rec_.stats().splits_reexecuted, 0u);
  EXPECT_EQ(rec_.stats().duplicates_dropped, 0u);

  // Node 0 finishes the merge; a late redelivery to the sunk tag is refused.
  rec_.CommitSink(0, 1);
  EXPECT_TRUE(rec_.AllComplete());
}

TEST_F(LedgerTest, SunkTagRefusesLateChunks) {
  auto chunk = MakePartition(0, /*tag=*/7, {1});
  ASSERT_TRUE(rec_.StageSinkChunk(0, chunk));
  rec_.CommitSink(0, 7);
  ASSERT_EQ(sunk_[0].size(), 1u);
  auto late = MakePartition(0, /*tag=*/7, {2});
  EXPECT_FALSE(rec_.StageSinkChunk(0, late));
  EXPECT_EQ(sunk_[0].size(), 1u);
}

// ---- Pipelined delivery over a DeliveryChannel ----

// Backoff so short that every retry is due at the very next Sweep(): the
// tests below drive the retry tick by hand and never sleep.
RecoveryConfig InstantRetryConfig() {
  RecoveryConfig config;
  config.backoff_base_ms = 1e-9;
  config.backoff_cap_ms = 1e-9;
  return config;
}

// A DeliveryChannel that takes every send and holds its ack until the test
// releases it through OnDeliveryAck. Everything runs on the test thread: a
// commit that waited for its acks would never return.
class PipelinedLedgerTest : public LedgerTest {
 protected:
  struct Sent {
    int target;
    ShuffleWireId id;
  };

  PipelinedLedgerTest() : LedgerTest(InstantRetryConfig()) {}

  void Attach(double ack_timeout_ms) {
    rec_.SetDeliveryChannel(
        [this](int target, const ShuffleWireId& id, const common::ByteBuffer&) {
          sent_.push_back({target, id});
          return true;
        },
        ack_timeout_ms);
  }

  void Release(const Sent& s, DeliveryStatus status = DeliveryStatus::kDelivered) {
    rec_.OnDeliveryAck(s.target, s.id, status);
  }

  // Registers a split on |producer| and stages one output (tag home + 1) per
  // entry of |homes|; returns the split id.
  std::int64_t StageSplit(int producer, std::initializer_list<int> homes) {
    auto split = MakePartition(producer, kNoTag, {1, 2});
    const std::int64_t id = rec_.RegisterSplit(*split, producer);
    for (int home : homes) {
      auto out = MakePartition(producer, static_cast<Tag>(home + 1), {10, 20});
      out->set_origin(id, 0);
      EXPECT_TRUE(rec_.StageShuffle(producer, home, out));
    }
    return id;
  }

  static bool SameId(const ShuffleWireId& a, const ShuffleWireId& b) {
    return a.split == b.split && a.epoch == b.epoch && a.seq == b.seq;
  }

  std::vector<Sent> sent_;
};

TEST_F(PipelinedLedgerTest, SecondProducerCommitsWhileFirstAcksAreOutstanding) {
  Attach(/*ack_timeout_ms=*/60000);
  const std::int64_t a = StageSplit(0, {0, 1});
  const std::int64_t b = StageSplit(1, {0});
  rec_.CommitEpoch(0, a, 0);
  ASSERT_EQ(sent_.size(), 2u);  // The window left; both acks are held.
  EXPECT_EQ(sent_[0].target, 0);
  EXPECT_EQ(sent_[1].target, 1);

  // The second producer stages and commits with the first's acks pending.
  auto late = MakePartition(1, /*tag=*/2, {30});
  late->set_origin(b, 0);
  EXPECT_TRUE(rec_.StageShuffle(1, 1, late));
  rec_.CommitEpoch(1, b, 0);
  ASSERT_EQ(sent_.size(), 4u);
  EXPECT_EQ(sent_[2].id.split, b);
  EXPECT_EQ(sent_[3].id.split, b);
  EXPECT_EQ(sent_[3].id.seq, 1u);
  EXPECT_FALSE(rec_.MergeSafe());

  for (const Sent& s : sent_) {
    Release(s);
  }
  EXPECT_TRUE(rec_.MergeSafe());
  EXPECT_EQ(rec_.stats().shuffle_retries, 0u);
  EXPECT_EQ(rec_.stats().duplicates_dropped, 0u);
}

TEST_F(PipelinedLedgerTest, MergeSafeStaysFalseUntilTheLastAckLands) {
  Attach(/*ack_timeout_ms=*/60000);
  const std::int64_t a = StageSplit(0, {0, 1, 1});
  rec_.CommitEpoch(0, a, 0);
  ASSERT_EQ(sent_.size(), 3u);
  EXPECT_FALSE(rec_.MergeSafe());
  Release(sent_[2]);
  EXPECT_FALSE(rec_.MergeSafe());
  Release(sent_[2]);  // A repeated ack settles nothing twice.
  Release(sent_[0]);
  EXPECT_FALSE(rec_.MergeSafe());
  EXPECT_FALSE(rec_.AllComplete());
  Release(sent_[1]);
  EXPECT_TRUE(rec_.MergeSafe());
  rec_.Sweep();
  EXPECT_EQ(sent_.size(), 3u);  // Nothing left to resend.
}

TEST_F(PipelinedLedgerTest, DroppedAckIsResentBySweepWithTheSameId) {
  Attach(/*ack_timeout_ms=*/0);  // Every outstanding ack is overdue at once.
  const std::int64_t a = StageSplit(0, {1});
  rec_.CommitEpoch(0, a, 0);
  ASSERT_EQ(sent_.size(), 1u);

  // The ack is lost; the next tick re-sends the entry under its original
  // (split, epoch, seq) so the receiver can dedup a copy that did land.
  rec_.Sweep();
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[1].target, sent_[0].target);
  EXPECT_TRUE(SameId(sent_[1].id, sent_[0].id));
  EXPECT_EQ(rec_.stats().ack_timeouts, 1u);
  EXPECT_EQ(rec_.stats().shuffle_retries, 1u);
  EXPECT_FALSE(rec_.MergeSafe());

  Release(sent_[1]);
  EXPECT_TRUE(rec_.MergeSafe());
  // The first send's ack straggles in after all: already settled, ignored.
  Release(sent_[0]);
  rec_.Sweep();
  EXPECT_EQ(sent_.size(), 2u);
  EXPECT_TRUE(rec_.MergeSafe());
  EXPECT_EQ(rec_.stats().duplicates_dropped, 0u);
  EXPECT_EQ(rec_.stats().redeliveries, 0u);
}

TEST_F(PipelinedLedgerTest, BackpressuredAckIsResentOnTheNextTick) {
  Attach(/*ack_timeout_ms=*/60000);
  const std::int64_t a = StageSplit(0, {1});
  rec_.CommitEpoch(0, a, 0);
  ASSERT_EQ(sent_.size(), 1u);
  Release(sent_[0], DeliveryStatus::kBackoff);  // Receiver heap full.
  EXPECT_FALSE(rec_.MergeSafe());
  rec_.Sweep();
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_TRUE(SameId(sent_[1].id, sent_[0].id));
  EXPECT_EQ(rec_.stats().shuffle_retries, 1u);
  EXPECT_EQ(rec_.stats().ack_timeouts, 0u);
  Release(sent_[1]);
  EXPECT_TRUE(rec_.MergeSafe());
}

TEST_F(PipelinedLedgerTest, AckArrivingAfterOnNodeLostDoesNotMarkDelivered) {
  Attach(/*ack_timeout_ms=*/60000);
  const std::int64_t a = StageSplit(0, {1, 1});
  rec_.CommitEpoch(0, a, 0);
  ASSERT_EQ(sent_.size(), 2u);
  Release(sent_[0]);  // Entry 0 lands on node 1; entry 1's ack is held.

  // Node 1 dies: the entry it held re-delivers and the one in flight to it
  // is re-targeted, both to the survivor and both under their original ids.
  rec_.membership().SetState(1, NodeLiveness::kDead);
  rec_.OnNodeLost(1);
  ASSERT_EQ(sent_.size(), 4u);
  EXPECT_EQ(sent_[2].target, 0);
  EXPECT_EQ(sent_[3].target, 0);
  EXPECT_TRUE(SameId(sent_[2].id, sent_[0].id));
  EXPECT_TRUE(SameId(sent_[3].id, sent_[1].id));
  EXPECT_FALSE(rec_.MergeSafe());

  // The dead node's acks straggle in, for the held send and for a resend of
  // the entry it had already taken: neither may mark anything delivered.
  Release(sent_[1]);
  Release(sent_[0]);
  EXPECT_FALSE(rec_.MergeSafe());

  Release(sent_[2]);
  EXPECT_FALSE(rec_.MergeSafe());
  Release(sent_[3]);
  EXPECT_TRUE(rec_.MergeSafe());
  EXPECT_EQ(rec_.stats().redeliveries, 1u);
  EXPECT_EQ(rec_.stats().duplicates_dropped, 0u);
}

TEST_F(PipelinedLedgerTest, RefusedSendIsDeliveredToTheDeadTarget) {
  // A send refused before the frame left (endpoint already closed) counts as
  // delivered to the dead node, like a push into a fenced runtime; the
  // node's death then re-marks it for redelivery.
  rec_.SetDeliveryChannel(
      [this](int target, const ShuffleWireId& id, const common::ByteBuffer&) {
        sent_.push_back({target, id});
        return target != 1;
      },
      /*ack_timeout_ms=*/60000);
  const std::int64_t a = StageSplit(0, {1});
  rec_.CommitEpoch(0, a, 0);
  ASSERT_EQ(sent_.size(), 1u);
  EXPECT_TRUE(rec_.MergeSafe());
  rec_.membership().SetState(1, NodeLiveness::kDead);
  rec_.OnNodeLost(1);
  ASSERT_EQ(sent_.size(), 2u);
  EXPECT_EQ(sent_[1].target, 0);
  Release(sent_[1]);
  EXPECT_TRUE(rec_.MergeSafe());
  EXPECT_EQ(rec_.stats().redeliveries, 1u);
}

TEST_F(PipelinedLedgerTest, ReexecutionUnderPressureRetriesOnLaterTicks) {
  // A re-executed split whose new owner OMEs stays pending and is retried by
  // later ticks, one attempt each, instead of sleeping inside Sweep(). The
  // ladder keeps its shape: shuffle_retries counted retries, then a new round.
  auto split = MakePartition(0, kNoTag, {1, 2, 3});
  rec_.RegisterSplit(*split, 0);
  heap1_.Poison();
  rec_.membership().SetState(0, NodeLiveness::kDead);
  rec_.OnNodeLost(0);  // First attempt, inside OnNodeLost's Sweep.
  for (int tick = 0; tick <= kShuffleRetries; ++tick) {
    rec_.Sweep();
  }
  EXPECT_TRUE(pushed_[1].empty());
  EXPECT_EQ(rec_.stats().shuffle_retries, static_cast<std::uint64_t>(kShuffleRetries));
  EXPECT_EQ(rec_.stats().splits_reexecuted, 0u);
  EXPECT_FALSE(rec_.MergeSafe());
}

// A poisoned target with no activation running and committed entries pending
// for it: it never OMEs on its own (its merges wait for these deliveries, so
// nothing runs there). Unless the ledger drains such a target, the entry
// retries forever and MergeSafe() never opens.
TEST_F(PipelinedLedgerTest, IdleTargetRefusingAFullRoundIsDrained) {
  heap1_.Poison();
  const std::int64_t a = StageSplit(0, {1});
  rec_.CommitEpoch(0, a, 0);  // The first attempt OMEs inside the commit.
  const int round = kShuffleRetries + 1;
  for (int tick = 1; tick < 2 * round && rec_.membership().Serving(1); ++tick) {
    rec_.Sweep();
  }
  ASSERT_EQ(rec_.membership().state(1), NodeLiveness::kDraining);
  EXPECT_TRUE(pushed_[1].empty());
  EXPECT_FALSE(rec_.MergeSafe());

  // The coordinator fences the draining node; its range moves to node 0.
  rec_.OnNodeLost(1);
  ASSERT_EQ(pushed_[0].size(), 1u);
  EXPECT_TRUE(rec_.MergeSafe());
  EXPECT_EQ(rec_.stats().duplicates_dropped, 0u);
}

// Over a transport the target refuses with backpressure acks. A node that
// runs an activation is left alone — it frees memory or OMEs on its own —
// and so is one on which a delivery landed during the round.
TEST_F(PipelinedLedgerTest, RefusingTargetIsDrainedOnlyWhenIdleAndNothingLands) {
  Attach(/*ack_timeout_ms=*/60000);
  const int round = kShuffleRetries + 1;
  const std::int64_t a = StageSplit(0, {1, 1});
  rec_.CommitEpoch(0, a, 0);
  ASSERT_EQ(sent_.size(), 2u);
  // Answers the newest send of entry |seq| with |status|; Sweep() then
  // resends a refused entry.
  const auto answer = [&](std::uint64_t seq, DeliveryStatus status) {
    for (auto it = sent_.rbegin(); it != sent_.rend(); ++it) {
      if (it->id.seq == seq) {
        Release(*it, status);
        break;
      }
    }
    rec_.Sweep();
  };

  busy_[1] = true;
  for (int i = 0; i < round; ++i) {
    answer(0, DeliveryStatus::kBackoff);
  }
  EXPECT_EQ(rec_.membership().state(1), NodeLiveness::kAlive);

  // Idle now, but entry 1 lands during entry 0's next round: the node still
  // takes deliveries, so refusing the rest of the round does not drain it.
  busy_[1] = false;
  answer(0, DeliveryStatus::kBackoff);
  answer(1, DeliveryStatus::kDelivered);
  for (int i = 1; i < round; ++i) {
    answer(0, DeliveryStatus::kBackoff);
  }
  EXPECT_EQ(rec_.membership().state(1), NodeLiveness::kAlive);

  // A whole round with nothing landing drains it.
  for (int i = 0; i < round; ++i) {
    answer(0, DeliveryStatus::kBackoff);
  }
  EXPECT_EQ(rec_.membership().state(1), NodeLiveness::kDraining);
}

}  // namespace
}  // namespace itask::core

// ---- The cluster's spill read faults reach the spill Load path ----

namespace itask::cluster {
namespace {

TEST(IoFailEnvTest, ReadFailureEnvInjectsOnLoadPath) {
  ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.real_pauses = false;
  cc.io_pool_size = 0;  // Synchronous I/O: failure surfaces inline.
  cc.faults.spill.read_p = 1.0;  // The plan ITASK_FAULTS=spillread=1 yields.
  Cluster cluster(cc);
  auto& spill = cluster.node(0).spill();
  common::ByteBuffer payload(std::vector<std::uint8_t>(1024, 0xab));
  const auto id = spill.Spill(payload);
  spill.Drain();
  EXPECT_THROW(spill.LoadAndRemove(id), std::runtime_error);
  EXPECT_GE(spill.Stats().injected_failures, 1u);
}

}  // namespace
}  // namespace itask::cluster
