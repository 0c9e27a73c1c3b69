// DataPartition hot-path regressions: TransferTo must not hold state_mu_
// across its OME backoff sleeps (a pressured destination used to wedge every
// spill pass touching the partition for up to 10 s), and EnsureResident's
// bounded reload-retry loop must count its attempts where chaos_run can see
// them (SpillStats::load_retries) while leaving the spill frame loadable.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>

#include "itask/typed_partition.h"
#include "memsim/managed_heap.h"
#include "serde/spill_manager.h"

namespace itask::core {
namespace {

struct U64Traits {
  using Tuple = std::uint64_t;
  static std::uint64_t SizeOf(const Tuple&) { return 16; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteVarint(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadVarint(); }
};
using U64Partition = VectorPartition<U64Traits>;

memsim::HeapConfig HeapOf(std::uint64_t capacity) {
  memsim::HeapConfig config;
  config.capacity_bytes = capacity;
  config.real_pauses = false;
  return config;
}

class PartitionTest : public ::testing::Test {
 protected:
  PartitionTest()
      : src_heap_(HeapOf(16 << 20)),
        spill_(std::filesystem::temp_directory_path(), "partition-test") {}

  std::shared_ptr<U64Partition> MakePartition(std::size_t tuples) {
    auto p = std::make_shared<U64Partition>(/*type=*/1, &src_heap_, &spill_);
    for (std::size_t i = 0; i < tuples; ++i) {
      p->Append(i);
    }
    return p;
  }

  memsim::ManagedHeap src_heap_;
  serde::SpillManager spill_;
};

// Regression: TransferTo used to hold the partition's state lock across its
// entire destination-OME retry loop (1 ms sleep x 10000 attempts), so any
// concurrent Spill/Purge/prefetch blocked for up to 10 s. The lock is now
// released across each sleep; a spill pass that sneaks into the gap must see
// the transferring_ flag and decline (the payload is empty mid-move — spilling
// it would corrupt resident_/spill_id_ under the transfer loop).
TEST_F(PartitionTest, TransferToReleasesLockAcrossPressureRetries) {
  constexpr std::size_t kTuples = 64;  // 64 x 16 = 1024 managed bytes.
  auto dp = MakePartition(kTuples);

  // Destination with room for the payload, but stuffed full by a blocker so
  // the transfer's DeserializeFrom throws OME until the blocker releases.
  memsim::ManagedHeap dest_heap(HeapOf(4 << 10));
  dest_heap.Allocate(4 << 10);

  std::atomic<bool> transferred{false};
  std::thread mover([&] {
    dp->TransferTo(&dest_heap, &spill_);
    transferred.store(true, std::memory_order_release);
  });

  // Give the transfer time to serialize the payload and enter its retry loop.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_FALSE(transferred.load(std::memory_order_acquire));

  // A concurrent spill pass must return promptly (the old code blocked here
  // until the transfer completed) and must refuse to touch the mid-move
  // payload.
  const auto spill_start = std::chrono::steady_clock::now();
  EXPECT_EQ(dp->Spill(), 0u);
  const auto spill_wait = std::chrono::steady_clock::now() - spill_start;
  EXPECT_LT(spill_wait, std::chrono::milliseconds(500));
  EXPECT_FALSE(transferred.load(std::memory_order_acquire));

  // Relieve the destination; the transfer must finish with the payload intact
  // and charged against the destination heap.
  dest_heap.Free(4 << 10);
  mover.join();
  ASSERT_TRUE(transferred.load(std::memory_order_acquire));
  EXPECT_TRUE(dp->resident());
  ASSERT_EQ(dp->TupleCount(), kTuples);
  for (std::size_t i = 0; i < kTuples; ++i) {
    EXPECT_EQ(dp->At(i), i);
  }
  EXPECT_EQ(dp->PayloadBytes(), kTuples * 16);
  EXPECT_EQ(src_heap_.live_bytes(), 0u);
  EXPECT_EQ(dest_heap.live_bytes(), kTuples * 16);

  // Post-transfer the partition spills/loads against the destination normally.
  EXPECT_EQ(dp->Spill(), kTuples * 16);
  dp->EnsureResident();
  EXPECT_EQ(dp->TupleCount(), kTuples);
}

// A persistent read fault exhausts EnsureResident's bounded retry loop; every
// re-attempt must be counted in SpillStats::load_retries and the spill frame
// must stay loadable once the fault clears (injected read failures throw
// before the entry or file is removed).
TEST_F(PartitionTest, EnsureResidentCountsLoadRetriesAndKeepsFrameLoadable) {
  constexpr std::size_t kTuples = 32;
  auto dp = MakePartition(kTuples);
  ASSERT_EQ(dp->Spill(), kTuples * 16);
  ASSERT_FALSE(dp->resident());

  chaos::SpillFaults faults;
  faults.read_p = 1.0;  // Every load attempt faults.
  spill_.SetFaults(faults);
  EXPECT_THROW(dp->EnsureResident(), std::runtime_error);
  // 8 attempts: the first 7 failures are retried (and counted), the 8th
  // propagates.
  EXPECT_EQ(spill_.Stats().load_retries, 7u);
  EXPECT_FALSE(dp->resident());

  spill_.SetFaults(chaos::SpillFaults{});
  dp->EnsureResident();
  EXPECT_TRUE(dp->resident());
  ASSERT_EQ(dp->TupleCount(), kTuples);
  for (std::size_t i = 0; i < kTuples; ++i) {
    EXPECT_EQ(dp->At(i), i);
  }
  EXPECT_EQ(spill_.Stats().load_retries, 7u);  // Clean loads add none.
}

// A transient fault (first load fails, second succeeds) must resolve inside
// EnsureResident without surfacing to the caller.
TEST_F(PartitionTest, EnsureResidentRetriesThroughTransientReadFault) {
  auto dp = MakePartition(8);

  chaos::SpillFaults faults;
  faults.every_nth = 2;  // Ops alternate ok/fail; the retry lands on ok.
  spill_.SetFaults(faults);
  ASSERT_GT(dp->Spill(), 0u);  // Op 1: the write, passes.
  dp->EnsureResident();        // Op 2 faults; the retry (op 3) loads clean.
  EXPECT_TRUE(dp->resident());
  EXPECT_EQ(dp->TupleCount(), 8u);
  EXPECT_GE(spill_.Stats().load_retries, 1u);
}

}  // namespace
}  // namespace itask::core
