#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "memsim/managed_allocator.h"
#include "memsim/managed_heap.h"

namespace itask::memsim {
namespace {

HeapConfig FastConfig(std::uint64_t capacity) {
  HeapConfig config;
  config.capacity_bytes = capacity;
  config.real_pauses = false;  // Accounted but not spun — fast tests.
  return config;
}

TEST(ManagedHeapTest, AllocateAndFreeAccounting) {
  ManagedHeap heap(FastConfig(1 << 20));
  heap.Allocate(1000);
  EXPECT_EQ(heap.live_bytes(), 1000u);
  heap.Free(400);
  EXPECT_EQ(heap.live_bytes(), 600u);
  EXPECT_EQ(heap.garbage_bytes(), 400u);
  EXPECT_EQ(heap.used_bytes(), 1000u);
}

TEST(ManagedHeapTest, CollectReclaimsGarbageOnly) {
  ManagedHeap heap(FastConfig(1 << 20));
  heap.Allocate(1000);
  heap.Free(400);
  const GcEvent event = heap.Collect();
  EXPECT_EQ(event.reclaimed_bytes, 400u);
  EXPECT_EQ(heap.live_bytes(), 600u);
  EXPECT_EQ(heap.garbage_bytes(), 0u);
  EXPECT_FALSE(event.useless);
}

TEST(ManagedHeapTest, GcTriggeredByAllocationPressure) {
  ManagedHeap heap(FastConfig(1000));
  heap.Allocate(600);
  heap.Free(600);         // All garbage.
  heap.Allocate(600);     // Does not fit until the garbage is collected.
  EXPECT_EQ(heap.live_bytes(), 600u);
  EXPECT_GE(heap.Stats().gc_count, 1u);
}

TEST(ManagedHeapTest, OutOfMemoryWhenLiveExceedsCapacity) {
  ManagedHeap heap(FastConfig(1000));
  heap.Allocate(900);
  EXPECT_THROW(heap.Allocate(200), OutOfMemoryError);
  EXPECT_EQ(heap.Stats().ome_count, 1u);
  // Live data is untouched by the failed allocation.
  EXPECT_EQ(heap.live_bytes(), 900u);
}

TEST(ManagedHeapTest, TryAllocateDoesNotThrow) {
  ManagedHeap heap(FastConfig(1000));
  EXPECT_TRUE(heap.TryAllocate(500));
  EXPECT_FALSE(heap.TryAllocate(600));
  EXPECT_EQ(heap.Stats().ome_count, 0u);
}

TEST(ManagedHeapTest, LugcDetectedWhenHeapFullOfLiveData) {
  HeapConfig config = FastConfig(1000);
  config.lugc_free_fraction = 0.10;
  ManagedHeap heap(config);
  heap.Allocate(950);  // 95% live.
  const GcEvent event = heap.Collect();
  EXPECT_TRUE(event.useless);
  EXPECT_EQ(heap.Stats().lugc_count, 1u);
}

TEST(ManagedHeapTest, GcNotUselessWithHeadroom) {
  HeapConfig config = FastConfig(1000);
  config.lugc_free_fraction = 0.10;
  ManagedHeap heap(config);
  heap.Allocate(500);
  EXPECT_FALSE(heap.Collect().useless);
  EXPECT_EQ(heap.Stats().lugc_count, 0u);
}

TEST(ManagedHeapTest, ListenersSeeLugcEvents) {
  HeapConfig config = FastConfig(1000);
  ManagedHeap heap(config);
  std::atomic<int> lugc_seen{0};
  heap.AddGcListener([&](const GcEvent& e) {
    if (e.useless) {
      ++lugc_seen;
    }
  });
  heap.Allocate(950);
  heap.Collect();
  EXPECT_EQ(lugc_seen.load(), 1);
}

TEST(ManagedHeapTest, PauseAccountedProportionalToScannedBytes) {
  HeapConfig config = FastConfig(10 << 20);
  config.gc_base_ns = 0;
  config.gc_ns_per_byte = 1.0;
  ManagedHeap heap(config);
  heap.Allocate(1 << 20);
  const GcEvent small = heap.Collect();
  heap.Allocate(4 << 20);
  const GcEvent big = heap.Collect();
  EXPECT_GT(big.pause_ns, small.pause_ns * 3);
}

TEST(ManagedHeapTest, GrowHeadroomIgnoresGarbage) {
  HeapConfig config = FastConfig(1000);
  config.grow_free_fraction = 0.20;
  ManagedHeap heap(config);
  heap.Allocate(900);
  EXPECT_FALSE(heap.HasGrowHeadroom());
  heap.Free(500);  // Garbage, but collectable: headroom counts it as free.
  EXPECT_TRUE(heap.HasGrowHeadroom());
}

TEST(ManagedHeapTest, PeakTracksHighWaterMark) {
  ManagedHeap heap(FastConfig(1 << 20));
  heap.Allocate(1000);
  heap.Free(1000);
  heap.Collect();
  heap.Allocate(200);
  EXPECT_EQ(heap.Stats().peak_used_bytes, 1000u);
}

TEST(ManagedHeapTest, OverFreeIsClamped) {
  ManagedHeap heap(FastConfig(1 << 20));
  heap.Allocate(100);
  heap.Free(500);  // Bug in caller: clamped, logged, no underflow.
  EXPECT_EQ(heap.live_bytes(), 0u);
  EXPECT_EQ(heap.garbage_bytes(), 100u);
}

TEST(ManagedHeapTest, ConcurrentAllocFreeBalances) {
  ManagedHeap heap(FastConfig(64 << 20));
  constexpr int kThreads = 8;
  constexpr int kIters = 5'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        heap.Allocate(64);
        heap.Free(64);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  heap.Collect();
  EXPECT_EQ(heap.live_bytes(), 0u);
  EXPECT_EQ(heap.garbage_bytes(), 0u);
}

// TryAllocate passes WaitWhileCollecting() and then claims without gc_mu_,
// so a claim can land inside Collect()'s pause (DESIGN.md §5). The
// accounting tolerates it: Collect subtracts exactly the garbage it scanned.
TEST(ManagedHeapTest, ClaimsRacingCollectionsKeepAccountingExact) {
  constexpr std::uint64_t kCapacity = 4 << 20;
  ManagedHeap heap(FastConfig(kCapacity));
  constexpr int kMutators = 4;
  constexpr int kOps = 20'000;
  std::atomic<int> running{kMutators};
  std::atomic<std::uint64_t> outstanding{0};
  std::atomic<std::uint64_t> max_garbage{0};
  std::vector<std::thread> mutators;
  for (int t = 0; t < kMutators; ++t) {
    mutators.emplace_back([&, t] {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(t + 1);
      std::vector<std::uint64_t> held;
      for (int op = 0; op < kOps; ++op) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t bytes = 64 + x % 8192;
        if (held.size() < 64 && x % 3 != 0) {
          if (heap.TryAllocate(bytes)) {
            held.push_back(bytes);
            outstanding.fetch_add(bytes);
          }
        } else if (!held.empty()) {
          heap.Free(held.back());
          outstanding.fetch_sub(held.back());
          held.pop_back();
        }
        const std::uint64_t garbage = heap.garbage_bytes();
        std::uint64_t seen = max_garbage.load();
        while (garbage > seen && !max_garbage.compare_exchange_weak(seen, garbage)) {
        }
      }
      running.fetch_sub(1);
    });
  }
  std::thread collector([&] {
    while (running.load() > 0) {
      heap.Collect();
    }
  });
  for (auto& t : mutators) {
    t.join();
  }
  collector.join();
  EXPECT_EQ(heap.live_bytes(), outstanding.load());
  EXPECT_LE(max_garbage.load(), kCapacity);  // A wrapped counter reads near 2^64.
  EXPECT_LE(heap.Stats().peak_used_bytes, kCapacity);
  EXPECT_GT(heap.Stats().gc_count, 0u);
}

TEST(HeapChargeTest, ReleasesOnDestruction) {
  ManagedHeap heap(FastConfig(1 << 20));
  {
    HeapCharge charge(&heap, 500);
    EXPECT_EQ(heap.live_bytes(), 500u);
  }
  EXPECT_EQ(heap.live_bytes(), 0u);
  EXPECT_EQ(heap.garbage_bytes(), 500u);
}

TEST(HeapChargeTest, MoveTransfersOwnership) {
  ManagedHeap heap(FastConfig(1 << 20));
  HeapCharge a(&heap, 100);
  HeapCharge b = std::move(a);
  EXPECT_EQ(a.bytes(), 0u);
  EXPECT_EQ(b.bytes(), 100u);
  EXPECT_EQ(heap.live_bytes(), 100u);
}

TEST(HeapChargeTest, ShrinkPartiallyReleases) {
  ManagedHeap heap(FastConfig(1 << 20));
  HeapCharge charge(&heap, 1000);
  charge.Shrink(300);
  EXPECT_EQ(charge.bytes(), 700u);
  EXPECT_EQ(heap.live_bytes(), 700u);
  charge.Shrink(10'000);  // Clamped to remaining.
  EXPECT_EQ(charge.bytes(), 0u);
}

TEST(ManagedAllocatorTest, VectorChargesHeap) {
  ManagedHeap heap(FastConfig(1 << 20));
  {
    std::vector<std::uint64_t, ManagedAllocator<std::uint64_t>> v{
        ManagedAllocator<std::uint64_t>(&heap)};
    v.resize(1000);
    EXPECT_GE(heap.live_bytes(), 8000u);
  }
  EXPECT_EQ(heap.live_bytes(), 0u);
}

TEST(ManagedAllocatorTest, ThrowsOmeOnExhaustion) {
  ManagedHeap heap(FastConfig(4096));
  std::vector<std::uint64_t, ManagedAllocator<std::uint64_t>> v{
      ManagedAllocator<std::uint64_t>(&heap)};
  EXPECT_THROW(v.resize(10'000), OutOfMemoryError);
}

}  // namespace
}  // namespace itask::memsim
