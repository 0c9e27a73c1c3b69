#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <future>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/byte_buffer.h"
#include "common/rng.h"
#include "io/frame_codec.h"
#include "io/io_executor.h"
#include "serde/spill_manager.h"

namespace itask::io {
namespace {

common::ByteBuffer RandomBuffer(common::Rng& rng, std::size_t size) {
  std::vector<std::uint8_t> data(size);
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  return common::ByteBuffer(std::move(data));
}

// Serialized partitions mix byte runs (zero padding, repeated prefixes) with
// high-entropy content; this generator produces both.
common::ByteBuffer RunnyBuffer(common::Rng& rng, std::size_t target) {
  std::vector<std::uint8_t> data;
  data.reserve(target);
  while (data.size() < target) {
    if (rng.NextBelow(2) == 0) {
      const std::size_t len = 1 + rng.NextBelow(64);
      const auto byte = static_cast<std::uint8_t>(rng.NextBelow(256));
      data.insert(data.end(), len, byte);
    } else {
      const std::size_t len = 1 + rng.NextBelow(32);
      for (std::size_t i = 0; i < len; ++i) {
        data.push_back(static_cast<std::uint8_t>(rng.NextBelow(256)));
      }
    }
  }
  data.resize(target);
  return common::ByteBuffer(std::move(data));
}

// ---------------------------------------------------------------------------
// FrameCodec

// Fixed header bytes of a frame around an |n|-byte payload: magic, version
// and flags, the raw and payload sizes as varints, and the 8-byte checksum.
std::size_t FrameHeaderBytes(std::size_t n) {
  std::size_t varint = 1;
  for (std::size_t v = n; v >= 0x80; v >>= 7) {
    ++varint;
  }
  return 4 + 2 * varint + 8;
}

TEST(FrameCodecTest, RoundTripIncompressible) {
  common::Rng rng(42);
  const common::ByteBuffer raw = RandomBuffer(rng, 4096);
  common::ByteBuffer framed;
  const FrameInfo enc = FrameCodec::Encode(raw, &framed);
  EXPECT_EQ(enc.raw_bytes, raw.size());
  EXPECT_EQ(enc.framed_bytes, framed.size());
  EXPECT_EQ(framed.size(), raw.size() + FrameHeaderBytes(raw.size()));

  common::ByteBuffer out;
  const FrameInfo dec = FrameCodec::Decode(framed, &out);
  EXPECT_EQ(dec.raw_bytes, raw.size());
  EXPECT_EQ(out.bytes(), raw.bytes());
}

TEST(FrameCodecTest, RunHeavyBufferRoundTripsVerbatim) {
  // Long byte runs are stored as they are: the frame is the payload plus the
  // header, byte for byte.
  std::vector<std::uint8_t> data(8192, 0);
  for (std::size_t i = 0; i < data.size(); i += 97) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const common::ByteBuffer raw(std::move(data));
  common::ByteBuffer framed;
  const FrameInfo enc = FrameCodec::Encode(raw, &framed);
  const std::size_t header = FrameHeaderBytes(raw.size());
  EXPECT_EQ(enc.framed_bytes, raw.size() + header);
  ASSERT_EQ(framed.size(), raw.size() + header);
  EXPECT_TRUE(std::equal(raw.bytes().begin(), raw.bytes().end(),
                         framed.bytes().begin() + static_cast<std::ptrdiff_t>(header)));

  common::ByteBuffer out;
  FrameCodec::Decode(framed, &out);
  EXPECT_EQ(out.bytes(), raw.bytes());
}

TEST(FrameCodecTest, RejectsUnknownFlags) {
  // Flag 1 once meant an RLE payload; no encoder writes it any more.
  const common::ByteBuffer raw(std::vector<std::uint8_t>(4096, 0xAA));
  common::ByteBuffer framed;
  FrameCodec::Encode(raw, &framed);
  ASSERT_EQ(framed.bytes()[3], FrameCodec::kFlagRaw);
  framed.bytes()[3] = 0x1;
  common::ByteBuffer out;
  EXPECT_THROW(FrameCodec::Decode(framed, &out), std::runtime_error);
}

TEST(FrameCodecTest, RoundTripEmpty) {
  common::ByteBuffer raw;
  common::ByteBuffer framed;
  const FrameInfo enc = FrameCodec::Encode(raw, &framed);
  EXPECT_EQ(enc.raw_bytes, 0u);
  common::ByteBuffer out;
  FrameCodec::Decode(framed, &out);
  EXPECT_TRUE(out.bytes().empty());
}

TEST(FrameCodecTest, DetectsCorruption) {
  common::Rng rng(7);
  const common::ByteBuffer raw = RunnyBuffer(rng, 2048);
  common::ByteBuffer framed;
  FrameCodec::Encode(raw, &framed);

  // Bad magic.
  {
    common::ByteBuffer bad = framed;
    bad.bytes()[0] ^= 0xFF;
    common::ByteBuffer out;
    EXPECT_THROW(FrameCodec::Decode(bad, &out), std::runtime_error);
  }
  // Flipped payload byte fails the checksum.
  {
    common::ByteBuffer bad = framed;
    bad.bytes().back() ^= 0x01;
    common::ByteBuffer out;
    EXPECT_THROW(FrameCodec::Decode(bad, &out), std::runtime_error);
  }
  // Truncation.
  {
    common::ByteBuffer bad = framed;
    bad.bytes().resize(bad.size() / 2);
    common::ByteBuffer out;
    EXPECT_THROW(FrameCodec::Decode(bad, &out), std::runtime_error);
  }
  // Empty input.
  {
    common::ByteBuffer out;
    EXPECT_THROW(FrameCodec::Decode(common::ByteBuffer(), &out), std::runtime_error);
  }
}

TEST(FrameCodecTest, RandomizedRoundTripProperty) {
  common::Rng rng(20260806);
  for (int i = 0; i < 200; ++i) {
    const std::size_t size = rng.NextBelow(4096);
    const common::ByteBuffer raw =
        (i % 2 == 0) ? RunnyBuffer(rng, size) : RandomBuffer(rng, size);
    common::ByteBuffer framed;
    const FrameInfo enc = FrameCodec::Encode(raw, &framed);
    ASSERT_EQ(enc.raw_bytes, raw.size());
    common::ByteBuffer out;
    const FrameInfo dec = FrameCodec::Decode(framed, &out);
    ASSERT_EQ(dec.raw_bytes, raw.size());
    ASSERT_EQ(dec.framed_bytes, enc.framed_bytes);
    ASSERT_EQ(out.bytes(), raw.bytes());
  }
}

// ---------------------------------------------------------------------------
// IoExecutor

TEST(IoExecutorTest, PoolZeroRunsInline) {
  IoExecutor exec(0);
  EXPECT_FALSE(exec.async());
  bool ran = false;
  exec.Submit(IoClass::kWrite, 0, [&] { ran = true; });
  EXPECT_TRUE(ran);  // Inline: done before Submit returns.
  const IoExecutorStats stats = exec.Stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.executed, 1u);
}

TEST(IoExecutorTest, DrainsLoadsBeforeWritesThenByPriority) {
  IoExecutor exec(1);
  ASSERT_TRUE(exec.async());

  // Occupy the single worker so the queue builds up in a known state.
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  exec.Submit(IoClass::kLoad, -1000, [opened] { opened.wait(); });

  std::mutex mu;
  std::vector<int> order;
  const auto record = [&](int tag) {
    return [&mu, &order, tag] {
      std::lock_guard lock(mu);
      order.push_back(tag);
    };
  };
  // Submitted deliberately out of drain order.
  exec.Submit(IoClass::kWrite, 5, record(3));  // Write, far from finish line.
  exec.Submit(IoClass::kWrite, 0, record(2));  // Write, near finish line.
  exec.Submit(IoClass::kLoad, 7, record(1));   // Loads beat every write.
  exec.Submit(IoClass::kWrite, 5, record(4));  // FIFO within equal (class, prio).

  gate.set_value();
  exec.Drain();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(IoExecutorTest, TryCancelRemovesQueuedJobOnly) {
  IoExecutor exec(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  const IoExecutor::JobId running =
      exec.Submit(IoClass::kLoad, 0, [opened] { opened.wait(); });

  std::atomic<bool> ran{false};
  // Give the worker a beat to dequeue the gate job so |running| is inflight.
  while (exec.queue_depth() != 0) {
    std::this_thread::yield();
  }
  const IoExecutor::JobId queued =
      exec.Submit(IoClass::kWrite, 0, [&ran] { ran = true; });

  EXPECT_TRUE(exec.TryCancel(queued));
  EXPECT_FALSE(exec.TryCancel(queued));   // Already gone.
  EXPECT_FALSE(exec.TryCancel(running));  // Already started.
  EXPECT_FALSE(exec.TryCancel(999999));   // Never existed.

  gate.set_value();
  exec.Drain();
  EXPECT_FALSE(ran.load());
  const IoExecutorStats stats = exec.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.executed, 1u);
}

// ---------------------------------------------------------------------------
// Spill store (serde::SpillManager). SpillManagerTest runs the store inline
// (pool 0); the AsyncSpill* suites give it a background I/O pool.

using serde::SpillManager;
using serde::SpillStats;

template <int kPoolSize>
class SpillStoreTest : public ::testing::Test {
 protected:
  SpillManager spill_{std::filesystem::temp_directory_path(), "io-test", kPoolSize};
};
using SpillManagerTest = SpillStoreTest<0>;
using AsyncSpillTest = SpillStoreTest<2>;

std::size_t FilesIn(const std::filesystem::path& dir) {
  return static_cast<std::size_t>(std::distance(std::filesystem::directory_iterator(dir),
                                                std::filesystem::directory_iterator()));
}

// Blocks the store's only I/O worker until the returned promise is set, so
// writes submitted meanwhile stay queued (cancellable).
std::promise<void> JamWorker(SpillManager& spill) {
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  spill.executor().Submit(IoClass::kLoad, -1000, [opened] { opened.wait(); });
  return gate;
}

TEST_F(SpillManagerTest, SpillLoadRoundTrip) {
  common::Rng rng(1);
  const common::ByteBuffer payload = RunnyBuffer(rng, 64 << 10);
  const auto id = spill_.Spill(payload);
  EXPECT_EQ(spill_.LoadAndRemove(id).bytes(), payload.bytes());
}

TEST_F(SpillManagerTest, StatsTrackBytes) {
  const common::ByteBuffer payload(std::vector<std::uint8_t>(1000, 0x5a));
  const auto id1 = spill_.Spill(payload);
  const auto id2 = spill_.Spill(payload);
  SpillStats stats = spill_.Stats();
  EXPECT_EQ(stats.spilled_bytes, 2000u);
  EXPECT_EQ(stats.spill_count, 2u);
  EXPECT_EQ(stats.live_files, 2u);
  EXPECT_EQ(stats.live_file_bytes, 2000u);
  // Inline writes frame every block verbatim: a header on top of each payload.
  EXPECT_EQ(stats.raw_bytes, 2000u);
  EXPECT_GT(stats.framed_bytes, stats.raw_bytes);
  spill_.LoadAndRemove(id1);
  spill_.Remove(id2);
  stats = spill_.Stats();
  EXPECT_EQ(stats.loaded_bytes, 1000u);
  EXPECT_EQ(stats.load_count, 1u);
  EXPECT_EQ(stats.loads_from_disk, 1u);
  EXPECT_EQ(stats.live_files, 0u);
  EXPECT_EQ(stats.live_file_bytes, 0u);
  EXPECT_EQ(stats.read_stall.count, 1u);
}

TEST_F(SpillManagerTest, LoadUnknownIdThrows) {
  EXPECT_THROW(spill_.LoadAndRemove(12345), std::runtime_error);
}

TEST_F(SpillManagerTest, LoadedFileIsRemovedFromDisk) {
  const auto id = spill_.Spill(common::ByteBuffer(std::vector<std::uint8_t>(10, 1)));
  EXPECT_EQ(FilesIn(spill_.directory()), 1u);
  spill_.LoadAndRemove(id);
  EXPECT_EQ(FilesIn(spill_.directory()), 0u);
  EXPECT_THROW(spill_.LoadAndRemove(id), std::runtime_error);
}

TEST(SpillManagerLifetimeTest, DirectoryRemovedOnDestruction) {
  std::filesystem::path dir;
  {
    SpillManager spill(std::filesystem::temp_directory_path(), "lifetime", /*pool_size=*/2);
    dir = spill.directory();
    EXPECT_TRUE(std::filesystem::exists(dir));
    // Never loaded: the destructor drains the write, then removes the file.
    spill.Spill(common::ByteBuffer(std::vector<std::uint8_t>(4096, 3)));
  }
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST_F(AsyncSpillTest, SpillLoadRoundTrip) {
  common::Rng rng(1);
  const common::ByteBuffer payload = RunnyBuffer(rng, 64 << 10);
  const auto id = spill_.Spill(payload);
  spill_.Drain();
  const common::ByteBuffer loaded = spill_.LoadAndRemove(id);
  EXPECT_EQ(loaded.bytes(), payload.bytes());
  // Stats report raw payload units, codec-agnostic.
  const SpillStats stats = spill_.Stats();
  EXPECT_EQ(stats.spilled_bytes, payload.size());
  EXPECT_EQ(stats.loaded_bytes, payload.size());
  EXPECT_EQ(stats.loads_from_disk, 1u);
  EXPECT_EQ(stats.live_files, 0u);
  EXPECT_EQ(stats.live_file_bytes, 0u);
}

TEST_F(AsyncSpillTest, LoadUnknownIdThrows) {
  EXPECT_THROW(spill_.LoadAndRemove(12345), std::runtime_error);
}

TEST_F(AsyncSpillTest, LoadAsyncDeliversPayload) {
  ASSERT_TRUE(spill_.SupportsAsync());
  common::Rng rng(2);
  const common::ByteBuffer payload = RandomBuffer(rng, 8 << 10);
  const auto id = spill_.Spill(payload);
  std::future<common::ByteBuffer> f = spill_.LoadAsync(id);
  EXPECT_EQ(f.get().bytes(), payload.bytes());
}

TEST(AsyncSpillCancelTest, ImmediateLoadCancelsQueuedWrite) {
  SpillManager spill(std::filesystem::temp_directory_path(), "io-cancel", /*pool_size=*/1);
  std::promise<void> gate = JamWorker(spill);

  common::Rng rng(3);
  const common::ByteBuffer payload = RunnyBuffer(rng, 16 << 10);
  const auto id = spill.Spill(payload);
  const common::ByteBuffer loaded = spill.LoadAndRemove(id);
  gate.set_value();
  spill.Drain();

  EXPECT_EQ(loaded.bytes(), payload.bytes());
  const SpillStats stats = spill.Stats();
  EXPECT_EQ(stats.cancelled_writes, 1u);
  EXPECT_EQ(stats.cancelled_write_bytes, payload.size());
  EXPECT_EQ(stats.loads_from_cache, 1u);
  EXPECT_EQ(stats.load_count, 1u);
  // The disk was never touched: nothing framed, no file written.
  EXPECT_EQ(stats.raw_bytes, 0u);
  EXPECT_EQ(stats.write_ms, 0.0);
  EXPECT_EQ(FilesIn(spill.directory()), 0u);
}

TEST(AsyncSpillFailureTest, FailedWriteSurfacesOnceThenServesFromCache) {
  for (int pool : {0, 1}) {
    SpillManager spill(std::filesystem::temp_directory_path(), "io-fail", pool);
    serde::SpillFailureInjection inject;
    inject.write_probability = 1.0;
    spill.SetFailureInjection(inject);

    common::Rng rng(4);
    const common::ByteBuffer payload = RunnyBuffer(rng, 4 << 10);
    const auto id = spill.Spill(payload);
    spill.Drain();

    EXPECT_EQ(spill.Stats().write_failures, 1u) << "pool " << pool;
    EXPECT_EQ(FilesIn(spill.directory()), 0u) << "pool " << pool;  // Partial file removed.
    // The failure surfaces exactly once, then the cached payload is served —
    // the data is never lost.
    EXPECT_THROW(spill.LoadAndRemove(id), std::runtime_error) << "pool " << pool;
    const common::ByteBuffer loaded = spill.LoadAndRemove(id);
    EXPECT_EQ(loaded.bytes(), payload.bytes()) << "pool " << pool;
    // No double-counting: one spill accepted, one load served.
    const SpillStats stats = spill.Stats();
    EXPECT_EQ(stats.spill_count, 1u) << "pool " << pool;
    EXPECT_EQ(stats.load_count, 1u) << "pool " << pool;
    EXPECT_EQ(stats.loads_from_cache, 1u) << "pool " << pool;
    EXPECT_EQ(stats.live_files, 0u) << "pool " << pool;
  }
}

TEST(AsyncSpillFailureTest, InjectedReadFailureIsRetryable) {
  for (int pool : {0, 1}) {
    SpillManager spill(std::filesystem::temp_directory_path(), "io-readfail", pool);

    common::Rng rng(5);
    const common::ByteBuffer payload = RunnyBuffer(rng, 4 << 10);
    const auto id = spill.Spill(payload);
    spill.Drain();  // Durable before the read injection arms.

    serde::SpillFailureInjection inject;
    inject.read_probability = 1.0;
    spill.SetFailureInjection(inject);
    EXPECT_THROW(spill.LoadAndRemove(id), std::runtime_error) << "pool " << pool;

    spill.SetFailureInjection(serde::SpillFailureInjection{});
    const common::ByteBuffer loaded = spill.LoadAndRemove(id);
    EXPECT_EQ(loaded.bytes(), payload.bytes()) << "pool " << pool;
    const SpillStats stats = spill.Stats();
    EXPECT_EQ(stats.injected_failures, 1u) << "pool " << pool;
    EXPECT_EQ(stats.load_count, 1u) << "pool " << pool;
  }
}

TEST(AsyncSpillRemoveTest, RemoveCancelsQueuedAndDropsDurable) {
  SpillManager spill(std::filesystem::temp_directory_path(), "io-remove", /*pool_size=*/1);

  // Queued entry: Remove cancels the pending write, disk untouched.
  {
    std::promise<void> gate = JamWorker(spill);
    const auto id = spill.Spill(common::ByteBuffer(std::vector<std::uint8_t>(1024, 1)));
    spill.Remove(id);
    gate.set_value();
    spill.Drain();
    EXPECT_EQ(spill.Stats().raw_bytes, 0u);
    EXPECT_EQ(FilesIn(spill.directory()), 0u);
    EXPECT_THROW(spill.LoadAndRemove(id), std::runtime_error);
  }
  // Durable entry: Remove deletes the file.
  {
    const auto id = spill.Spill(common::ByteBuffer(std::vector<std::uint8_t>(1024, 2)));
    spill.Drain();
    EXPECT_EQ(FilesIn(spill.directory()), 1u);
    spill.Remove(id);
    EXPECT_EQ(spill.Stats().live_files, 0u);
    EXPECT_EQ(FilesIn(spill.directory()), 0u);
    EXPECT_THROW(spill.LoadAndRemove(id), std::runtime_error);
  }
}

// Property: across random interleavings of spill / immediate load (cancelled
// write) / drained load (disk round trip) / injected faults, the store with a
// background pool returns exactly what the inline store returns for the same
// operation stream, and accounts the same raw bytes and op counts.
TEST(AsyncSpillPropertyTest, AsyncMatchesSyncAcrossInterleavings) {
  common::Rng rng(98765);
  for (int round = 0; round < 8; ++round) {
    SpillManager inline_store(std::filesystem::temp_directory_path(), "io-prop-inline", 0);
    SpillManager pooled_store(std::filesystem::temp_directory_path(), "io-prop-pooled", 2);
    if (round >= 4) {
      serde::SpillFailureInjection inject;
      inject.every_nth = 3;
      inject.seed = 1000u + static_cast<std::uint64_t>(round);
      inline_store.SetFailureInjection(inject);
      pooled_store.SetFailureInjection(inject);
    }

    struct Live {
      std::uint64_t inline_id;
      std::uint64_t pooled_id;
      std::vector<std::uint8_t> payload;
    };
    // A load may surface injected faults (each surfaces as an error, the
    // data is never lost); keep retrying — the shared nth-op counter also
    // advances under concurrent background writes.
    const auto load_with_retries = [](SpillManager& spill, std::uint64_t id) {
      for (int attempt = 0;; ++attempt) {
        try {
          return spill.LoadAndRemove(id);
        } catch (const std::runtime_error&) {
          if (attempt >= 8) {
            throw;
          }
        }
      }
    };
    const auto load_both = [&](const Live& entry) {
      ASSERT_EQ(load_with_retries(inline_store, entry.inline_id).bytes(), entry.payload);
      ASSERT_EQ(load_with_retries(pooled_store, entry.pooled_id).bytes(), entry.payload);
    };
    std::vector<Live> live;
    for (int op = 0; op < 40; ++op) {
      const std::uint64_t kind = rng.NextBelow(4);
      if (kind <= 1 || live.empty()) {
        const common::ByteBuffer payload = RunnyBuffer(rng, 512 + rng.NextBelow(8192));
        live.push_back({inline_store.Spill(payload), pooled_store.Spill(payload), payload.bytes()});
        if (rng.NextBelow(2) == 0) {
          pooled_store.Drain();  // Force the disk path for some entries.
        }
      } else {
        const std::size_t pick = rng.NextBelow(live.size());
        const Live entry = live[pick];
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
        load_both(entry);
      }
    }
    for (const Live& entry : live) {
      load_both(entry);
    }
    const SpillStats inline_stats = inline_store.Stats();
    const SpillStats pooled_stats = pooled_store.Stats();
    EXPECT_EQ(pooled_stats.spilled_bytes, inline_stats.spilled_bytes);
    EXPECT_EQ(pooled_stats.loaded_bytes, inline_stats.loaded_bytes);
    EXPECT_EQ(pooled_stats.spill_count, inline_stats.spill_count);
    EXPECT_EQ(pooled_stats.load_count, inline_stats.load_count);
    EXPECT_EQ(inline_stats.live_files, 0u);
    EXPECT_EQ(pooled_stats.live_files, 0u);
  }
}

// Stress: concurrent spill/load/remove from several threads against one
// store. Every loaded payload must match its original; nothing leaks.
TEST(AsyncSpillStressTest, ConcurrentSpillLoadRemove) {
  SpillManager spill(std::filesystem::temp_directory_path(), "io-stress", /*pool_size=*/2);

  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&spill, &mismatches, t] {
      common::Rng rng(7000u + static_cast<std::uint64_t>(t));
      struct Owned {
        std::uint64_t id;
        std::vector<std::uint8_t> payload;
      };
      std::vector<Owned> owned;
      for (int op = 0; op < kOpsPerThread; ++op) {
        const std::uint64_t kind = rng.NextBelow(5);
        if (kind <= 2 || owned.empty()) {
          const common::ByteBuffer payload = RunnyBuffer(rng, 256 + rng.NextBelow(4096));
          owned.push_back({spill.Spill(payload), payload.bytes()});
        } else if (kind == 3) {
          const std::size_t pick = rng.NextBelow(owned.size());
          const Owned entry = owned[pick];
          owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(pick));
          if (spill.LoadAndRemove(entry.id).bytes() != entry.payload) {
            ++mismatches;
          }
        } else {
          const std::size_t pick = rng.NextBelow(owned.size());
          spill.Remove(owned[pick].id);
          owned.erase(owned.begin() + static_cast<std::ptrdiff_t>(pick));
        }
      }
      for (const Owned& entry : owned) {
        if (spill.LoadAndRemove(entry.id).bytes() != entry.payload) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  spill.Drain();
  const SpillStats stats = spill.Stats();
  EXPECT_EQ(stats.live_files, 0u);
  EXPECT_EQ(stats.live_file_bytes, 0u);
  EXPECT_EQ(FilesIn(spill.directory()), 0u);
}

}  // namespace
}  // namespace itask::io
