// Micro-benchmarks of the substrates (google-benchmark): managed-heap
// accounting, serde round-trips, spill I/O, and partition operations. These
// establish that the bookkeeping the IRS adds per tuple is small relative to
// real task work (the paper's claim that ITask overhead is negligible except
// when no parallelism is exploitable).
#include <benchmark/benchmark.h>

#include <filesystem>

#include "common/rng.h"
#include "io/frame_codec.h"
#include "itask/typed_partition.h"
#include "memsim/managed_heap.h"
#include "obs/histogram.h"
#include "obs/tracer.h"
#include "serde/serializer.h"
#include "serde/spill_manager.h"

namespace {

using namespace itask;

memsim::HeapConfig QuietHeap() {
  memsim::HeapConfig config;
  config.capacity_bytes = 256ULL << 20;
  config.real_pauses = false;
  return config;
}

void BM_HeapAllocateFree(benchmark::State& state) {
  memsim::ManagedHeap heap(QuietHeap());
  for (auto _ : state) {
    heap.Allocate(64);
    heap.Free(64);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HeapAllocateFree);

void BM_HeapCollect(benchmark::State& state) {
  memsim::ManagedHeap heap(QuietHeap());
  heap.Allocate(static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    heap.Free(1024);
    heap.Allocate(1024);
    benchmark::DoNotOptimize(heap.Collect());
  }
}
BENCHMARK(BM_HeapCollect)->Arg(1 << 20)->Arg(16 << 20);

void BM_VarintRoundTrip(benchmark::State& state) {
  common::ByteBuffer buf;
  serde::Writer writer(&buf);
  common::Rng rng(7);
  std::vector<std::uint64_t> values(1024);
  for (auto& v : values) {
    v = rng.NextU64() >> (rng.NextBelow(60));
  }
  for (auto _ : state) {
    buf.Clear();
    for (std::uint64_t v : values) {
      writer.WriteVarint(v);
    }
    buf.ResetCursor();
    serde::Reader reader(&buf);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      sum += reader.ReadVarint();
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_VarintRoundTrip);

struct U64Traits {
  using Tuple = std::uint64_t;
  static std::uint64_t SizeOf(const Tuple&) { return 16; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteVarint(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadVarint(); }
};

void BM_PartitionSpillLoad(benchmark::State& state) {
  memsim::ManagedHeap heap(QuietHeap());
  serde::SpillManager spill(std::filesystem::temp_directory_path(), "bench");
  core::VectorPartition<U64Traits> part(core::TypeIds::Get("bench.u64"), &heap, &spill);
  for (int i = 0; i < state.range(0); ++i) {
    part.Append(static_cast<std::uint64_t>(i));
  }
  for (auto _ : state) {
    part.Spill();
    part.EnsureResident();
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 16);
}
BENCHMARK(BM_PartitionSpillLoad)->Arg(1024)->Arg(16384)->UseRealTime();

// Spill/load throughput of the spill store. Each iteration spills a batch of
// 64KB blocks and loads them all back. Arg = I/O pool size: 0 frames and
// writes inline on the caller's thread; a pool overlaps framing + segment
// writes with the submission loop and serves quick re-loads from the
// pending-write cache. The Drained arm waits for every write before the
// loads, so each load reads its frame back from disk. Rates divide by wall
// time: with a pool, the I/O threads' CPU time is not the main thread's.
common::ByteBuffer SpillBenchPayload() {
  // Half runs, half noise — roughly the mix serialized partitions show.
  common::Rng rng(99);
  std::vector<std::uint8_t> data;
  data.reserve(64 << 10);
  while (data.size() < (64 << 10)) {
    if (rng.NextBelow(2) == 0) {
      data.insert(data.end(), 32, static_cast<std::uint8_t>(rng.NextBelow(256)));
    } else {
      for (int i = 0; i < 16; ++i) {
        data.push_back(static_cast<std::uint8_t>(rng.NextBelow(256)));
      }
    }
  }
  return common::ByteBuffer(std::move(data));
}

void SpillThroughput(benchmark::State& state, bool drain) {
  serde::SpillManager spill(std::filesystem::temp_directory_path(), "bench-spill",
                            static_cast<int>(state.range(0)));
  const common::ByteBuffer payload = SpillBenchPayload();
  constexpr int kBatch = 16;
  for (auto _ : state) {
    std::uint64_t ids[kBatch];
    for (int i = 0; i < kBatch; ++i) {
      ids[i] = spill.Spill(payload);
    }
    if (drain) {
      spill.Drain();
    }
    for (int i = 0; i < kBatch; ++i) {
      common::ByteBuffer back = spill.LoadAndRemove(ids[i]);
      benchmark::DoNotOptimize(back.data());
    }
  }
  state.SetBytesProcessed(state.iterations() * kBatch *
                          static_cast<std::int64_t>(payload.size()));
  const serde::SpillStats stats = spill.Stats();
  state.counters["cancelled_writes"] = static_cast<double>(stats.cancelled_writes);
  state.counters["loads_from_disk"] = static_cast<double>(stats.loads_from_disk);
  state.counters["compression_ratio"] =
      stats.raw_bytes == 0 ? 1.0
                           : static_cast<double>(stats.framed_bytes) /
                                 static_cast<double>(stats.raw_bytes);
}

void BM_SpillThroughput(benchmark::State& state) { SpillThroughput(state, /*drain=*/false); }
BENCHMARK(BM_SpillThroughput)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_SpillThroughputDrained(benchmark::State& state) {
  SpillThroughput(state, /*drain=*/true);
}
BENCHMARK(BM_SpillThroughputDrained)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

// The frame checksum every spill and wire frame pays. Arg = payload bytes;
// 47 KB is a typical spilled partition.
void BM_FrameChecksum(benchmark::State& state) {
  common::Rng rng(7);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (auto& b : data) {
    b = static_cast<std::uint8_t>(rng.NextBelow(256));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(io::FrameCodec::Checksum(data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FrameChecksum)->Arg(47 << 10)->Arg(1 << 20);

struct CountKv {
  using Key = std::uint64_t;
  using Value = std::uint64_t;
  static std::uint64_t EntryOverhead() { return 48; }
  static std::uint64_t KeyBytes(const Key&) { return 8; }
  static std::uint64_t ValueBytes(const Value&) { return 8; }
  static void WriteEntry(serde::Writer& w, const Key& k, const Value& v) {
    w.WriteVarint(k);
    w.WriteVarint(v);
  }
  static std::pair<Key, Value> ReadEntry(serde::Reader& r) {
    Key k = r.ReadVarint();
    Value v = r.ReadVarint();
    return {k, v};
  }
};

void BM_HashAggMergeEntry(benchmark::State& state) {
  memsim::ManagedHeap heap(QuietHeap());
  serde::SpillManager spill(std::filesystem::temp_directory_path(), "benchagg");
  common::Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    core::HashAggPartition<CountKv> agg(core::TypeIds::Get("bench.counts"), &heap, &spill);
    state.ResumeTiming();
    for (int i = 0; i < 4096; ++i) {
      agg.MergeEntry(rng.NextBelow(512), 1,
                     [](std::uint64_t& into, const std::uint64_t& from) {
                       into += from;
                       return 0;
                     });
    }
    benchmark::DoNotOptimize(agg.TupleCount());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_HashAggMergeEntry);

// The tracing cost every runtime hot path pays when tracing is off: one
// relaxed flag load. The enabled path adds the clock read and ring store.
void BM_TracerEmitDisabled(benchmark::State& state) {
  obs::Tracer tracer;
  std::uint64_t i = 0;
  for (auto _ : state) {
    tracer.Emit(obs::EventKind::kSpillWrite, 0, i++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerEmitDisabled);

// Shared across the multi-threaded runs below: per-thread rings mean the
// emitters never contend even on one tracer.
obs::Tracer g_bench_tracer;

void BM_TracerEmitEnabled(benchmark::State& state) {
  g_bench_tracer.set_enabled(true);
  std::uint64_t i = 0;
  for (auto _ : state) {
    g_bench_tracer.Emit(obs::EventKind::kSpillWrite, 0, i++);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerEmitEnabled)->Threads(1)->Threads(4);

void BM_HistogramObserve(benchmark::State& state) {
  obs::Histogram hist(obs::GcPauseBoundsNs());
  common::Rng rng(11);
  for (auto _ : state) {
    hist.Observe(rng.NextBelow(100'000'000));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramObserve);

}  // namespace

BENCHMARK_MAIN();
