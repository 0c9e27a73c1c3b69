// Property tests: invariants that must hold for every seed, size and
// injection point.
//
//  - OME injected at EVERY tuple index of a pipeline still yields the exact
//    pressure-free result (the discard-restart path loses work, never data).
//  - Random partition op sequences (append/spill/load/prefix-release/transfer)
//    preserve content and leave heap accounting balanced.
//  - serde round-trips hold for randomized values.
//  - The managed heap's invariants hold under concurrent alloc/free/collect.
#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <thread>

#include "cluster/cluster.h"
#include "cluster/itask_job.h"
#include "common/rng.h"
#include "itask/typed_partition.h"

namespace itask::core {
namespace {

struct WordTraits {
  using Tuple = std::string;
  static std::uint64_t SizeOf(const Tuple& t) { return t.size() + 40; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteString(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadString(); }
};
using WordsPartition = VectorPartition<WordTraits>;

struct CountKv {
  using Key = std::string;
  using Value = std::uint64_t;
  static std::uint64_t EntryOverhead() { return 48; }
  static std::uint64_t KeyBytes(const Key& k) { return k.size(); }
  static std::uint64_t ValueBytes(const Value&) { return 8; }
  static void WriteEntry(serde::Writer& w, const Key& k, const Value& v) {
    w.WriteString(k);
    w.WriteVarint(v);
  }
  static std::pair<Key, Value> ReadEntry(serde::Reader& r) {
    Key k = r.ReadString();
    Value v = r.ReadVarint();
    return {std::move(k), v};
  }
};
using CountsPartition = HashAggPartition<CountKv>;

// Counts words; artificially throws OutOfMemoryError the |fail_at|-th time a
// tuple is processed across the whole job (-1 = never). Exercises the
// OME-as-forced-interrupt machinery at a precise injection point.
class FaultyCountTask : public ITask<WordsPartition> {
 public:
  FaultyCountTask(TypeId out_type, std::atomic<int>* fuse) : out_type_(out_type), fuse_(fuse) {}

  void Initialize(TaskContext& ctx) override {
    output_ = std::make_shared<CountsPartition>(out_type_, ctx.heap(), ctx.spill());
  }
  void Process(TaskContext& /*ctx*/, const std::string& word) override {
    // Half-apply before the injected failure: the discard-restart path must
    // throw this partial effect away.
    output_->MergeEntry(word, 1, [](std::uint64_t& into, const std::uint64_t& from) {
      into += from;
      return 0;
    });
    if (fuse_->fetch_sub(1) == 1) {
      throw memsim::OutOfMemoryError("injected");
    }
  }
  void Interrupt(TaskContext& ctx) override { EmitOutput(ctx); }
  void Cleanup(TaskContext& ctx) override { EmitOutput(ctx); }

 private:
  void EmitOutput(TaskContext& ctx) {
    if (output_ && output_->TupleCount() > 0) {
      output_->set_tag(0);
      ctx.Emit(std::move(output_));
    }
    output_.reset();
  }
  TypeId out_type_;
  std::atomic<int>* fuse_;
  std::shared_ptr<CountsPartition> output_;
};

class MergeCounts : public MITask<CountsPartition> {
 public:
  explicit MergeCounts(TypeId out_type) : out_type_(out_type) {}
  void Initialize(TaskContext& ctx) override {
    output_ = std::make_shared<CountsPartition>(out_type_, ctx.heap(), ctx.spill());
  }
  void Process(TaskContext& /*ctx*/, const std::pair<std::string, std::uint64_t>& e) override {
    output_->MergeEntry(e.first, e.second, [](std::uint64_t& into, const std::uint64_t& from) {
      into += from;
      return 0;
    });
  }
  void Interrupt(TaskContext& ctx) override {
    output_->set_tag(ctx.group_tag);
    ctx.Emit(std::move(output_));
  }
  void Cleanup(TaskContext& ctx) override { ctx.EmitToSink(std::move(output_)); }

 private:
  TypeId out_type_;
  std::shared_ptr<CountsPartition> output_;
};

// 60 words, 3 per partition: every Process call is a potential fault site.
constexpr int kWords = 60;

std::map<std::string, std::uint64_t> RunWithFault(int fail_at) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.capacity_bytes = 32 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  IrsConfig irs;
  irs.max_workers = 2;
  cluster::ItaskJob job(cl, irs);
  const TypeId words_t = TypeIds::Get("prop.words");
  const TypeId counts_t = TypeIds::Get("prop.counts");

  static std::atomic<int> fuse;
  fuse.store(fail_at < 0 ? -1'000'000 : fail_at + 1);

  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "count";
    spec.input_type = words_t;
    spec.output_type = counts_t;
    spec.factory = [counts_t] { return std::make_unique<FaultyCountTask>(counts_t, &fuse); };
    return spec;
  });
  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "merge";
    spec.input_type = counts_t;
    spec.output_type = counts_t;
    spec.is_merge = true;
    spec.factory = [counts_t] { return std::make_unique<MergeCounts>(counts_t); };
    return spec;
  });

  std::map<std::string, std::uint64_t> result;
  std::mutex mu;
  job.SetSinkPerNode([&](int) {
    return [&](PartitionPtr out) {
      auto* counts = static_cast<CountsPartition*>(out.get());
      std::lock_guard lock(mu);
      for (std::size_t i = 0; i < counts->TupleCount(); ++i) {
        result[counts->At(i).first] += counts->At(i).second;
      }
      out->DropPayload();
    };
  });

  const bool ok = job.Run([&] {
    common::Rng rng(7);
    std::shared_ptr<WordsPartition> part;
    for (int i = 0; i < kWords; ++i) {
      if (part == nullptr) {
        part = std::make_shared<WordsPartition>(words_t, &cl.node(0).heap(),
                                                &cl.node(0).spill());
      }
      part->Append("w" + std::to_string(rng.NextBelow(7)));
      if (part->TupleCount() == 3) {
        part->Spill();
        job.runtime(0).Push(std::move(part));
        part.reset();
      }
    }
  });
  EXPECT_TRUE(ok);
  return result;
}

class OmeInjectionTest : public ::testing::TestWithParam<int> {};

TEST_P(OmeInjectionTest, InjectedOmeNeverChangesTheResult) {
  static const std::map<std::string, std::uint64_t> reference = RunWithFault(-1);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(RunWithFault(GetParam()), reference);
}

INSTANTIATE_TEST_SUITE_P(EveryTupleIndex, OmeInjectionTest,
                         ::testing::Range(0, kWords, 1));

// ---- Randomized partition op sequences ----

class PartitionOpsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PartitionOpsTest, RandomOpSequencePreservesContentAndAccounting) {
  memsim::HeapConfig hc;
  hc.capacity_bytes = 64 << 20;
  hc.real_pauses = false;
  memsim::ManagedHeap heap_a(hc);
  memsim::ManagedHeap heap_b(hc);
  serde::SpillManager spill_a(std::filesystem::temp_directory_path(), "propa");
  serde::SpillManager spill_b(std::filesystem::temp_directory_path(), "propb");

  common::Rng rng(GetParam());
  const TypeId t = TypeIds::Get("prop.ops");
  auto dp = std::make_shared<WordsPartition>(t, &heap_a, &spill_a);
  std::vector<std::string> model;  // Unprocessed suffix, in order.
  bool on_a = true;

  for (int step = 0; step < 200; ++step) {
    switch (rng.NextBelow(5)) {
      case 0: {  // Append (only while resident).
        if (dp->resident()) {
          std::string w = "x" + std::to_string(rng.NextBelow(1000));
          dp->Append(w);
          model.push_back(std::move(w));
        }
        break;
      }
      case 1:
        dp->Spill();
        break;
      case 2:
        dp->EnsureResident();
        break;
      case 3: {  // Consume a few tuples then release the prefix.
        if (dp->resident() && dp->TupleCount() > 0) {
          const std::size_t n = 1 + rng.NextBelow(dp->TupleCount());
          dp->set_cursor(n);
          dp->ReleaseProcessedPrefix();
          model.erase(model.begin(), model.begin() + static_cast<std::ptrdiff_t>(n));
        }
        break;
      }
      case 4: {  // Transfer between nodes.
        on_a = !on_a;
        dp->TransferTo(on_a ? &heap_a : &heap_b, on_a ? &spill_a : &spill_b);
        break;
      }
    }
  }
  dp->EnsureResident();
  ASSERT_EQ(dp->TupleCount(), model.size());
  for (std::size_t i = 0; i < model.size(); ++i) {
    EXPECT_EQ(dp->At(i), model[i]);
  }
  // Accounting balances once the partition is destroyed.
  dp.reset();
  heap_a.Collect();
  heap_b.Collect();
  EXPECT_EQ(heap_a.live_bytes(), 0u);
  EXPECT_EQ(heap_b.live_bytes(), 0u);
  EXPECT_EQ(heap_a.garbage_bytes(), 0u);
  EXPECT_EQ(heap_b.garbage_bytes(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionOpsTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ---- Heap under concurrent churn with collections ----

TEST(HeapConcurrencyTest, InvariantsHoldUnderChurnAndCollections) {
  memsim::HeapConfig hc;
  hc.capacity_bytes = 8 << 20;
  hc.real_pauses = false;
  memsim::ManagedHeap heap(hc);

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 6; ++t) {
    workers.emplace_back([&, t] {
      common::Rng rng(static_cast<std::uint64_t>(t) + 99);
      while (!stop.load()) {
        const std::uint64_t bytes = 64 + rng.NextBelow(4096);
        if (heap.TryAllocate(bytes)) {
          heap.Free(bytes);
        } else {
          failures.fetch_add(1);
        }
        // Invariant: used never exceeds capacity.
        ASSERT_LE(heap.used_bytes(), hc.capacity_bytes + 6 * 4160);
      }
    });
  }
  std::thread collector([&] {
    while (!stop.load()) {
      heap.Collect();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  for (auto& w : workers) {
    w.join();
  }
  collector.join();
  heap.Collect();
  EXPECT_EQ(heap.live_bytes(), 0u);
  EXPECT_EQ(heap.garbage_bytes(), 0u);
  const auto stats = heap.Stats();
  EXPECT_GT(stats.gc_count, 0u);
  EXPECT_LE(stats.peak_used_bytes, hc.capacity_bytes + 6 * 4160);
}

// ---- serde randomized round-trips ----

class SerdeFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerdeFuzzTest, RandomMixedStreamsRoundTrip) {
  common::Rng rng(GetParam());
  common::ByteBuffer buf;
  serde::Writer w(&buf);
  struct Item {
    int kind;
    std::uint64_t u;
    std::int64_t i;
    double d;
    std::string s;
  };
  std::vector<Item> items;
  for (int n = 0; n < 2'000; ++n) {
    Item item;
    item.kind = static_cast<int>(rng.NextBelow(4));
    switch (item.kind) {
      case 0:
        item.u = rng.NextU64() >> rng.NextBelow(64);
        w.WriteVarint(item.u);
        break;
      case 1:
        item.i = static_cast<std::int64_t>(rng.NextU64());
        w.WriteI64(item.i);
        break;
      case 2:
        item.d = static_cast<double>(rng.NextU64()) * 0.5;
        w.WriteDouble(item.d);
        break;
      case 3:
        item.s.assign(rng.NextBelow(64), static_cast<char>('a' + rng.NextBelow(26)));
        w.WriteString(item.s);
        break;
    }
    items.push_back(std::move(item));
  }
  serde::Reader r(&buf);
  for (const Item& item : items) {
    switch (item.kind) {
      case 0:
        ASSERT_EQ(r.ReadVarint(), item.u);
        break;
      case 1:
        ASSERT_EQ(r.ReadI64(), item.i);
        break;
      case 2:
        ASSERT_EQ(r.ReadDouble(), item.d);
        break;
      case 3:
        ASSERT_EQ(r.ReadString(), item.s);
        break;
    }
  }
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerdeFuzzTest, ::testing::Values(11u, 22u, 33u, 44u));

}  // namespace
}  // namespace itask::core

// ---- Network-fault engine properties: every seed, every link ----
//
// The reproducibility contract behind `chaos_run --faults=<seed>`: the fault
// decision stream for a link is a pure function of (plan seed, link, frame
// serial) — independent of what other links do, and free of decision
// combinations (a dropped frame that also duplicates) that would break the
// ledger's (node,split,epoch,seq) dedup or the fabric's ack pairing.

#include "net/faults.h"

namespace itask::net {
namespace {

class NetFaultSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NetFaultSeedTest, SeededPlansReplayIdenticalDecisionStreams) {
  const chaos::FaultPlan plan = chaos::FaultPlan::FromSeed(GetParam());
  ASSERT_TRUE(plan.net.active());

  // Engine A serves four links round-robin; engine B serves them link-major.
  // Interleaving must not matter: per-link streams are keyed by serial.
  NetFaultEngine a(plan);
  NetFaultEngine b(plan);
  constexpr int kFrames = 400;
  const int dsts[] = {0, 1, 2, 3};
  std::vector<NetFaultEngine::Decision> a_stream[4];
  for (int frame = 0; frame < kFrames; ++frame) {
    for (const int dst : dsts) {
      a_stream[dst].push_back(a.Apply(dst, 256));
    }
  }
  for (const int dst : dsts) {
    for (int frame = 0; frame < kFrames; ++frame) {
      const auto got = b.Apply(dst, 256);
      const auto& expect = a_stream[dst][static_cast<std::size_t>(frame)];
      ASSERT_EQ(got.serial, expect.serial) << "dst " << dst << " frame " << frame;
      EXPECT_EQ(got.drop, expect.drop);
      EXPECT_EQ(got.duplicate, expect.duplicate);
      EXPECT_EQ(got.reorder, expect.reorder);
      EXPECT_EQ(got.reset, expect.reset);
      EXPECT_DOUBLE_EQ(got.delay_ms, expect.delay_ms);
    }
  }

  // Dedup/ack-pairing safety: destroyed frames never also duplicate or
  // reorder, and at most one destructive fault fires per frame.
  std::uint64_t fired = 0;
  for (const int dst : dsts) {
    for (const auto& d : a_stream[dst]) {
      EXPECT_LE(static_cast<int>(d.drop) + static_cast<int>(d.corrupt) +
                    static_cast<int>(d.truncate) + static_cast<int>(d.reset),
                1);
      if (d.drop || d.reset) {
        EXPECT_FALSE(d.duplicate);
        EXPECT_FALSE(d.reorder);
      }
      if (d.delay_ms > 0.0) {
        // Delays stay inside the plan's jitter envelope.
        EXPECT_GE(d.delay_ms, plan.net.delay_ms - plan.net.delay_jitter_ms - 1e-9);
        EXPECT_LE(d.delay_ms, plan.net.delay_ms + plan.net.delay_jitter_ms + 1e-9);
      }
      fired += static_cast<std::uint64_t>(d.faults);
    }
  }
  // Seeded plans are moderate but not inert: over 1600 frames something fired.
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
}

INSTANTIATE_TEST_SUITE_P(Seeds, NetFaultSeedTest,
                         ::testing::Values(1u, 7u, 42u, 1234567u, 0xdeadbeefu));

}  // namespace
}  // namespace itask::net
