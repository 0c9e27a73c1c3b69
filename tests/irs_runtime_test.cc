// End-to-end tests of the ITask Runtime System: pipelines run to completion
// under pressure-free and heavily pressured heaps, producing identical
// results; interrupts, staged release, merge grouping, cross-node routing and
// abort paths all behave as specified.
#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <numeric>

#include "cluster/cluster.h"
#include "cluster/itask_job.h"
#include "itask/typed_partition.h"
#include "workloads/text.h"

namespace itask::core {
namespace {

// ---- Shared test traits ----

struct WordTraits {
  using Tuple = std::string;
  static std::uint64_t SizeOf(const Tuple& t) { return t.size() + 40; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteString(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadString(); }
};
using WordsPartition = VectorPartition<WordTraits>;

struct CountTraits {
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
using CountsPartition = HashAggPartition<CountTraits>;

struct BlockTraits {
  using Tuple = std::uint64_t;
  // Each tuple models a bulky record (4KB of managed payload).
  static std::uint64_t SizeOf(const Tuple&) { return 4096; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteVarint(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadVarint(); }
};
using BlocksPartition = VectorPartition<BlockTraits>;

// ---- WordCount pipeline: Count (ITask) -> MergeCounts (MITask) -> sink ----

class CountTask : public ITask<WordsPartition> {
 public:
  explicit CountTask(TypeId out_type) : out_type_(out_type) {}

  void Initialize(TaskContext& ctx) override {
    output_ = std::make_shared<CountsPartition>(out_type_, ctx.heap(), ctx.spill());
  }
  void Process(TaskContext& /*ctx*/, const std::string& word) override {
    output_->Upsert(word, [](std::uint64_t& v) {
      ++v;
      return 0;
    });
  }
  void Interrupt(TaskContext& ctx) override {
    output_->set_tag(0);
    ctx.Emit(std::move(output_));
  }
  void Cleanup(TaskContext& ctx) override {
    output_->set_tag(0);
    ctx.Emit(std::move(output_));
  }

 private:
  TypeId out_type_;
  std::shared_ptr<CountsPartition> output_;
};

class MergeCountsTask : public MITask<CountsPartition> {
 public:
  explicit MergeCountsTask(TypeId out_type) : out_type_(out_type) {}

  void Initialize(TaskContext& ctx) override {
    output_ = std::make_shared<CountsPartition>(out_type_, ctx.heap(), ctx.spill());
  }
  void Process(TaskContext& /*ctx*/, const std::pair<std::string, std::uint64_t>& e) override {
    output_->Upsert(e.first, [&](std::uint64_t& v) {
      v += e.second;
      return 0;
    });
  }
  void Interrupt(TaskContext& ctx) override {
    output_->set_tag(ctx.group_tag);  // Becomes its own input (paper Fig. 7).
    ctx.Emit(std::move(output_));
  }
  void Cleanup(TaskContext& ctx) override { ctx.EmitToSink(std::move(output_)); }

 private:
  TypeId out_type_;
  std::shared_ptr<CountsPartition> output_;
};

struct WordCountResult {
  std::map<std::string, std::uint64_t> counts;
  common::RunMetrics metrics;
  bool ok = false;
};

WordCountResult RunWordCount(std::uint64_t heap_bytes, std::uint64_t corpus_bytes,
                             std::uint64_t vocabulary, int max_workers = 4) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.capacity_bytes = heap_bytes;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  IrsConfig irs;
  irs.max_workers = max_workers;
  cluster::ItaskJob job(cl, irs);

  const TypeId words_t = TypeIds::Get("wc.words");
  const TypeId counts_t = TypeIds::Get("wc.counts");

  job.RegisterTaskPerNode([&](int /*node*/) {
    TaskSpec spec;
    spec.name = "count";
    spec.input_type = words_t;
    spec.output_type = counts_t;
    spec.factory = [counts_t] { return std::make_unique<CountTask>(counts_t); };
    return spec;
  });
  job.RegisterTaskPerNode([&](int /*node*/) {
    TaskSpec spec;
    spec.name = "merge";
    spec.input_type = counts_t;
    spec.output_type = counts_t;
    spec.is_merge = true;
    spec.factory = [counts_t] { return std::make_unique<MergeCountsTask>(counts_t); };
    return spec;
  });

  WordCountResult result;
  std::mutex sink_mu;
  job.SetSinkPerNode([&](int /*node*/) {
    return [&](PartitionPtr out) {
      auto* counts = static_cast<CountsPartition*>(out.get());
      std::lock_guard lock(sink_mu);
      for (std::size_t i = 0; i < counts->TupleCount(); ++i) {
        result.counts[counts->At(i).first] += counts->At(i).second;
      }
      out->DropPayload();
    };
  });

  workloads::TextConfig tc;
  tc.target_bytes = corpus_bytes;
  tc.vocabulary = vocabulary;

  result.ok = job.Run([&] {
    auto& rt = job.runtime(0);
    auto part = std::make_shared<WordsPartition>(words_t, &cl.node(0).heap(), &cl.node(0).spill());
    workloads::ForEachWord(tc, [&](const std::string& word) {
      part->Append(word);
      if (part->TupleCount() >= 256) {
        part->Spill();  // Inputs start disk-resident, like HDFS blocks.
        rt.Push(std::move(part));
        part = std::make_shared<WordsPartition>(words_t, &cl.node(0).heap(), &cl.node(0).spill());
      }
    });
    if (part->TupleCount() > 0) {
      part->Spill();
      rt.Push(std::move(part));
    }
  });
  result.metrics = job.Metrics();
  return result;
}

std::map<std::string, std::uint64_t> ReferenceCounts(std::uint64_t corpus_bytes,
                                                     std::uint64_t vocabulary) {
  workloads::TextConfig tc;
  tc.target_bytes = corpus_bytes;
  tc.vocabulary = vocabulary;
  std::map<std::string, std::uint64_t> counts;
  workloads::ForEachWord(tc, [&](const std::string& word) { ++counts[word]; });
  return counts;
}

TEST(IrsWordCountTest, PressureFreeRunMatchesReference) {
  const auto result = RunWordCount(/*heap=*/32 << 20, /*corpus=*/256 << 10, /*vocab=*/500);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.counts, ReferenceCounts(256 << 10, 500));
}

TEST(IrsWordCountTest, PressuredRunMatchesReference) {
  // Heap sized so the working set forces interrupts and lazy serialization.
  const auto result = RunWordCount(/*heap=*/600 << 10, /*corpus=*/512 << 10, /*vocab=*/2'000);
  ASSERT_TRUE(result.ok);
  EXPECT_EQ(result.counts, ReferenceCounts(512 << 10, 2'000));
}

TEST(IrsWordCountTest, MetricsArePopulated) {
  const auto result = RunWordCount(32 << 20, 128 << 10, 300);
  ASSERT_TRUE(result.ok);
  EXPECT_GT(result.metrics.wall_ms, 0.0);
  EXPECT_GT(result.metrics.peak_heap_bytes, 0u);
}

// ---- Bulky pipeline: Expand (big outputs) -> Drain (sums) -> sink ----

class ExpandTask : public ITask<BlocksPartition> {
 public:
  explicit ExpandTask(TypeId out_type) : out_type_(out_type) {}

  void Initialize(TaskContext& ctx) override {
    output_ = std::make_shared<BlocksPartition>(out_type_, ctx.heap(), ctx.spill());
  }
  void Process(TaskContext& /*ctx*/, const std::uint64_t& v) override { output_->Append(v); }
  void Interrupt(TaskContext& ctx) override { ctx.Emit(std::move(output_)); }
  void Cleanup(TaskContext& ctx) override { ctx.Emit(std::move(output_)); }

 private:
  TypeId out_type_;
  std::shared_ptr<BlocksPartition> output_;
};

struct SumTraits {
  using Tuple = std::uint64_t;
  static std::uint64_t SizeOf(const Tuple&) { return 16; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteVarint(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadVarint(); }
};
using SumPartition = VectorPartition<SumTraits>;

class DrainTask : public ITask<BlocksPartition> {
 public:
  explicit DrainTask(TypeId out_type) : out_type_(out_type) {}

  void Initialize(TaskContext& /*ctx*/) override { sum_ = 0; }
  void Process(TaskContext& /*ctx*/, const std::uint64_t& v) override { sum_ += v; }
  void Interrupt(TaskContext& ctx) override { EmitSum(ctx); }
  void Cleanup(TaskContext& ctx) override { EmitSum(ctx); }

 private:
  void EmitSum(TaskContext& ctx) {
    auto out = std::make_shared<SumPartition>(out_type_, ctx.heap(), ctx.spill());
    out->Append(sum_);
    ctx.Emit(std::move(out));  // Terminal type -> sink.
    sum_ = 0;
  }
  TypeId out_type_;
  std::uint64_t sum_ = 0;
};

TEST(IrsPressureTest, BulkyPipelineSurvivesSmallHeap) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.capacity_bytes = 1 << 20;  // 1MB heap, ~4MB flowing through.
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  IrsConfig irs;
  irs.max_workers = 4;
  cluster::ItaskJob job(cl, irs);

  const TypeId in_t = TypeIds::Get("bulk.in");
  const TypeId mid_t = TypeIds::Get("bulk.mid");
  const TypeId out_t = TypeIds::Get("bulk.out");

  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "expand";
    spec.input_type = in_t;
    spec.output_type = mid_t;
    spec.factory = [mid_t] { return std::make_unique<ExpandTask>(mid_t); };
    return spec;
  });
  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "drain";
    spec.input_type = mid_t;
    spec.output_type = out_t;
    spec.factory = [out_t] { return std::make_unique<DrainTask>(out_t); };
    return spec;
  });

  std::atomic<std::uint64_t> total{0};
  job.SetSinkPerNode([&](int) {
    return [&](PartitionPtr out) {
      auto* sums = static_cast<SumPartition*>(out.get());
      for (std::size_t i = 0; i < sums->TupleCount(); ++i) {
        total.fetch_add(sums->At(i));
      }
      out->DropPayload();
    };
  });

  constexpr std::uint64_t kTuples = 1024;  // 1024 * 4KB = 4MB of flow.
  const bool ok = job.Run([&] {
    auto& rt = job.runtime(0);
    for (std::uint64_t base = 0; base < kTuples; base += 64) {
      auto part = std::make_shared<BlocksPartition>(in_t, &cl.node(0).heap(), &cl.node(0).spill());
      for (std::uint64_t i = base; i < base + 64; ++i) {
        part->Append(i + 1);
      }
      part->Spill();
      rt.Push(std::move(part));
    }
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(total.load(), kTuples * (kTuples + 1) / 2);

  const auto metrics = job.Metrics();
  // The working set exceeds the heap several times over; the IRS must have
  // interrupted tasks and/or lazily serialized partitions to survive.
  EXPECT_GT(metrics.interrupts + metrics.lugc_count + metrics.spilled_bytes, 0u);
  EXPECT_LE(metrics.peak_heap_bytes, cc.heap.capacity_bytes);
}

// ---- Abort path: a tuple that can never fit ----

class HugeAllocTask : public ITask<SumPartition> {
 public:
  void Initialize(TaskContext&) override {}
  void Process(TaskContext& ctx, const std::uint64_t&) override {
    // 10x the heap: impossible regardless of interrupts.
    memsim::HeapCharge charge(ctx.heap(), ctx.heap()->capacity() * 10);
  }
  void Interrupt(TaskContext&) override {}
  void Cleanup(TaskContext&) override {}
};

TEST(IrsAbortTest, ImpossibleTupleAbortsJob) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.capacity_bytes = 1 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  IrsConfig irs;
  irs.max_workers = 2;
  irs.max_no_progress = 3;  // Fail fast in the test.
  cluster::ItaskJob job(cl, irs);

  const TypeId in_t = TypeIds::Get("abort.in");
  const TypeId out_t = TypeIds::Get("abort.out");
  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "huge";
    spec.input_type = in_t;
    spec.output_type = out_t;
    spec.factory = [] { return std::make_unique<HugeAllocTask>(); };
    return spec;
  });

  const bool ok = job.Run([&] {
    auto part = std::make_shared<SumPartition>(in_t, &cl.node(0).heap(), &cl.node(0).spill());
    part->Append(1);
    job.runtime(0).Push(std::move(part));
  });
  EXPECT_FALSE(ok);
}

// ---- Cross-node routing ----

TEST(IrsMultiNodeTest, RemotePushRechargesTargetHeap) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 8 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  IrsConfig irs;
  irs.max_workers = 2;
  cluster::ItaskJob job(cl, irs);

  const TypeId in_t = TypeIds::Get("xnode.in");
  const TypeId out_t = TypeIds::Get("xnode.out");

  // Expand on node 0 routes its output to node 1's drain via PushRemote.
  job.RegisterTaskPerNode([&](int node) {
    TaskSpec spec;
    spec.name = "expand";
    spec.input_type = in_t;
    spec.output_type = out_t;
    spec.factory = [out_t] { return std::make_unique<ExpandTask>(out_t); };
    if (node == 0) {
      spec.route_output = [&job](PartitionPtr out, bool) {
        job.runtime(1).PushRemote(std::move(out));
      };
    }
    return spec;
  });
  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "drain";
    spec.input_type = out_t;
    spec.output_type = TypeIds::Get("xnode.sum");
    spec.factory = [] { return std::make_unique<DrainTask>(TypeIds::Get("xnode.sum")); };
    return spec;
  });

  std::atomic<std::uint64_t> total{0};
  job.SetSinkPerNode([&](int) {
    return [&](PartitionPtr out) {
      auto* sums = static_cast<SumPartition*>(out.get());
      for (std::size_t i = 0; i < sums->TupleCount(); ++i) {
        total.fetch_add(sums->At(i));
      }
      out->DropPayload();
    };
  });

  const bool ok = job.Run([&] {
    auto part = std::make_shared<BlocksPartition>(in_t, &cl.node(0).heap(), &cl.node(0).spill());
    for (std::uint64_t i = 1; i <= 100; ++i) {
      part->Append(i);
    }
    part->Spill();
    job.runtime(0).Push(std::move(part));
  });
  ASSERT_TRUE(ok);
  EXPECT_EQ(total.load(), 5050u);
}

// ---- Lifecycle: Stop/Start cycles must be idempotent and restartable ----

TEST(IrsLifecycleTest, RepeatedStartStopCyclesAreSafe) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.capacity_bytes = 4 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  cluster::Node& node = cl.node(0);
  NodeServices services{node.id(), node.name(), &node.heap(), &node.spill(), node.tracer()};
  IrsConfig irs;
  irs.max_workers = 2;
  irs.monitor_period = std::chrono::milliseconds(1);
  IrsRuntime rt(services, irs, std::make_shared<JobState>());
  rt.FinalizeGraph();

  // Before the restart fixes, cycle 2's workers exited immediately (stale
  // scheduler stop flag) or the monitor raced a stale pressure/stop state.
  for (int i = 0; i < 100; ++i) {
    rt.Start();
    rt.Stop();
  }
  // Stop must also be idempotent.
  rt.Stop();
  rt.Stop();
}

TEST(IrsLifecycleTest, SameJobRunsTwiceOnTheSameRuntimes) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 1;
  cc.heap.capacity_bytes = 600 << 10;  // Pressured: interrupts both runs.
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);

  IrsConfig irs;
  irs.max_workers = 4;
  cluster::ItaskJob job(cl, irs);

  const TypeId words_t = TypeIds::Get("restart.words");
  const TypeId counts_t = TypeIds::Get("restart.counts");
  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "count";
    spec.input_type = words_t;
    spec.output_type = counts_t;
    spec.factory = [counts_t] { return std::make_unique<CountTask>(counts_t); };
    return spec;
  });
  job.RegisterTaskPerNode([&](int) {
    TaskSpec spec;
    spec.name = "merge";
    spec.input_type = counts_t;
    spec.output_type = counts_t;
    spec.is_merge = true;
    spec.factory = [counts_t] { return std::make_unique<MergeCountsTask>(counts_t); };
    return spec;
  });

  std::map<std::string, std::uint64_t> counts;
  std::mutex sink_mu;
  job.SetSinkPerNode([&](int) {
    return [&](PartitionPtr out) {
      auto* cp = static_cast<CountsPartition*>(out.get());
      std::lock_guard lock(sink_mu);
      for (std::size_t i = 0; i < cp->TupleCount(); ++i) {
        counts[cp->At(i).first] += cp->At(i).second;
      }
      out->DropPayload();
    };
  });

  workloads::TextConfig tc;
  tc.target_bytes = 256 << 10;
  tc.vocabulary = 1'000;
  const auto feed = [&] {
    auto& rt = job.runtime(0);
    auto part = std::make_shared<WordsPartition>(words_t, &cl.node(0).heap(), &cl.node(0).spill());
    workloads::ForEachWord(tc, [&](const std::string& word) {
      part->Append(word);
      if (part->TupleCount() >= 256) {
        part->Spill();
        rt.Push(std::move(part));
        part = std::make_shared<WordsPartition>(words_t, &cl.node(0).heap(), &cl.node(0).spill());
      }
    });
    if (part->TupleCount() > 0) {
      part->Spill();
      rt.Push(std::move(part));
    }
  };

  const auto reference = ReferenceCounts(256 << 10, 1'000);
  for (int run = 0; run < 2; ++run) {
    counts.clear();
    ASSERT_TRUE(job.Run(feed)) << "run " << run;
    EXPECT_EQ(counts, reference) << "run " << run;
  }
}

// ---- OME-interrupt accounting (Table 2 / abort backoff) ----

class OmeAccountingTest : public ::testing::Test {
 protected:
  OmeAccountingTest() {
    cc_.num_nodes = 1;
    cc_.heap.capacity_bytes = 4 << 20;
    cc_.heap.real_pauses = false;
    cl_ = std::make_unique<cluster::Cluster>(cc_);
    cluster::Node& node = cl_->node(0);
    NodeServices services{node.id(), node.name(), &node.heap(), &node.spill(),
                          node.tracer()};
    IrsConfig irs;
    irs.max_workers = 2;
    irs.monitor_period = std::chrono::milliseconds(1);
    irs.max_no_progress = 4;
    state_ = std::make_shared<JobState>();
    rt_ = std::make_unique<IrsRuntime>(services, irs, state_);
    rt_->FinalizeGraph();
  }

  PartitionPtr MakePartition() {
    auto dp = std::make_shared<SumPartition>(TypeIds::Get("ome.acct"), &cl_->node(0).heap(),
                                             &cl_->node(0).spill());
    dp->Append(1);
    return dp;
  }

  cluster::ClusterConfig cc_;
  std::unique_ptr<cluster::Cluster> cl_;
  std::shared_ptr<JobState> state_;
  std::unique_ptr<IrsRuntime> rt_;
};

TEST_F(OmeAccountingTest, EachOmeCountsOnceAndRaisesPressure) {
  const auto dp = MakePartition();
  EXPECT_FALSE(rt_->pressure());
  rt_->NoteOmeInterrupt(dp, /*tuples_processed=*/10);
  EXPECT_EQ(rt_->NodeMetrics().ome_interrupts, 1u);
  EXPECT_TRUE(rt_->pressure());
  // One OME, one count — progress or not; the pressure edge fires once.
  rt_->NoteOmeInterrupt(dp, /*tuples_processed=*/0);
  EXPECT_EQ(rt_->NodeMetrics().ome_interrupts, 2u);
}

TEST_F(OmeAccountingTest, ProgressResetsNoProgressBackoff) {
  const auto dp = MakePartition();
  rt_->NoteOmeInterrupt(dp, 0);
  rt_->NoteOmeInterrupt(dp, 0);
  EXPECT_EQ(dp->no_progress(), 2);
  rt_->NoteOmeInterrupt(dp, /*tuples_processed=*/5);
  EXPECT_EQ(dp->no_progress(), 0);
  EXPECT_FALSE(state_->aborted.load());
}

TEST_F(OmeAccountingTest, SustainedZeroProgressAbortsTheJob) {
  const auto dp = MakePartition();
  // max_no_progress = 4: the fifth consecutive zero-progress OME aborts.
  for (int i = 0; i < 4; ++i) {
    rt_->NoteOmeInterrupt(dp, 0);
    EXPECT_FALSE(state_->aborted.load()) << "attempt " << i;
  }
  rt_->NoteOmeInterrupt(dp, 0);
  EXPECT_TRUE(state_->aborted.load());
  EXPECT_EQ(rt_->NodeMetrics().ome_interrupts, 5u);
}

}  // namespace
}  // namespace itask::core
