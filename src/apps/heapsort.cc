// HeapSort (HS): globally sorts 64-bit keys derived from the webmap input.
//
// ITask pipeline:
//   Scatter (ITask) : input key partitions -> per-range sorted runs, shipped
//                     to the range-owning node (final results).
//   Merge (MITask)  : same-range runs -> sorted runs emitted to the sink in
//                     bounded chunks (external-sort semantics: the full range
//                     never needs to be memory-resident at once).
// Regular baseline: scatter with fixed threads, then each node materializes
// its whole key range in memory and sorts it — the classic blow-up that makes
// the paper's HS fail beyond 27GB.
#include <algorithm>
#include <atomic>
#include <mutex>

#include "apps/common.h"
#include "apps/hyracks_apps.h"
#include "cluster/itask_job.h"
#include "dataflow/regular.h"
#include "obs/span.h"
#include "workloads/graph.h"

namespace itask::apps {
namespace {

struct KeyTraits {
  using Tuple = std::uint64_t;
  // A key held in a sort buffer costs a boxed Long + list slot in the
  // managed-runtime model the paper targets.
  static std::uint64_t SizeOf(const Tuple&) { return 48; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WriteU64(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadU64(); }
};
using KeyPartition = core::VectorPartition<KeyTraits>;

core::TypeId InType() { return core::TypeIds::Get("hs.in"); }
core::TypeId RunType() { return core::TypeIds::Get("hs.run"); }

int RangeOwner(std::uint64_t key, int nodes) {
  return static_cast<int>(
      (static_cast<unsigned __int128>(key) * static_cast<unsigned>(nodes)) >> 64);
}

// Order-independent multiset fingerprint of the keys.
std::uint64_t KeyFingerprint(std::uint64_t key) { return MixU64(key ^ 0x9e3779b97f4a7c15ULL); }

void FillKeys(const AppConfig& config, PartitionFeeder<KeyPartition>& feeder) {
  const workloads::GraphConfig gc = workloads::GraphForBytes(config.dataset_bytes, config.seed);
  workloads::ForEachEdge(gc, [&](const workloads::Edge& e) {
    // A well-spread sort key derived from the edge.
    feeder.Add(MixU64(e.src * 0x1000003ULL + e.dst), 16);
  });
}

// ---- ITask tasks ----

class ScatterTask : public core::ITask<KeyPartition> {
 public:
  explicit ScatterTask(int nodes) : nodes_(nodes), runs_(static_cast<std::size_t>(nodes)) {}

  void Initialize(core::TaskContext& /*ctx*/) override {}
  void Process(core::TaskContext& ctx, const std::uint64_t& key) override {
    memsim::HeapCharge temporaries(ctx.heap(), 64);  // Boxed-key churn.
    const auto n = static_cast<std::size_t>(RangeOwner(key, nodes_));
    if (runs_[n] == nullptr) {
      runs_[n] = std::make_shared<KeyPartition>(RunType(), ctx.heap(), ctx.spill());
      runs_[n]->set_tag(static_cast<core::Tag>(n));
    }
    runs_[n]->Append(key);
  }
  void Interrupt(core::TaskContext& ctx) override { ShipRuns(ctx); }
  void Cleanup(core::TaskContext& ctx) override { ShipRuns(ctx); }

 private:
  void ShipRuns(core::TaskContext& ctx) {
    for (auto& run : runs_) {
      if (run != nullptr && run->TupleCount() > 0) {
        std::sort(run->mutable_tuples().begin(), run->mutable_tuples().end());
        ctx.Emit(std::move(run));
      }
      run.reset();
    }
  }
  int nodes_;
  std::vector<std::shared_ptr<KeyPartition>> runs_;
};

class MergeRunsTask : public core::MITask<KeyPartition> {
 public:
  explicit MergeRunsTask(std::uint64_t chunk_bytes) : chunk_bytes_(chunk_bytes) {}

  void Initialize(core::TaskContext& ctx) override {
    output_ = std::make_shared<KeyPartition>(RunType(), ctx.heap(), ctx.spill());
  }
  void Process(core::TaskContext& ctx, const std::uint64_t& key) override {
    output_->Append(key);
    if (output_->PayloadBytes() >= chunk_bytes_) {
      // External-sort semantics: emit a bounded sorted run to the sink
      // instead of holding the whole range in memory.
      EmitChunkToSink(ctx);
      output_ = std::make_shared<KeyPartition>(RunType(), ctx.heap(), ctx.spill());
    }
  }
  void Interrupt(core::TaskContext& ctx) override {
    if (output_ != nullptr && output_->TupleCount() > 0) {
      std::sort(output_->mutable_tuples().begin(), output_->mutable_tuples().end());
      output_->set_tag(ctx.group_tag);
      ctx.Emit(std::move(output_));
    }
    output_.reset();
  }
  void Cleanup(core::TaskContext& ctx) override { EmitChunkToSink(ctx); }

 private:
  void EmitChunkToSink(core::TaskContext& ctx) {
    if (output_ != nullptr) {
      std::sort(output_->mutable_tuples().begin(), output_->mutable_tuples().end());
      // Tag the chunk with its merge group so the recovery sink gate can
      // match it to the committing activation. Harmless without FT.
      output_->set_tag(ctx.group_tag);
      ctx.EmitToSink(std::move(output_));
    }
    output_.reset();
  }
  std::uint64_t chunk_bytes_;
  std::shared_ptr<KeyPartition> output_;
};

AppResult RunHeapSortITask(cluster::Cluster& cluster, const AppConfig& config) {
  core::IrsConfig irs;
  irs.max_workers = config.max_workers;
  irs.trace_active = config.trace_active;
  irs.naive_restart = config.naive_restart;
  irs.random_victims = config.random_victims;
  cluster::ItaskJob job(cluster, irs, config.tenant);
  const int nodes = cluster.size();
  // Chunk size: a small fraction of the heap so merge output never dominates.
  const std::uint64_t chunk_bytes = cluster.config().heap.capacity_bytes / 16;

  core::RecoveryContext* rec = nullptr;
  if (config.fault_tolerance) {
    rec = &job.EnableFaultTolerance(&cluster.tracer());
    rec->set_trace_id(obs::TraceIdFromSeed(config.seed));
    rec->RegisterFactory(InType(), [](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<KeyPartition>(InType(), heap, spill);
    });
    rec->RegisterFactory(RunType(), [](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<KeyPartition>(RunType(), heap, spill);
    });
  }

  job.RegisterTaskPerNode([&](int node) {
    core::TaskSpec spec;
    spec.name = "hs.scatter";
    spec.input_type = InType();
    spec.output_type = RunType();
    spec.factory = [nodes] { return std::make_unique<ScatterTask>(nodes); };
    spec.route_output = [&job, rec, node](core::PartitionPtr out, bool /*at_interrupt*/) {
      const int home = static_cast<int>(out->tag());  // Tag == range-owning node.
      if (rec != nullptr) {
        rec->StageShuffle(node, home, std::move(out));
        return;
      }
      if (home == node) {
        job.runtime(home).Push(std::move(out));
      } else {
        job.runtime(home).PushRemote(std::move(out));  // Retries internally.
      }
    };
    return spec;
  });
  job.RegisterTaskPerNode([&](int /*node*/) {
    core::TaskSpec spec;
    spec.name = "hs.merge";
    spec.input_type = RunType();
    spec.output_type = RunType();
    spec.is_merge = true;
    spec.factory = [chunk_bytes] { return std::make_unique<MergeRunsTask>(chunk_bytes); };
    return spec;
  });

  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint64_t> records{0};
  std::atomic<bool> sorted{true};
  job.SetSinkPerNode([&](int /*node*/) {
    return [&](core::PartitionPtr out) {
      auto* run = static_cast<KeyPartition*>(out.get());
      std::uint64_t local = 0;
      for (std::size_t i = 0; i < run->TupleCount(); ++i) {
        local += KeyFingerprint(run->At(i));
        if (i > 0 && run->At(i - 1) > run->At(i)) {
          sorted.store(false, std::memory_order_relaxed);
        }
      }
      checksum.fetch_add(local, std::memory_order_relaxed);
      records.fetch_add(run->TupleCount(), std::memory_order_relaxed);
      out->DropPayload();
    };
  });

  AppResult result;
  const bool ok = job.Run([&] {
    PartitionFeeder<KeyPartition> feeder(
        cluster, InType(), config.granularity_bytes,
        [&](int node, core::PartitionPtr dp) { job.runtime(node).Push(std::move(dp)); });
    feeder.set_recovery(rec);
    FillKeys(config, feeder);
    feeder.Flush();
  }, config.deadline_ms);
  result.metrics = job.Metrics();
  result.metrics.succeeded = ok && sorted.load();
  result.audit_violations = MaybeAuditJob(job, ok);
  result.checksum = checksum.load();
  result.records = records.load();
  result.metrics.result_checksum = result.checksum;
  result.metrics.result_records = result.records;
  if (config.trace_active) {
    result.trace = job.runtime(0).trace();
    result.events = cluster.tracer().Snapshot();
  }
  return result;
}

// ---- Regular baseline ----

AppResult RunHeapSortRegular(cluster::Cluster& cluster, const AppConfig& config) {
  const int nodes = cluster.size();
  dataflow::StageQueues in_q(nodes);
  dataflow::StageQueues range_q(nodes);

  {
    PartitionFeeder<KeyPartition> feeder(
        cluster, InType(), config.granularity_bytes,
        [&](int node, core::PartitionPtr dp) { in_q.Push(node, std::move(dp)); });
    FillKeys(config, feeder);
    feeder.Flush();
    in_q.CloseAll();
  }

  dataflow::RegularHarness harness(cluster);
  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint64_t> records{0};
  std::atomic<bool> sorted{true};

  // Stage 1: scatter keys to their range-owning nodes.
  bool ok = harness.RunStage(config.threads, [&](int node, int /*thread*/) {
    auto& heap = cluster.node(node).heap();
    auto& spill = cluster.node(node).spill();
    std::vector<std::shared_ptr<KeyPartition>> runs(static_cast<std::size_t>(nodes));
    auto flush_run = [&](std::size_t n) {
      if (runs[n] != nullptr && runs[n]->TupleCount() > 0) {
        if (static_cast<int>(n) != node) {
          runs[n]->TransferTo(&cluster.node(static_cast<int>(n)).heap(),
                              &cluster.node(static_cast<int>(n)).spill());
        }
        range_q.Push(static_cast<int>(n), std::move(runs[n]));
      }
      runs[n].reset();
    };
    while (auto dp = in_q.Pop(node)) {
      if (harness.aborted()) {
        (*dp)->DropPayload();
        continue;
      }
      (*dp)->EnsureResident();
      auto* in = static_cast<KeyPartition*>(dp->get());
      for (std::size_t i = 0; i < in->TupleCount(); ++i) {
        memsim::HeapCharge temporaries(&heap, 64);  // Boxed-key churn.
        const std::uint64_t key = in->At(i);
        const auto n = static_cast<std::size_t>(RangeOwner(key, nodes));
        if (runs[n] == nullptr) {
          runs[n] = std::make_shared<KeyPartition>(RunType(), &heap, &spill);
        }
        runs[n]->Append(key);
      }
      (*dp)->DropPayload();
    }
    if (!harness.aborted()) {
      for (std::size_t n = 0; n < runs.size(); ++n) {
        flush_run(n);
      }
    }
  });
  range_q.CloseAll();

  // Stage 2: each node materializes its whole range and sorts it in memory.
  if (ok) {
    ok = harness.RunStage(1, [&](int node, int /*thread*/) {
      auto& heap = cluster.node(node).heap();
      KeyPartition all(RunType(), &heap, &cluster.node(node).spill());
      while (auto dp = range_q.Pop(node)) {
        if (harness.aborted()) {
          (*dp)->DropPayload();
          continue;
        }
        auto* run = static_cast<KeyPartition*>(dp->get());
        for (std::size_t i = 0; i < run->TupleCount(); ++i) {
          all.Append(run->At(i));
        }
        (*dp)->DropPayload();
      }
      if (harness.aborted()) {
        return;
      }
      std::sort(all.mutable_tuples().begin(), all.mutable_tuples().end());
      std::uint64_t local = 0;
      for (std::size_t i = 0; i < all.TupleCount(); ++i) {
        local += KeyFingerprint(all.At(i));
        if (i > 0 && all.At(i - 1) > all.At(i)) {
          sorted.store(false, std::memory_order_relaxed);
        }
      }
      checksum.fetch_add(local, std::memory_order_relaxed);
      records.fetch_add(all.TupleCount(), std::memory_order_relaxed);
    });
  }

  AppResult result;
  result.metrics = harness.Finish();
  result.metrics.succeeded = result.metrics.succeeded && sorted.load();
  result.checksum = checksum.load();
  result.records = records.load();
  result.metrics.result_checksum = result.checksum;
  result.metrics.result_records = result.records;
  return result;
}

}  // namespace

AppResult RunHeapSort(cluster::Cluster& cluster, const AppConfig& config, Mode mode) {
  return mode == Mode::kRegular ? RunHeapSortRegular(cluster, config)
                                : RunHeapSortITask(cluster, config);
}

}  // namespace itask::apps
