// Generic key-aggregation application — the pipeline shape shared by
// WordCount, InvertedIndex, GroupBy and most of the reproduced Hadoop
// problems (paper §4.2's WordCount walkthrough generalized):
//
//   Map (ITask)    : input tuples -> local key-aggregated partition; outputs
//                    are FINAL results, shuffled to the owning node at
//                    interrupt or cleanup (paper Fig. 6).
//   Reduce (ITask) : bucket partitions -> per-bucket aggregate; outputs are
//                    INTERMEDIATE results tagged with the bucket id
//                    (paper Fig. 7).
//   Merge (MITask) : same-tag intermediates -> final aggregate -> sink.
//
// The regular baseline runs the same logic Hyracks-style: fixed threads per
// node with persistent per-thread hash state, a blocking shuffle, and no
// interrupt/spill machinery — an OME crashes the job.
//
// An App policy type provides:
//   kName                  — unique short name used for partition type ids.
//   InTraits               — VectorPartition traits of the input tuples.
//   KVTraits               — HashAggPartition traits of the aggregate.
//   MapTuple(out, t, heap) — folds one input tuple into the aggregate
//                            (may upsert several keys; may allocate managed
//                            temporaries that can throw OutOfMemoryError).
//   MergeValue(into, from) — combines partial values; returns the managed
//                            byte delta caused by the merge.
//   HashKey(key)           — shuffle hash.
//   FingerprintEntry(k, v) — commutative result fingerprint contribution.
//   InstanceOverheadBytes()— per-operator-instance fixed charge (e.g. the
//                            side table MSA loads in every Map instance).
//   FillInput(cluster, config, feeder) — generates the input partitions.
#ifndef ITASK_APPS_AGG_APP_H_
#define ITASK_APPS_AGG_APP_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "apps/common.h"
#include "cluster/itask_job.h"
#include "dataflow/regular.h"
#include "obs/span.h"

namespace itask::apps {

template <typename App>
class AggApp {
 public:
  using InTraits = typename App::InTraits;
  using KVTraits = typename App::KVTraits;
  using InPartition = core::VectorPartition<InTraits>;
  using AggPartition = core::HashAggPartition<KVTraits>;
  using InTuple = typename InTraits::Tuple;
  using Key = typename KVTraits::Key;
  using Value = typename KVTraits::Value;

  static AppResult Run(cluster::Cluster& cluster, const AppConfig& config, Mode mode) {
    return mode == Mode::kRegular ? RunRegular(cluster, config) : RunITask(cluster, config);
  }

  // ---- Type ids (global registry; stable within the process) ----
  static core::TypeId InType() { return core::TypeIds::Get(std::string(App::kName) + ".in"); }
  static core::TypeId MapOutType() { return core::TypeIds::Get(std::string(App::kName) + ".map"); }
  static core::TypeId BucketType() {
    return core::TypeIds::Get(std::string(App::kName) + ".bucket");
  }
  static core::TypeId AggType() { return core::TypeIds::Get(std::string(App::kName) + ".agg"); }

  // Hash channels per node (Hyracks-style). Finer buckets bound the peak
  // memory of each merge group to ~1/kBucketsPerNode of a node's share, which
  // is what lets the ITask versions aggregate datasets larger than the heap.
  static constexpr int kBucketsPerNode = 8;

  // Splits a local aggregate by key hash into per-bucket partitions (created
  // on the source node's services), releasing the source incrementally.
  // Bucket b lives on node b % nodes; the partition is tagged with b.
  // |ship| receives (target_node, partition).
  template <typename Ship>
  static void SplitAndShip(AggPartition* src, int nodes, bool with_retry, const Ship& ship) {
    const int total_buckets = nodes * kBucketsPerNode;
    src->Freeze();
    std::vector<std::shared_ptr<AggPartition>> buckets(static_cast<std::size_t>(total_buckets));
    while (src->TupleCount() > 0) {
      const std::size_t batch = std::min<std::size_t>(src->TupleCount(), 128);
      for (std::size_t i = 0; i < batch; ++i) {
        auto& entry = src->MutableAt(i);
        const auto n = static_cast<std::size_t>(App::HashKey(entry.first) %
                                                static_cast<std::uint64_t>(total_buckets));
        auto& bucket = buckets[n];
        auto insert = [&] {
          if (bucket == nullptr) {
            bucket = std::make_shared<AggPartition>(BucketType(), src->heap(),
                                                    src->spill_manager());
            bucket->set_tag(static_cast<core::Tag>(n));
          }
          // MergeEntry gives the strong exception guarantee, so RetryOnOme
          // never double-applies a merge.
          bucket->MergeEntry(entry.first, entry.second, [](Value& into, const Value& from) {
            return App::MergeValue(into, from);
          });
        };
        if (with_retry) {
          RetryOnOme(insert);
        } else {
          insert();
        }
      }
      src->set_cursor(batch);
      src->ReleaseProcessedPrefix();
    }
    src->DropPayload();
    for (int b = 0; b < total_buckets; ++b) {
      auto& bucket = buckets[static_cast<std::size_t>(b)];
      if (bucket != nullptr && bucket->TupleCount() > 0) {
        ship(b % nodes, std::move(bucket));
      }
    }
  }

  // ---- ITask pipeline (paper Figures 6 and 7) ----

  // Map-side output routed by key hash into per-channel partitions as it is
  // built (like Hyracks writing into per-connection frames). Emission at an
  // interrupt is then just a queue push — no allocation inside the interrupt
  // handler, so an interrupted map releases memory immediately.
  class BucketedOutput {
   public:
    BucketedOutput(int total_buckets, memsim::ManagedHeap* heap, serde::SpillManager* spill)
        : heap_(heap), spill_(spill), buckets_(static_cast<std::size_t>(total_buckets)) {}

    template <typename Update>
    void Upsert(const Key& key, Update&& update) {
      const auto b = static_cast<std::size_t>(App::HashKey(key) %
                                              static_cast<std::uint64_t>(buckets_.size()));
      auto& bucket = buckets_[b];
      if (bucket == nullptr) {
        bucket = std::make_shared<AggPartition>(BucketType(), heap_, spill_);
        bucket->set_tag(static_cast<core::Tag>(b));
      }
      bucket->Upsert(key, std::forward<Update>(update));
    }

    std::vector<std::shared_ptr<AggPartition>>& buckets() { return buckets_; }

   private:
    memsim::ManagedHeap* heap_;
    serde::SpillManager* spill_;
    std::vector<std::shared_ptr<AggPartition>> buckets_;
  };

  class MapTask : public core::ITask<InPartition> {
   public:
    explicit MapTask(int total_buckets) : total_buckets_(total_buckets) {}

    void Initialize(core::TaskContext& ctx) override {
      overhead_ = memsim::HeapCharge(ctx.heap(), App::InstanceOverheadBytes());
      output_ = std::make_unique<BucketedOutput>(total_buckets_, ctx.heap(), ctx.spill());
    }
    void Process(core::TaskContext& ctx, const InTuple& tuple) override {
      App::MapTuple(*output_, tuple, ctx.heap());
    }
    void Interrupt(core::TaskContext& ctx) override { EmitOutput(ctx); }
    void Cleanup(core::TaskContext& ctx) override { EmitOutput(ctx); }

   private:
    void EmitOutput(core::TaskContext& ctx) {
      for (auto& bucket : output_->buckets()) {
        if (bucket != nullptr && bucket->TupleCount() > 0) {
          ctx.Emit(std::move(bucket));  // Final result: goes to the shuffle.
        }
        bucket.reset();
      }
      output_.reset();
    }
    int total_buckets_;
    std::unique_ptr<BucketedOutput> output_;
    memsim::HeapCharge overhead_;
  };

  class MergeTask : public core::MITask<AggPartition> {
   public:
    void Initialize(core::TaskContext& ctx) override {
      output_ = std::make_shared<AggPartition>(BucketType(), ctx.heap(), ctx.spill());
    }
    void Process(core::TaskContext& /*ctx*/, const std::pair<Key, Value>& entry) override {
      output_->MergeEntry(entry.first, entry.second, [](Value& into, const Value& from) {
        return App::MergeValue(into, from);
      });
    }
    void Interrupt(core::TaskContext& ctx) override {
      if (output_ != nullptr && output_->TupleCount() > 0) {
        output_->set_tag(ctx.group_tag);  // Becomes its own input (paper Fig. 7).
        ctx.Emit(std::move(output_));
      }
      output_.reset();
    }
    void Cleanup(core::TaskContext& ctx) override {
      if (output_ != nullptr) {
        // Tag the chunk with its merge group so the recovery sink gate can
        // match it to the committing activation. Harmless without FT.
        output_->set_tag(ctx.group_tag);
      }
      ctx.EmitToSink(std::move(output_));  // The paper's outputToHDFS.
    }

   private:
    std::shared_ptr<AggPartition> output_;
  };

  static AppResult RunITask(cluster::Cluster& cluster, const AppConfig& config) {
    core::IrsConfig irs;
    irs.max_workers = config.max_workers;
    irs.trace_active = config.trace_active;
    irs.naive_restart = config.naive_restart;
    irs.random_victims = config.random_victims;
    cluster::ItaskJob job(cluster, irs, config.tenant);
    const int nodes = cluster.size();

    core::RecoveryContext* rec = nullptr;
    if (config.fault_tolerance) {
      rec = &job.EnableFaultTolerance(&cluster.tracer());
      rec->set_trace_id(obs::TraceIdFromSeed(config.seed));
      rec->RegisterFactory(InType(),
                           [](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
                             return std::make_shared<InPartition>(InType(), heap, spill);
                           });
      rec->RegisterFactory(BucketType(),
                           [](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
                             return std::make_shared<AggPartition>(BucketType(), heap, spill);
                           });
    }

    job.RegisterTaskPerNode([&](int node) {
      core::TaskSpec spec;
      spec.name = std::string(App::kName) + ".map";
      spec.input_type = InType();
      spec.output_type = BucketType();
      const int total_buckets = nodes * kBucketsPerNode;
      spec.factory = [total_buckets] { return std::make_unique<MapTask>(total_buckets); };
      // Channel b is owned by node b % nodes.
      spec.route_output = [&job, rec, nodes, node](core::PartitionPtr out,
                                                   bool /*at_interrupt*/) {
        const int home = static_cast<int>(out->tag()) % nodes;
        if (rec != nullptr) {
          // Stage in the shuffle ledger; delivery happens when the producing
          // split commits, to the effective owner of the home range.
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
    // The channel aggregation runs as one MITask per bucket tag — the
    // paper's Reduce/Merge pair collapses into the merge here because an
    // activation-per-partition reduce would be a pure relabeling pass.
    job.RegisterTaskPerNode([&](int /*node*/) {
      core::TaskSpec spec;
      spec.name = std::string(App::kName) + ".merge";
      spec.input_type = BucketType();
      spec.output_type = BucketType();
      spec.is_merge = true;
      spec.factory = [] { return std::make_unique<MergeTask>(); };
      return spec;
    });

    AppResult result;
    std::atomic<std::uint64_t> checksum{0};
    std::atomic<std::uint64_t> records{0};
    job.SetSinkPerNode([&](int /*node*/) {
      return [&](core::PartitionPtr out) {
        auto* agg = static_cast<AggPartition*>(out.get());
        agg->Freeze();
        std::uint64_t local = 0;
        for (std::size_t i = 0; i < agg->TupleCount(); ++i) {
          local += App::FingerprintEntry(agg->At(i).first, agg->At(i).second);
        }
        checksum.fetch_add(local, std::memory_order_relaxed);
        records.fetch_add(agg->TupleCount(), std::memory_order_relaxed);
        out->DropPayload();
      };
    });

    const bool ok = job.Run([&] {
      PartitionFeeder<InPartition> feeder(
          cluster, InType(), config.granularity_bytes,
          [&](int node, core::PartitionPtr dp) { job.runtime(node).Push(std::move(dp)); });
      feeder.set_recovery(rec);
      App::FillInput(cluster, config, feeder);
      feeder.Flush();
    }, config.deadline_ms);

    result.metrics = job.Metrics();
    result.metrics.succeeded = ok;
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

  // ---- Regular baseline (fixed threads, blocking shuffle, no interrupts) ----

  static AppResult RunRegular(cluster::Cluster& cluster, const AppConfig& config) {
    const int nodes = cluster.size();
    dataflow::StageQueues in_q(nodes);
    dataflow::StageQueues bucket_q(nodes);

    {
      PartitionFeeder<InPartition> feeder(
          cluster, InType(), config.granularity_bytes,
          [&](int node, core::PartitionPtr dp) { in_q.Push(node, std::move(dp)); });
      App::FillInput(cluster, config, feeder);
      feeder.Flush();
      in_q.CloseAll();
    }

    dataflow::RegularHarness harness(cluster);
    AppResult result;
    std::atomic<std::uint64_t> checksum{0};
    std::atomic<std::uint64_t> records{0};

    // Stage 1: map with persistent per-thread state, then blocking shuffle.
    bool ok = harness.RunStage(config.threads, [&](int node, int /*thread*/) {
      auto& heap = cluster.node(node).heap();
      auto& spill = cluster.node(node).spill();
      memsim::HeapCharge overhead(&heap, App::InstanceOverheadBytes());
      AggPartition local(MapOutType(), &heap, &spill);
      while (auto dp = in_q.Pop(node)) {
        if (harness.aborted()) {
          (*dp)->DropPayload();
          continue;
        }
        (*dp)->EnsureResident();
        auto* in = static_cast<InPartition*>(dp->get());
        for (std::size_t i = 0; i < in->TupleCount(); ++i) {
          App::MapTuple(local, in->At(i), &heap);
        }
        (*dp)->DropPayload();
      }
      if (!harness.aborted()) {
        SplitAndShip(&local, nodes, /*with_retry=*/false,
                     [&](int target, std::shared_ptr<AggPartition> bucket) {
                       if (target != node) {
                         bucket->TransferTo(&cluster.node(target).heap(),
                                            &cluster.node(target).spill());
                       }
                       bucket_q.Push(target, std::move(bucket));
                     });
      }
    });
    bucket_q.CloseAll();

    // Stage 2: reduce into per-thread partials.
    std::vector<std::vector<std::shared_ptr<AggPartition>>> partials(
        static_cast<std::size_t>(nodes));
    std::mutex partials_mu;
    if (ok) {
      ok = harness.RunStage(config.threads, [&](int node, int /*thread*/) {
        auto& heap = cluster.node(node).heap();
        auto local = std::make_shared<AggPartition>(AggType(), &heap, &cluster.node(node).spill());
        while (auto dp = bucket_q.Pop(node)) {
          if (harness.aborted()) {
            (*dp)->DropPayload();
            continue;
          }
          auto* bucket = static_cast<AggPartition*>(dp->get());
          bucket->Freeze();
          for (std::size_t i = 0; i < bucket->TupleCount(); ++i) {
            local->MergeEntry(bucket->At(i).first, bucket->At(i).second,
                              [](Value& into, const Value& from) {
                                return App::MergeValue(into, from);
                              });
          }
          (*dp)->DropPayload();
        }
        if (!harness.aborted() && local->TupleCount() > 0) {
          std::lock_guard lock(partials_mu);
          partials[static_cast<std::size_t>(node)].push_back(std::move(local));
        }
      });
    }

    // Stage 3: single-threaded node merge + fingerprint.
    if (ok) {
      ok = harness.RunStage(1, [&](int node, int /*thread*/) {
        auto& heap = cluster.node(node).heap();
        AggPartition final_agg(AggType(), &heap, &cluster.node(node).spill());
        for (auto& partial : partials[static_cast<std::size_t>(node)]) {
          partial->Freeze();
          for (std::size_t i = 0; i < partial->TupleCount(); ++i) {
            final_agg.MergeEntry(partial->At(i).first, partial->At(i).second,
                                 [](Value& into, const Value& from) {
                                   return App::MergeValue(into, from);
                                 });
          }
          partial->DropPayload();
        }
        final_agg.Freeze();
        std::uint64_t local_sum = 0;
        for (std::size_t i = 0; i < final_agg.TupleCount(); ++i) {
          local_sum += App::FingerprintEntry(final_agg.At(i).first, final_agg.At(i).second);
        }
        checksum.fetch_add(local_sum, std::memory_order_relaxed);
        records.fetch_add(final_agg.TupleCount(), std::memory_order_relaxed);
      });
    }
    partials.clear();

    result.metrics = harness.Finish();
    result.checksum = checksum.load();
    result.records = records.load();
    result.metrics.result_checksum = result.checksum;
    result.metrics.result_records = result.records;
    return result;
  }
};

}  // namespace itask::apps

#endif  // ITASK_APPS_AGG_APP_H_
