// HashJoin (HJ): TPC-H customers ⋈ orders on cust_key.
//
// ITask pipeline (bucket-wise join):
//   BuildScatter / ProbeScatter (ITasks): route both sides into per-node
//     bucket partitions of a union tuple type (build rows carry the nation,
//     probe rows carry the order key). Outputs are final results for the
//     bucket owner.
//   JoinBucket (MITask): accumulates a bucket's union tuples; on interrupt it
//     re-emits the accumulated state tagged with the same bucket (an
//     intermediate result); in cleanup it builds the hash table, probes, and
//     emits an aggregated join summary to the sink. Deferring the join to
//     cleanup makes processing commutative, which MITask inputs require.
//
// Regular baseline: classic two-phase hash join per node — materialize the
// full build table, then stream probes. The build table is the memory hog.
#include <atomic>
#include <unordered_map>

#include "apps/common.h"
#include "apps/hyracks_apps.h"
#include "cluster/itask_job.h"
#include "dataflow/regular.h"
#include "obs/span.h"
#include "workloads/tpch.h"

namespace itask::apps {
namespace {

constexpr std::uint64_t kTupleOverhead = 48;
constexpr std::uint64_t kTableEntryBytes = 56;  // Hash-table node per build row.
// Hash channels per node: finer join buckets bound each JoinBucket group's
// memory to a fraction of a node's share.
constexpr int kBucketsPerNode = 8;

struct UnionRow {
  std::uint64_t key = 0;      // cust_key
  std::uint64_t payload = 0;  // build: nation_key; probe: order_key
  std::uint8_t is_build = 0;
};

struct UnionTraits {
  using Tuple = UnionRow;
  static std::uint64_t SizeOf(const Tuple&) { return sizeof(UnionRow) + kTupleOverhead; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WritePod(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadPod<Tuple>(); }
};
using UnionPartition = core::VectorPartition<UnionTraits>;

struct CustomerRowTraits {
  using Tuple = workloads::Customer;
  static std::uint64_t SizeOf(const Tuple& t) { return t.name.size() + 16 + kTupleOverhead; }
  static void Write(serde::Writer& w, const Tuple& t) {
    w.WriteVarint(t.cust_key);
    w.WriteU32(t.nation_key);
    w.WriteString(t.name);
  }
  static Tuple Read(serde::Reader& r) {
    workloads::Customer c;
    c.cust_key = r.ReadVarint();
    c.nation_key = r.ReadU32();
    c.name = r.ReadString();
    return c;
  }
};
using CustomerPartition = core::VectorPartition<CustomerRowTraits>;

struct OrderRowTraits {
  using Tuple = workloads::Order;
  static std::uint64_t SizeOf(const Tuple&) { return sizeof(workloads::Order) + kTupleOverhead; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WritePod(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadPod<Tuple>(); }
};
using OrderPartition = core::VectorPartition<OrderRowTraits>;

struct JoinSummary {
  std::uint64_t matches = 0;
  std::uint64_t checksum = 0;
};

struct SummaryTraits {
  using Tuple = JoinSummary;
  static std::uint64_t SizeOf(const Tuple&) { return sizeof(JoinSummary) + kTupleOverhead; }
  static void Write(serde::Writer& w, const Tuple& t) { w.WritePod(t); }
  static Tuple Read(serde::Reader& r) { return r.ReadPod<Tuple>(); }
};
using SummaryPartition = core::VectorPartition<SummaryTraits>;

core::TypeId CustType() { return core::TypeIds::Get("hj.cust"); }
core::TypeId OrdType() { return core::TypeIds::Get("hj.ord"); }
core::TypeId BucketType() { return core::TypeIds::Get("hj.bucket"); }
core::TypeId ResType() { return core::TypeIds::Get("hj.res"); }

std::uint64_t JoinFingerprint(std::uint64_t order_key, std::uint64_t cust_key,
                              std::uint64_t nation) {
  return MixU64(MixU64(order_key) ^ MixU64(cust_key) ^ nation);
}

// Scatters one input side into per-bucket union partitions; bucket b is
// owned by node b % nodes.
template <typename InPartition, bool kIsBuild>
class ScatterSide : public core::ITask<InPartition> {
 public:
  explicit ScatterSide(int nodes)
      : nodes_(nodes), buckets_(static_cast<std::size_t>(nodes * kBucketsPerNode)) {}

  void Initialize(core::TaskContext& /*ctx*/) override {}

  void Process(core::TaskContext& ctx, const typename InPartition::Tuple& row) override {
    memsim::HeapCharge temporaries(ctx.heap(), 128);  // Row-object churn.
    UnionRow u;
    if constexpr (kIsBuild) {
      u.key = row.cust_key;
      u.payload = row.nation_key;
      u.is_build = 1;
    } else {
      u.key = row.cust_key;
      u.payload = row.order_key;
      u.is_build = 0;
    }
    const auto n = static_cast<std::size_t>(MixU64(u.key) %
                                            static_cast<std::uint64_t>(buckets_.size()));
    if (buckets_[n] == nullptr) {
      buckets_[n] = std::make_shared<UnionPartition>(BucketType(), ctx.heap(), ctx.spill());
      buckets_[n]->set_tag(static_cast<core::Tag>(n));
    }
    buckets_[n]->Append(u);
  }
  void Interrupt(core::TaskContext& ctx) override { Ship(ctx); }
  void Cleanup(core::TaskContext& ctx) override { Ship(ctx); }

 private:
  void Ship(core::TaskContext& ctx) {
    for (auto& bucket : buckets_) {
      if (bucket != nullptr && bucket->TupleCount() > 0) {
        ctx.Emit(std::move(bucket));
      }
      bucket.reset();
    }
  }
  int nodes_;
  std::vector<std::shared_ptr<UnionPartition>> buckets_;
};

class JoinBucketTask : public core::MITask<UnionPartition> {
 public:
  void Initialize(core::TaskContext& ctx) override {
    state_ = std::make_shared<UnionPartition>(BucketType(), ctx.heap(), ctx.spill());
  }
  void Process(core::TaskContext& /*ctx*/, const UnionRow& row) override { state_->Append(row); }
  void Interrupt(core::TaskContext& ctx) override {
    if (state_ != nullptr && state_->TupleCount() > 0) {
      state_->set_tag(ctx.group_tag);
      ctx.Emit(std::move(state_));
    }
    state_.reset();
  }
  void Cleanup(core::TaskContext& ctx) override {
    // Build, probe, aggregate. The table charge models the join operator's
    // hash table; an OME here falls back to the interrupt path (state is
    // re-queued, retried after relief).
    memsim::HeapCharge table_charge(ctx.heap(), 0);
    std::unordered_map<std::uint64_t, std::uint64_t> table;
    for (std::size_t i = 0; i < state_->TupleCount(); ++i) {
      const UnionRow& row = state_->At(i);
      if (row.is_build != 0) {
        table_charge.Add(kTableEntryBytes);
        table.emplace(row.key, row.payload);
      }
    }
    JoinSummary summary;
    for (std::size_t i = 0; i < state_->TupleCount(); ++i) {
      const UnionRow& row = state_->At(i);
      if (row.is_build == 0) {
        auto it = table.find(row.key);
        if (it != table.end()) {
          ++summary.matches;
          summary.checksum += JoinFingerprint(row.payload, row.key, it->second);
        }
      }
    }
    auto out = std::make_shared<SummaryPartition>(ResType(), ctx.heap(), ctx.spill());
    // Tag the summary with its merge group so the recovery sink gate can
    // match it to the committing activation. Harmless without FT.
    out->set_tag(ctx.group_tag);
    out->Append(summary);
    ctx.EmitToSink(std::move(out));
    state_->DropPayload();
    state_.reset();
  }

 private:
  std::shared_ptr<UnionPartition> state_;
};

void FillCustomers(const AppConfig& config, PartitionFeeder<CustomerPartition>& feeder) {
  workloads::TpchConfig tc;
  tc.seed = config.seed;
  tc.scale = config.tpch_scale;
  workloads::ForEachCustomer(tc, [&](const workloads::Customer& c) {
    const std::uint64_t bytes = CustomerRowTraits::SizeOf(c);
    feeder.Add(c, bytes);
  });
}

void FillOrders(const AppConfig& config, PartitionFeeder<OrderPartition>& feeder) {
  workloads::TpchConfig tc;
  tc.seed = config.seed;
  tc.scale = config.tpch_scale;
  workloads::ForEachOrder(tc,
                          [&](const workloads::Order& o) { feeder.Add(o, sizeof(o) + 48); });
}

AppResult RunHashJoinITask(cluster::Cluster& cluster, const AppConfig& config) {
  core::IrsConfig irs;
  irs.max_workers = config.max_workers;
  irs.trace_active = config.trace_active;
  irs.naive_restart = config.naive_restart;
  irs.random_victims = config.random_victims;
  cluster::ItaskJob job(cluster, irs, config.tenant);

  const int nodes_total = cluster.size();
  core::RecoveryContext* rec = nullptr;
  if (config.fault_tolerance) {
    rec = &job.EnableFaultTolerance(&cluster.tracer());
    rec->set_trace_id(obs::TraceIdFromSeed(config.seed));
    rec->RegisterFactory(CustType(), [](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<CustomerPartition>(CustType(), heap, spill);
    });
    rec->RegisterFactory(OrdType(), [](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<OrderPartition>(OrdType(), heap, spill);
    });
    rec->RegisterFactory(BucketType(), [](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<UnionPartition>(BucketType(), heap, spill);
    });
    rec->RegisterFactory(ResType(), [](memsim::ManagedHeap* heap, serde::SpillManager* spill) {
      return std::make_shared<SummaryPartition>(ResType(), heap, spill);
    });
  }
  auto route_bucket = [&job, rec, nodes_total](int node) {
    return [&job, rec, node, nodes_total](core::PartitionPtr out, bool /*at_interrupt*/) {
      const int home = static_cast<int>(out->tag()) % nodes_total;
      if (rec != nullptr) {
        rec->StageShuffle(node, home, std::move(out));
        return;
      }
      if (home == node) {
        job.runtime(home).Push(std::move(out));
      } else {
        job.runtime(home).PushRemote(std::move(out));
      }
    };
  };

  const int nodes = cluster.size();
  job.RegisterTaskPerNode([&](int node) {
    core::TaskSpec spec;
    spec.name = "hj.build_scatter";
    spec.input_type = CustType();
    spec.output_type = BucketType();
    spec.factory = [nodes] {
      return std::make_unique<ScatterSide<CustomerPartition, /*kIsBuild=*/true>>(nodes);
    };
    spec.route_output = route_bucket(node);
    return spec;
  });
  job.RegisterTaskPerNode([&](int node) {
    core::TaskSpec spec;
    spec.name = "hj.probe_scatter";
    spec.input_type = OrdType();
    spec.output_type = BucketType();
    spec.factory = [nodes] {
      return std::make_unique<ScatterSide<OrderPartition, /*kIsBuild=*/false>>(nodes);
    };
    spec.route_output = route_bucket(node);
    return spec;
  });
  job.RegisterTaskPerNode([&](int /*node*/) {
    core::TaskSpec spec;
    spec.name = "hj.join";
    spec.input_type = BucketType();
    spec.output_type = BucketType();
    spec.is_merge = true;
    spec.factory = [] { return std::make_unique<JoinBucketTask>(); };
    return spec;
  });

  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint64_t> matches{0};
  job.SetSinkPerNode([&](int /*node*/) {
    return [&](core::PartitionPtr out) {
      auto* res = static_cast<SummaryPartition*>(out.get());
      for (std::size_t i = 0; i < res->TupleCount(); ++i) {
        checksum.fetch_add(res->At(i).checksum, std::memory_order_relaxed);
        matches.fetch_add(res->At(i).matches, std::memory_order_relaxed);
      }
      out->DropPayload();
    };
  });

  AppResult result;
  const bool ok = job.Run([&] {
    PartitionFeeder<CustomerPartition> cust_feeder(
        cluster, CustType(), config.granularity_bytes,
        [&](int node, core::PartitionPtr dp) { job.runtime(node).Push(std::move(dp)); });
    cust_feeder.set_recovery(rec);
    FillCustomers(config, cust_feeder);
    cust_feeder.Flush();
    PartitionFeeder<OrderPartition> ord_feeder(
        cluster, OrdType(), config.granularity_bytes,
        [&](int node, core::PartitionPtr dp) { job.runtime(node).Push(std::move(dp)); });
    ord_feeder.set_recovery(rec);
    FillOrders(config, ord_feeder);
    ord_feeder.Flush();
  }, config.deadline_ms);
  result.metrics = job.Metrics();
  result.metrics.succeeded = ok;
  result.audit_violations = MaybeAuditJob(job, ok);
  result.checksum = checksum.load();
  result.records = matches.load();
  result.metrics.result_checksum = result.checksum;
  result.metrics.result_records = result.records;
  if (config.trace_active) {
    result.trace = job.runtime(0).trace();
    result.events = cluster.tracer().Snapshot();
  }
  return result;
}

AppResult RunHashJoinRegular(cluster::Cluster& cluster, const AppConfig& config) {
  const int nodes = cluster.size();
  dataflow::StageQueues cust_q(nodes);
  dataflow::StageQueues ord_q(nodes);
  dataflow::StageQueues build_q(nodes);
  dataflow::StageQueues probe_q(nodes);

  {
    PartitionFeeder<CustomerPartition> cust_feeder(
        cluster, CustType(), config.granularity_bytes,
        [&](int node, core::PartitionPtr dp) { cust_q.Push(node, std::move(dp)); });
    FillCustomers(config, cust_feeder);
    cust_feeder.Flush();
    cust_q.CloseAll();
    PartitionFeeder<OrderPartition> ord_feeder(
        cluster, OrdType(), config.granularity_bytes,
        [&](int node, core::PartitionPtr dp) { ord_q.Push(node, std::move(dp)); });
    FillOrders(config, ord_feeder);
    ord_feeder.Flush();
    ord_q.CloseAll();
  }

  dataflow::RegularHarness harness(cluster);
  std::atomic<std::uint64_t> checksum{0};
  std::atomic<std::uint64_t> matches{0};

  auto scatter = [&](dataflow::StageQueues& in_q, dataflow::StageQueues& out_q, bool is_build) {
    return [&, is_build](int node, int /*thread*/) {
      auto& heap = cluster.node(node).heap();
      auto& spill = cluster.node(node).spill();
      std::vector<std::shared_ptr<UnionPartition>> buckets(
          static_cast<std::size_t>(nodes * kBucketsPerNode));
      while (auto dp = in_q.Pop(node)) {
        if (harness.aborted()) {
          (*dp)->DropPayload();
          continue;
        }
        (*dp)->EnsureResident();
        auto emit_row = [&](UnionRow u) {
          memsim::HeapCharge temporaries(&heap, 128);  // Row-object churn.
          const auto n = static_cast<std::size_t>(
              MixU64(u.key) % static_cast<std::uint64_t>(buckets.size()));
          if (buckets[n] == nullptr) {
            buckets[n] = std::make_shared<UnionPartition>(BucketType(), &heap, &spill);
          }
          buckets[n]->Append(u);
        };
        if (is_build) {
          auto* in = static_cast<CustomerPartition*>(dp->get());
          for (std::size_t i = 0; i < in->TupleCount(); ++i) {
            emit_row({in->At(i).cust_key, in->At(i).nation_key, 1});
          }
        } else {
          auto* in = static_cast<OrderPartition*>(dp->get());
          for (std::size_t i = 0; i < in->TupleCount(); ++i) {
            emit_row({in->At(i).cust_key, in->At(i).order_key, 0});
          }
        }
        (*dp)->DropPayload();
      }
      if (!harness.aborted()) {
        for (std::size_t b = 0; b < buckets.size(); ++b) {
          auto& bucket = buckets[b];
          if (bucket != nullptr && bucket->TupleCount() > 0) {
            const int target = static_cast<int>(b) % nodes;
            if (target != node) {
              bucket->TransferTo(&cluster.node(target).heap(), &cluster.node(target).spill());
            }
            out_q.Push(target, std::move(bucket));
          }
        }
      }
    };
  };

  // Phase 1: scatter and build the per-node customer table.
  bool ok = harness.RunStage(config.threads, scatter(cust_q, build_q, /*is_build=*/true));
  build_q.CloseAll();

  std::vector<std::unordered_map<std::uint64_t, std::uint64_t>> tables(
      static_cast<std::size_t>(nodes));
  std::vector<memsim::HeapCharge> table_charges;
  table_charges.reserve(static_cast<std::size_t>(nodes));
  for (int n = 0; n < nodes; ++n) {
    table_charges.emplace_back(&cluster.node(n).heap(), 0);
  }
  if (ok) {
    ok = harness.RunStage(1, [&](int node, int /*thread*/) {
      auto& table = tables[static_cast<std::size_t>(node)];
      auto& charge = table_charges[static_cast<std::size_t>(node)];
      while (auto dp = build_q.Pop(node)) {
        if (harness.aborted()) {
          (*dp)->DropPayload();
          continue;
        }
        auto* bucket = static_cast<UnionPartition*>(dp->get());
        for (std::size_t i = 0; i < bucket->TupleCount(); ++i) {
          charge.Add(kTableEntryBytes);
          table.emplace(bucket->At(i).key, bucket->At(i).payload);
        }
        (*dp)->DropPayload();
      }
    });
  }

  // Phase 2: scatter orders and probe against the resident tables.
  if (ok) {
    ok = harness.RunStage(config.threads, scatter(ord_q, probe_q, /*is_build=*/false));
  }
  probe_q.CloseAll();
  if (ok) {
    ok = harness.RunStage(config.threads, [&](int node, int /*thread*/) {
      const auto& table = tables[static_cast<std::size_t>(node)];
      std::uint64_t local_sum = 0;
      std::uint64_t local_matches = 0;
      while (auto dp = probe_q.Pop(node)) {
        if (harness.aborted()) {
          (*dp)->DropPayload();
          continue;
        }
        auto* bucket = static_cast<UnionPartition*>(dp->get());
        for (std::size_t i = 0; i < bucket->TupleCount(); ++i) {
          const UnionRow& row = bucket->At(i);
          auto it = table.find(row.key);
          if (it != table.end()) {
            ++local_matches;
            local_sum += JoinFingerprint(row.payload, row.key, it->second);
          }
        }
        (*dp)->DropPayload();
      }
      checksum.fetch_add(local_sum, std::memory_order_relaxed);
      matches.fetch_add(local_matches, std::memory_order_relaxed);
    });
  }

  AppResult result;
  result.metrics = harness.Finish();
  result.checksum = checksum.load();
  result.records = matches.load();
  result.metrics.result_checksum = result.checksum;
  result.metrics.result_records = result.records;
  return result;
}

}  // namespace

AppResult RunHashJoin(cluster::Cluster& cluster, const AppConfig& config, Mode mode) {
  return mode == Mode::kRegular ? RunHashJoinRegular(cluster, config)
                                : RunHashJoinITask(cluster, config);
}

}  // namespace itask::apps
