// Shared plumbing for the evaluated applications (paper §6): run configs,
// result fingerprints, input feeding, and pressure-tolerant retry.
#ifndef ITASK_APPS_COMMON_H_
#define ITASK_APPS_COMMON_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "chaos/auditor.h"
#include "chaos/chaos.h"
#include "cluster/cluster.h"
#include "cluster/itask_job.h"
#include "common/metrics.h"
#include "itask/recovery.h"
#include "itask/runtime.h"
#include "itask/typed_partition.h"
#include "memsim/managed_heap.h"

namespace itask::apps {

enum class Mode {
  kRegular,  // Fixed-parallelism baseline; OME crashes the job.
  kITask,    // IRS-managed interruptible execution.
};

struct AppConfig {
  std::uint64_t dataset_bytes = 8 << 20;  // Text/graph-style inputs.
  double tpch_scale = 1.0;                // HJ/GR inputs.
  int threads = 8;                        // Regular-mode threads per node.
  int max_workers = 8;                    // ITask-mode worker cap per node.
  std::uint64_t granularity_bytes = 32 << 10;  // Input partition size (#T in Table 5).
  std::uint64_t seed = 42;
  bool trace_active = false;  // Record the Figure-11c worker trace.
  // ITask-mode wall-clock deadline (0 = none). Guards against inputs whose
  // final aggregate genuinely cannot fit the heap.
  double deadline_ms = 0.0;
  // Policy ablations (see IrsConfig).
  bool naive_restart = false;
  bool random_victims = false;
  // Node-failure recovery (ITask mode only; DESIGN.md §11). When set, input
  // splits are registered with the durable store, the shuffle is routed
  // through the recovery ledger, and sink output is gated on merge commits —
  // so the job survives the node faults in the cluster's fault plan
  // (ClusterConfig::faults), which a job without it rejects.
  bool fault_tolerance = false;
  // Tenant identity when this app runs as one job among several on a shared
  // cluster (set by jobsvc::JobService). Default: single-tenant, no budget.
  cluster::TenantBinding tenant;
};

struct AppResult {
  common::RunMetrics metrics;
  std::uint64_t checksum = 0;  // Order-independent result fingerprint.
  std::uint64_t records = 0;   // Final result records.
  std::vector<core::IrsRuntime::TraceSample> trace;  // Node 0, if enabled.
  // Full cluster-wide event stream (trace_active runs only) — feed it to
  // obs::WriteChromeTrace / WriteTraceSummary or tools/trace_dump.
  std::vector<obs::Event> events;
  // IrsAuditor findings from the job-end invariant audit. Populated only when
  // chaos auditing is enabled (chaos::AuditEnabled()); empty means clean.
  std::vector<std::string> audit_violations;
};

// Runs the IrsAuditor over a finished ITask job when chaos auditing is on.
// |drained| is job.Run()'s return value (the C2 "everything drained" checks
// only apply to a successful run). Called by each app's ITask runner — the
// coordinator cannot do it without inverting the core/chaos layering.
inline std::vector<std::string> MaybeAuditJob(cluster::ItaskJob& job, bool drained) {
  if (!chaos::AuditEnabled()) {
    return {};
  }
  return chaos::IrsAuditor::AuditJobEnd(job, drained);
}

// 64-bit mixer (splitmix finalizer) for fingerprints.
inline std::uint64_t MixU64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

inline std::uint64_t HashBytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a 64.
  for (std::size_t i = 0; i < n; ++i) {
    h = (h ^ p[i]) * 1099511628211ULL;
  }
  return h;
}

inline std::uint64_t HashString(const std::string& s) { return HashBytes(s.data(), s.size()); }

// Retries an allocation-heavy closure under memory pressure. Used on paths
// that must eventually succeed (interrupt-time shuffles): the IRS keeps
// relieving pressure on other threads while this one backs off.
template <typename Fn>
void RetryOnOme(Fn&& fn, int max_attempts = 20'000) {
  for (int attempt = 0;; ++attempt) {
    try {
      fn();
      return;
    } catch (const memsim::OutOfMemoryError&) {
      if (attempt >= max_attempts) {
        throw;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

// Builds disk-resident input partitions of a fixed granularity and deals them
// round-robin across nodes (HDFS-style block placement).
template <typename Partition>
class PartitionFeeder {
 public:
  using Tuple = typename Partition::Tuple;

  PartitionFeeder(cluster::Cluster& cluster, core::TypeId type, std::uint64_t granularity_bytes,
                  std::function<void(int node, core::PartitionPtr)> push)
      : cluster_(cluster),
        type_(type),
        granularity_(granularity_bytes),
        push_(std::move(push)) {}

  void Add(Tuple tuple, std::uint64_t approx_bytes) {
    if (current_ == nullptr) {
      current_ = std::make_shared<Partition>(type_, &cluster_.node(next_node_).heap(),
                                             &cluster_.node(next_node_).spill());
    }
    current_->Append(std::move(tuple));
    current_bytes_ += approx_bytes;
    if (current_bytes_ >= granularity_) {
      FlushCurrent();
    }
  }

  void Flush() {
    if (current_ != nullptr && current_->TupleCount() > 0) {
      FlushCurrent();
    }
  }

  // Registers every fed partition as a durable split (serialized while still
  // resident) so a node death can re-execute it from the driver's copy.
  void set_recovery(core::RecoveryContext* rec) { recovery_ = rec; }

  std::uint64_t partitions_fed() const { return fed_; }

 private:
  void FlushCurrent() {
    cluster_.tracer().Emit(obs::EventKind::kPartitionCreated,
                           static_cast<std::uint16_t>(next_node_), current_->PayloadBytes(), 0,
                           static_cast<std::uint32_t>(type_));
    if (recovery_ != nullptr) {
      recovery_->RegisterSplit(*current_, next_node_);
    }
    current_->Spill();  // Inputs start on disk, like HDFS blocks.
    push_(next_node_, std::move(current_));
    current_.reset();
    current_bytes_ = 0;
    ++fed_;
    next_node_ = (next_node_ + 1) % cluster_.size();
  }

  cluster::Cluster& cluster_;
  core::TypeId type_;
  std::uint64_t granularity_;
  std::function<void(int, core::PartitionPtr)> push_;
  core::RecoveryContext* recovery_ = nullptr;
  std::shared_ptr<Partition> current_;
  std::uint64_t current_bytes_ = 0;
  int next_node_ = 0;
  std::uint64_t fed_ = 0;
};

}  // namespace itask::apps

#endif  // ITASK_APPS_COMMON_H_
