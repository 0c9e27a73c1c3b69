// ItaskJob: convenience wrapper that stands up one IRS instance per cluster
// node, shares a JobState among them, and runs a job to completion.
//
// Engines register the same task specs on every node (ids must match across
// nodes for the global running counters), push inputs in the feed callback,
// and read aggregated metrics afterwards.
#ifndef ITASK_CLUSTER_ITASK_JOB_H_
#define ITASK_CLUSTER_ITASK_JOB_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "cluster/cluster.h"
#include "common/backoff.h"
#include "itask/coordinator.h"
#include "itask/recovery.h"
#include "itask/runtime.h"
#include "net/shuffle_fabric.h"

namespace itask::cluster {

// Tenant identity for a job sharing the cluster with others. The job_id keys
// the per-job byte accounts in every node's ManagedHeap; node_budget_bytes is
// the soft per-node budget the arbitration policy enforces (0 = unbudgeted,
// i.e. the job neither yields to nor shields itself from other tenants).
struct TenantBinding {
  memsim::JobId job_id = memsim::kNoJob;
  std::string name;
  int priority = 0;
  std::uint64_t node_budget_bytes = 0;
  // Fair-share worker cap per node, assigned by the job service (priority-
  // weighted split of the cluster's worker slots). 0 = caller's own default.
  int max_workers = 0;
};

class ItaskJob {
 public:
  ItaskJob(Cluster& cluster, const core::IrsConfig& config)
      : ItaskJob(cluster, config, TenantBinding{}) {}

  // Multi-tenant variant: stamps every runtime with the tenant's job id (so
  // worker/monitor threads allocate under its heap account) and registers the
  // per-node budget on each node heap. The destructor clears both again —
  // heaps outlive jobs, and a later tenant may reuse the account slot.
  ItaskJob(Cluster& cluster, const core::IrsConfig& config, const TenantBinding& tenant)
      : state_(std::make_shared<core::JobState>()), tenant_(tenant), cluster_(&cluster),
        backoff_base_(common::BackoffRegistry::Instance().snapshot()) {
    for (int i = 0; i < cluster.size(); ++i) {
      Node& node = cluster.node(i);
      core::NodeServices services{node.id(), node.name(), &node.heap(), &node.spill(),
                                  node.tracer()};
      services.job_id = tenant_.job_id;
      if (tenant_.job_id != memsim::kNoJob) {
        node.heap().SetJobBudget(tenant_.job_id, tenant_.node_budget_bytes);
      }
      runtimes_.push_back(std::make_unique<core::IrsRuntime>(services, config, state_));
    }
  }

  ~ItaskJob() {
    if (tenant_.job_id != memsim::kNoJob) {
      for (auto& rt : runtimes_) {
        rt->services().heap->ResetJobAccount(tenant_.job_id);
      }
    }
  }

  const TenantBinding& tenant() const { return tenant_; }

  int num_nodes() const { return static_cast<int>(runtimes_.size()); }
  core::IrsRuntime& runtime(int node) { return *runtimes_[static_cast<std::size_t>(node)]; }
  core::JobState& state() { return *state_; }

  // ---- Fault tolerance (opt-in; call before SetSinkPerNode/Run) ----
  // Creates the job's recovery context (heartbeat membership + durable-store
  // / shuffle-ledger / sink-gate lineage) under the cluster's
  // ClusterConfig::recovery settings and wires every node into it. The
  // engine must additionally register partition factories for every TypeId
  // that crosses the shuffle or the sink, route map outputs through
  // RecoveryContext::StageShuffle, and register splits at feed time.
  core::RecoveryContext& EnableFaultTolerance(obs::Tracer* tracer = nullptr) {
    recovery_ =
        std::make_unique<core::RecoveryContext>(cluster_->config().recovery, num_nodes());
    if (tracer != nullptr) {
      recovery_->set_tracer(tracer);
    }
    for (int i = 0; i < num_nodes(); ++i) {
      core::IrsRuntime* rt = runtimes_[static_cast<std::size_t>(i)].get();
      core::RecoveryNodeHooks hooks;
      hooks.heap = rt->services().heap;
      hooks.spill = rt->services().spill;
      hooks.push = [rt](core::PartitionPtr dp) { rt->Push(std::move(dp)); };
      hooks.idle = [rt] { return rt->running_activations() == 0; };
      recovery_->SetNodeHooks(i, std::move(hooks));
      rt->EnableFaultTolerance(recovery_.get());
    }
    // Socket transports route the shuffle ledger's delivery path (and the
    // heartbeats) through a per-job fabric; inproc keeps the direct
    // Materialize+push path. Per-job transport instances use ephemeral
    // ports, so concurrent tenants never collide on an endpoint.
    if (cluster_->config().net.kind != net::TransportKind::kInproc) {
      fabric_ = std::make_unique<net::ShuffleFabric>(
          cluster_->config().net, cluster_->config().faults, recovery_.get(), num_nodes());
      obs::Tracer* trace = &cluster_->tracer();
      fabric_->transport().SetEventSink(
          [trace](int endpoint, obs::EventKind kind, std::uint64_t a, std::uint64_t b) {
            trace->Emit(kind, /*node=*/0, a, b,
                        static_cast<std::uint32_t>(endpoint + 1));
          });
    }
    return *recovery_;
  }
  core::RecoveryContext* recovery() { return recovery_.get(); }
  net::ShuffleFabric* fabric() { return fabric_.get(); }

  // Registers the same task on every node. |make_spec| is called once per
  // node so per-node routing closures can capture the node id.
  void RegisterTaskPerNode(const std::function<core::TaskSpec(int node)>& make_spec) {
    for (int i = 0; i < num_nodes(); ++i) {
      runtimes_[static_cast<std::size_t>(i)]->graph().Register(make_spec(i));
    }
  }

  void SetSinkPerNode(const std::function<std::function<void(core::PartitionPtr)>(int node)>& make_sink) {
    for (int i = 0; i < num_nodes(); ++i) {
      auto inner = make_sink(i);
      if (recovery_ != nullptr) {
        // Gate the sink through the recovery ledger: chunks are staged until
        // the merge activation for their tag commits, so a node dying
        // mid-merge never leaves half a tag in the final output.
        recovery_->SetNodeSink(i, std::move(inner));
        core::RecoveryContext* rec = recovery_.get();
        const int node = i;
        runtimes_[static_cast<std::size_t>(i)]->SetSink(
            [rec, node](core::PartitionPtr out) { rec->StageSinkChunk(node, std::move(out)); });
      } else {
        runtimes_[static_cast<std::size_t>(i)]->SetSink(std::move(inner));
      }
    }
  }

  // Runs to completion; returns false if aborted (including a blown
  // deadline_ms, when > 0). The node section of the cluster's fault plan
  // fires from the coordinator's poll loop; a fault that could never fire on
  // this job throws std::invalid_argument before anything runs.
  bool Run(const std::function<void()>& feed, double deadline_ms = 0.0) {
    const chaos::FaultPlan& faults = cluster_->config().faults;
    faults.CheckFires(num_nodes(), recovery_ != nullptr);
    pending_faults_ = faults.node;
    std::vector<core::IrsRuntime*> ptrs;
    ptrs.reserve(runtimes_.size());
    for (auto& r : runtimes_) {
      ptrs.push_back(r.get());
    }
    coordinator_ = std::make_unique<core::JobCoordinator>(state_, ptrs);
    if (recovery_ != nullptr) {
      coordinator_->EnableFaultTolerance(recovery_.get());
      if (!pending_faults_.empty()) {
        coordinator_->SetFaultPoll(
            [this](double elapsed_ms) { ApplyDueFaults(elapsed_ms); });
      }
    }
    return coordinator_->Run(feed, deadline_ms);
  }

  common::RunMetrics Metrics() const {
    common::RunMetrics m = coordinator_->AggregateMetrics();
    m.events_dropped = cluster_->tracer().stats().dropped;
    if (fabric_ != nullptr) {
      const net::FabricStats fs = fabric_->stats();
      m.net_msgs_sent = fs.transport.msgs_sent;
      m.net_frames_sent = fs.transport.frames_sent;
      m.net_bytes_sent = fs.transport.bytes_sent;
      m.net_send_stalls = fs.transport.send_stalls;
      m.net_stall_ms =
          static_cast<double>(fs.transport.stall_ns) / 1e6;
      m.net_send_retries = fs.transport.send_retries;
      m.net_ack_timeouts = fs.ack_timeouts;
      m.net_dup_payloads_dropped = fs.dup_payloads_dropped;
      m.net_heartbeats_sent = fs.heartbeats_sent;
      m.net_queue_depth_hist = fs.transport.queue_depth_hist;
      m.net_faults_injected = fs.transport.faults_injected;
    }
    // Retry/giveup counters since this job was constructed. The registry is
    // process-global, so concurrent tenants see each other's retries — fine
    // for a chaos gate ("did anything back off"), wrong for billing.
    const common::BackoffRegistry::Snapshot now =
        common::BackoffRegistry::Instance().snapshot();
    m.backoff_retries = now.total_retries() - backoff_base_.total_retries();
    m.backoff_giveups = now.total_giveups() - backoff_base_.total_giveups();
    return m;
  }

 private:
  // Fires each pending node fault once its job-relative time has come. Runs
  // on the coordinator's thread, the only one touching pending_faults_.
  void ApplyDueFaults(double elapsed_ms) {
    const auto due = std::stable_partition(
        pending_faults_.begin(), pending_faults_.end(),
        [elapsed_ms](const chaos::NodeFault& f) { return f.at_ms > elapsed_ms; });
    for (auto it = due; it != pending_faults_.end(); ++it) {
      const chaos::NodeFault& fault = *it;
      core::IrsRuntime& rt = *runtimes_[static_cast<std::size_t>(fault.node)];
      switch (fault.kind) {
        case chaos::NodeFaultKind::kKill:
          // Crash: beats stop and the runtime is fenced at once — queued
          // work purged, late pushes discarded. Detection (suspect -> dead)
          // and lineage recovery still go through the heartbeat detector.
          // Over a socket transport the node's endpoint dies with it, so
          // in-flight deliveries fail as peer-gone instead of blocking.
          recovery_->membership().SuppressBeats(fault.node, true);
          rt.Fence();
          if (fabric_ != nullptr) {
            fabric_->CloseNode(fault.node);
          }
          break;
        case chaos::NodeFaultKind::kHang:
          // Zombie: only the beats stop; the runtime keeps executing until
          // the detector declares it dead and fences it.
          recovery_->membership().SuppressBeats(fault.node, true);
          break;
        case chaos::NodeFaultKind::kPoison:
          // Every allocation now throws; the node drains through the
          // escaped-OME / zero-progress path, or the ledger drains it once
          // it refuses deliveries with nothing running.
          rt.services().heap->Poison();
          break;
        case chaos::NodeFaultKind::kDisconnect:
          // Known network cut: beats stop reaching the detector AND the
          // membership learns the cause — the node parks in kDisconnected
          // and gets the (longer) disconnect grace window instead of being
          // walked to kDead on plain silence.
          recovery_->NoteLinkDown(fault.node);
          recovery_->membership().SuppressBeats(fault.node, true);
          break;
        case chaos::NodeFaultKind::kHeal:
          // Partition heals: beats resume and the coordinator moves the node
          // back to kAlive (counting a healed partition) on its next pass.
          recovery_->membership().SuppressBeats(fault.node, false);
          break;
      }
      // Tests age the silenced node's last beat so detection (or a
      // disconnect's grace expiry) does not race job completion. An aged
      // beat predates any disconnect stamp, so it never reads as a heal.
      if (fault.silence_age_ms > 0.0) {
        recovery_->membership().AgeBeat(
            fault.node, static_cast<std::uint64_t>(fault.silence_age_ms * 1e6));
      }
    }
    pending_faults_.erase(due, pending_faults_.end());
  }

  std::shared_ptr<core::JobState> state_;
  TenantBinding tenant_;
  Cluster* cluster_ = nullptr;
  std::vector<std::unique_ptr<core::IrsRuntime>> runtimes_;
  std::unique_ptr<core::JobCoordinator> coordinator_;
  std::unique_ptr<core::RecoveryContext> recovery_;
  // Declared after recovery_: destroyed first, detaching its hooks before the
  // recovery context they point into goes away.
  std::unique_ptr<net::ShuffleFabric> fabric_;
  // Node faults of the cluster's plan that have not fired yet.
  std::vector<chaos::NodeFault> pending_faults_;
  // Registry counters at construction; Metrics() reports the delta.
  common::BackoffRegistry::Snapshot backoff_base_;
};

}  // namespace itask::cluster

#endif  // ITASK_CLUSTER_ITASK_JOB_H_
