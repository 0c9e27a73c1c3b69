// IrsRuntime: the per-node ITask Runtime System (paper §5).
//
// Wires together the monitor (pressure detection), scheduler (worker pool and
// interrupt/grow policy), partition manager (lazy serialization) and the
// partition queue, and exposes the routing fabric task contexts emit into.
//
// One IrsRuntime exists per simulated node per job; a JobCoordinator (see
// coordinator.h) drives a set of runtimes that share a JobState.
//
// Observability: every runtime emits structured events (signals, interrupts,
// partition transitions) into an obs::Tracer — the cluster-wide one from
// NodeServices when present, otherwise a private instance. Each counter that
// NodeMetrics() reports is a plain member of the component that bumps it:
// the staged-release counters and the GC-pause histogram here, lazy
// serialization in the PartitionManager, interrupts and their latency
// histogram in the Scheduler.
#ifndef ITASK_ITASK_RUNTIME_H_
#define ITASK_ITASK_RUNTIME_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/spin.h"
#include "itask/job_state.h"
#include "itask/partition_manager.h"
#include "itask/partition_queue.h"
#include "itask/scheduler.h"
#include "itask/task.h"
#include "itask/task_graph.h"
#include "memsim/managed_heap.h"
#include "obs/histogram.h"
#include "obs/tracer.h"
#include "serde/spill_manager.h"

namespace itask::core {

class RecoveryContext;

struct NodeServices {
  int node_id = 0;
  std::string name;
  memsim::ManagedHeap* heap = nullptr;
  serde::SpillManager* spill = nullptr;
  obs::Tracer* tracer = nullptr;  // Optional shared event stream.
  // Tenant identity for multi-job clusters: worker/monitor threads run under
  // a JobScope with this id so the heap attributes their bytes, and the
  // monitor consults PressureVictimRank(job_id) before honoring a REDUCE.
  // kNoJob (the default) opts out of cross-tenant arbitration entirely.
  memsim::JobId job_id = memsim::kNoJob;
};

struct IrsConfig {
  int max_workers = 8;
  std::chrono::milliseconds monitor_period{2};
  std::chrono::milliseconds thrash_window{50};
  // Consecutive zero-progress OME activations of one partition before the job
  // aborts (a single tuple that can never fit).
  int max_no_progress = 32;
  // Record an active-worker trace sample every monitor tick (Figure 11c).
  // Samples are obs events (kActiveSample/kActiveSpecCount); trace()
  // reconstructs the time series from the tracer.
  bool trace_active = false;

  // ---- Policy ablations (§6.1's naïve-technique comparison) ----
  // Kill-and-reprocess instead of staged release: an interrupted task emits
  // nothing and its input restarts from cursor 0.
  bool naive_restart = false;
  // Pick interrupt victims at random instead of by the priority rules.
  bool random_victims = false;
};

class IrsRuntime {
 public:
  struct TraceSample {
    double t_ms = 0.0;
    int total = 0;
    std::array<int, kMaxSpecs> by_spec{};
  };

  IrsRuntime(NodeServices services, IrsConfig config, std::shared_ptr<JobState> state);
  ~IrsRuntime();

  IrsRuntime(const IrsRuntime&) = delete;
  IrsRuntime& operator=(const IrsRuntime&) = delete;

  // ---- Job setup (before Start) ----
  TaskGraph& graph() { return graph_; }
  void FinalizeGraph() { graph_.ComputeFinishDistances(); }
  void SetSink(std::function<void(PartitionPtr)> sink) { sink_ = std::move(sink); }

  // ---- Lifecycle ----
  void Start();
  void Stop();

  // ---- Fault tolerance (optional; see itask/recovery.h) ----
  // Wires this node into the recovery layer: the monitor heartbeats into its
  // membership view, completed activations commit to its ledger, and escaped
  // OMEs demote the node to draining instead of aborting the job.
  void EnableFaultTolerance(RecoveryContext* recovery) { recovery_ = recovery; }
  RecoveryContext* recovery() { return recovery_; }

  // Fences the node out of the job (it was declared dead or is draining):
  // running tasks stop at their next safe point, SelectWork dispatches
  // nothing, late pushes are discarded, and the queue is drained with every
  // partition purged — the data re-materializes from lineage on survivors.
  // Idempotent; Start() unfences for the next job on this cluster.
  void Fence();
  bool fenced() const { return fenced_.load(std::memory_order_relaxed); }

  // Graceful degradation: demotes this node to draining in the membership
  // view (escaped OME / persistent zero-progress OME loop). Returns false
  // when fault tolerance is off or no other node could absorb the work — the
  // caller falls back to aborting the job. Idempotent once fenced.
  bool TryDemoteToDraining();

  // ---- Data entry ----
  // Local push (engine input or task output on this node).
  void Push(PartitionPtr dp);
  // Push from another node: re-charges the payload onto this node's heap
  // (serialize-transfer-deserialize) before queueing.
  void PushRemote(PartitionPtr dp);

  // ---- Used by Scheduler ----
  WorkAssignment SelectWork();
  // Runs one activation; returns true if the scale loop completed.
  bool ExecuteActivation(int worker_id, WorkAssignment& work);
  std::uint64_t BytesNeededForSafeZone() const;
  PartitionManager& partition_manager() { return pm_; }
  PartitionQueue& queue() { return queue_; }

  // ---- Used by TaskContext ----
  void Route(const TaskSpec& spec, PartitionPtr out, bool at_interrupt);
  void SinkDirect(PartitionPtr out) { sink_(std::move(out)); }
  void PushBack(PartitionPtr dp);
  // Re-queues outputs + inputs of an interrupted merge in one atomic batch.
  void PushBackBatch(std::vector<PartitionPtr> items);
  // True when Route would push |out| into this node's local queue.
  bool WouldQueueLocally(const TaskSpec& spec, const DataPartition& out) const;
  // The Table-2 accounting half of Route (used when pushes are deferred).
  void CountEmitMetrics(const TaskSpec& spec, const DataPartition& out, bool at_interrupt);
  bool ShouldInterrupt(int worker_id);
  void CountTuple(int worker_id) { sched_.CountTuple(worker_id); }
  void NoteProcessedInputReleased(std::uint64_t bytes) {
    released_processed_input_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void NoteOmeInterrupt(const PartitionPtr& dp, std::size_t tuples_processed);
  NodeServices& services() { return services_; }
  const IrsConfig& config() const { return config_; }
  JobState& state() { return *state_; }

  bool pressure() const { return pressure_.load(std::memory_order_relaxed); }

  // ---- Observability ----
  // Never null: the shared cluster tracer, or this runtime's private one.
  obs::Tracer* tracer() { return tracer_; }
  std::uint16_t trace_node() const { return static_cast<std::uint16_t>(services_.node_id); }

  // ---- Results ----
  common::RunMetrics NodeMetrics() const;
  // Figure-11c series, reconstructed from this node's kActiveSample /
  // kActiveSpecCount events (t_ms is relative to the last Start()).
  std::vector<TraceSample> trace() const;

 private:
  void MonitorLoop();
  void DefaultSink(const PartitionPtr& out);

  NodeServices services_;
  IrsConfig config_;
  std::shared_ptr<JobState> state_;

  std::unique_ptr<obs::Tracer> own_tracer_;  // Fallback when services_.tracer == nullptr.
  obs::Tracer* tracer_ = nullptr;
  // Table-2 counters and the GC-pause histogram (see NodeMetrics).
  std::atomic<std::uint64_t> released_processed_input_{0};
  std::atomic<std::uint64_t> released_final_result_{0};
  std::atomic<std::uint64_t> parked_intermediate_{0};
  std::atomic<std::uint64_t> ome_interrupts_{0};
  std::atomic<std::uint64_t> fence_interrupts_{0};
  obs::Histogram gc_pause_hist_{obs::GcPauseBoundsNs()};

  TaskGraph graph_;
  PartitionQueue queue_;
  PartitionManager pm_;
  Scheduler sched_;

  std::function<void(PartitionPtr)> sink_;

  // Memory-ordering contract for pressure_ (all accesses relaxed, audited):
  //  - It is a monitor-refreshed *hint*, re-derived from heap occupancy every
  //    monitor period; a stale read costs at most one period of extra (or
  //    missing) pressure, which the protocol tolerates by design — the same
  //    tick re-evaluates it.
  //  - No data is published under it. The one handoff that must be ordered —
  //    "this worker was selected as a victim, with this rule and timestamp" —
  //    rides on Worker::terminate_requested (release in
  //    RequestTerminationLocked, acquire in ApproveTermination), not on
  //    pressure_. ShouldInterrupt() only uses pressure_ to decide whether to
  //    consult that flag at all.
  //  - The exchange() in the GC listener / NoteOmeInterrupt is for emitting
  //    the kPressureOn edge exactly once, not for synchronization.
  std::atomic<bool> pressure_{false};
  std::atomic<bool> stop_monitor_{false};
  // Set for the whole Stop() sequence (before the monitor is joined) and
  // cleared by Start(). Signal-emission points that can run on foreign
  // threads — the GC listener firing from another node's allocation, a worker
  // draining its last activation — check it so a stopping/stopped runtime no
  // longer flips pressure or emits signal events (a stale pressure flag would
  // leak into the next Start on this runtime).
  std::atomic<bool> stopping_{false};
  // Fault-tolerance state: non-null recovery context when the job opted in,
  // and the fence flag (see Fence()). Both read relaxed on hot paths — a
  // stale fenced_ read costs one extra safe-point poll, nothing more.
  RecoveryContext* recovery_ = nullptr;
  std::atomic<bool> fenced_{false};
  int gc_listener_id_ = -1;
  std::thread monitor_thread_;
  common::Stopwatch job_watch_;
  std::uint64_t start_t_ns_ = 0;       // Tracer timestamp of the last Start().
  std::uint32_t active_sample_seq_ = 0;  // Monitor-thread only.

  std::uint64_t debug_tick_ = 0;
  int headroom_streak_ = 0;
  bool started_ = false;
};

}  // namespace itask::core

#endif  // ITASK_ITASK_RUNTIME_H_
