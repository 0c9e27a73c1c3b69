// Run-level metrics shared by tests, benches and examples.
#ifndef ITASK_COMMON_METRICS_H_
#define ITASK_COMMON_METRICS_H_

#include <cstdint>
#include <string>

#include "obs/histogram.h"  // Header-only; no link dependency on itask_obs.

namespace itask::common {

// Outcome of one execution of a data-parallel job on the simulated cluster.
struct RunMetrics {
  bool succeeded = false;
  bool out_of_memory = false;

  double wall_ms = 0.0;       // End-to-end wall time (includes GC pauses).
  double gc_ms = 0.0;         // Total stop-the-world collector time across nodes.
  std::uint64_t gc_count = 0;
  std::uint64_t lugc_count = 0;

  std::uint64_t peak_heap_bytes = 0;  // Max over nodes of per-node peak usage.

  // ITask-specific counters (zero for regular executions).
  std::uint64_t interrupts = 0;
  std::uint64_t ome_interrupts = 0;
  std::uint64_t reactivations = 0;
  // Interrupt victims the scheduler selected (§5.4 rules). Every scale-loop
  // interrupt on a non-aborted run is explained by a victim request or an
  // OME; IrsAuditor checks that inequality (invariant T3).
  std::uint64_t victim_requests = 0;
  // Scale-loop interrupts forced by a node fence (failure injection or death
  // declaration); a third legitimate cause in the T3 accounting.
  std::uint64_t fence_interrupts = 0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t loaded_bytes = 0;
  std::uint64_t load_retries = 0;  // Spill reloads re-attempted after read faults.

  // Staged-release savings breakdown (paper Table 2), in bytes.
  std::uint64_t released_processed_input_bytes = 0;
  std::uint64_t released_final_result_bytes = 0;
  std::uint64_t parked_intermediate_bytes = 0;
  std::uint64_t lazy_serialized_bytes = 0;

  // Spill store I/O counters (serde::SpillStats).
  std::uint64_t io_cancelled_writes = 0;        // Queued writes served from memory.
  std::uint64_t io_cancelled_write_bytes = 0;   // Bytes that never touched disk.
  std::uint64_t io_raw_bytes = 0;               // Payload bytes the codec framed.
  std::uint64_t io_framed_bytes = 0;            // On-disk bytes after compression.
  double io_read_stall_ms = 0.0;                // Total consumer-visible stall.

  // Net-transport counters (zero on the inproc path). Filled job-wide from
  // the shuffle fabric's stats, not per node — AccumulateNode leaves them
  // alone so the fold doesn't double-count.
  std::uint64_t net_msgs_sent = 0;
  std::uint64_t net_frames_sent = 0;          // Coalesced batches on the wire.
  std::uint64_t net_bytes_sent = 0;           // Wire bytes incl. frame headers.
  std::uint64_t net_send_stalls = 0;          // Producer blocked on a full queue.
  double net_stall_ms = 0.0;                  // Total producer-visible stall.
  std::uint64_t net_send_retries = 0;         // Batches requeued for reconnect.
  std::uint64_t net_ack_timeouts = 0;         // Deliveries retried on a lost ack.
  std::uint64_t net_dup_payloads_dropped = 0; // Receiver-side transport dedup.
  std::uint64_t net_heartbeats_sent = 0;
  obs::HistogramSnapshot net_queue_depth_hist;  // Send-queue depth at enqueue.

  // Fault-tolerance counters (zero when recovery is disabled or fault-free).
  std::uint64_t nodes_failed = 0;            // Nodes declared dead mid-job.
  std::uint64_t nodes_draining = 0;          // Nodes demoted after escaped OME.
  std::uint64_t splits_reexecuted = 0;       // Lineage re-executions of input splits.
  std::uint64_t shuffle_retries = 0;         // Delivery attempts beyond the first.
  std::uint64_t shuffle_redeliveries = 0;    // Ledger entries re-sent after a death.
  std::uint64_t duplicate_tuples_dropped = 0;  // Dedup-layer audit counter.

  // Pressure-driven migration counters (zero unless the SERIALIZE action
  // shipped partitions to a peer). Filled job-wide from the recovery
  // context's stats like the other fault-tolerance counters above —
  // AccumulateNode leaves them alone so the fold doesn't double-count.
  std::uint64_t partitions_migrated = 0;   // Victims shipped to a peer instead of disk.
  std::uint64_t migrated_bytes = 0;        // Payload bytes those victims carried.
  std::uint64_t migrations_rejected = 0;   // Broker said no (stale/full/cost/ineligible).

  // Network-fault / resilience counters (zero unless a NetFaultPlan is active
  // or the ctrl plane saw disconnects). Job-wide like the net counters above —
  // AccumulateNode leaves them alone so the fold doesn't double-count.
  std::uint64_t net_faults_injected = 0;  // Fault-engine decisions that fired.
  std::uint64_t ctrl_reconnects = 0;      // Ctrl sessions resumed under the old id.
  std::uint64_t partitions_healed = 0;    // kDisconnected nodes whose beats came back.
  std::uint64_t backoff_retries = 0;      // Retries across every BackoffUse policy.
  std::uint64_t backoff_giveups = 0;      // Backoff sessions that exhausted budget.

  // Tracer ring-overflow count: events overwritten before any drain saw them.
  // Non-zero means the trace (and anything derived from it) undercounts.
  // Job-wide from the cluster tracer, like the net counters above.
  std::uint64_t events_dropped = 0;

  // framed/raw over everything written; 1.0 when nothing was written.
  double IoCompressionRatio() const {
    return io_raw_bytes == 0
               ? 1.0
               : static_cast<double>(io_framed_bytes) / static_cast<double>(io_raw_bytes);
  }

  // Result fingerprint for cross-checking regular vs ITask runs.
  std::uint64_t result_checksum = 0;
  std::uint64_t result_records = 0;

  // Latency distributions from the obs registry (merged bucket-wise across
  // nodes in AccumulateNode; empty for regular executions).
  obs::HistogramSnapshot gc_pause_hist;
  obs::HistogramSnapshot interrupt_latency_hist;
  obs::HistogramSnapshot io_read_stall_hist;

  // Wall time net of collector pauses. gc_ms sums per-node pause time, so on
  // a multi-node run (pauses overlap in wall time) it can exceed wall_ms;
  // clamp at zero rather than report a negative compute time.
  double ComputeMs() const { return wall_ms - std::min(gc_ms, wall_ms); }

  // Merges per-node metrics into a job-level aggregate (sums counters, maxes
  // peaks; wall time is taken from the caller's stopwatch, not merged).
  void AccumulateNode(const RunMetrics& node);

  // Folds another process's job-level metrics into a cluster-level rollup:
  // sums every counter INCLUDING the net/migration/fault-tolerance ones that
  // AccumulateNode skips (each input here is already a complete job-wide
  // record from one process, so there is no double-counting), merges the
  // histograms, maxes wall time and peak heap, and ANDs success.
  void MergeCluster(const RunMetrics& other);

  std::string Summary() const;
};

// Formats a byte count as a human-readable string ("12.3MB").
std::string FormatBytes(std::uint64_t bytes);

}  // namespace itask::common

#endif  // ITASK_COMMON_METRICS_H_
