// Run-level metrics shared by tests, benches and examples.
#ifndef ITASK_COMMON_METRICS_H_
#define ITASK_COMMON_METRICS_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "obs/histogram.h"  // Header-only; no link dependency on itask_obs.

namespace itask::common {

// How two values of one RunMetrics field combine in RunMetrics::Merge. Each
// rule accepts only the field types it makes sense for, so a list entry with
// a mismatched rule fails to compile.
namespace fold {
struct Sum {  // Counters and durations.
  template <typename T>
  static void Apply(T& into, const T& from) {
    into += from;
  }
};
struct Max {  // High-water marks.
  template <typename T>
  static void Apply(T& into, const T& from) {
    into = std::max(into, from);
  }
};
struct And {  // Success: a rollup succeeded only if every input did.
  static void Apply(bool& into, bool from) { into = into && from; }
};
struct Or {  // Failure flags.
  static void Apply(bool& into, bool from) { into = into || from; }
};
struct Xor {  // The order-independent result fingerprint.
  static void Apply(std::uint64_t& into, std::uint64_t from) { into ^= from; }
};
struct Hist {  // Distributions, merged bucket-exactly.
  static void Apply(obs::HistogramSnapshot& into, const obs::HistogramSnapshot& from) {
    into.Merge(from);
  }
};
}  // namespace fold

// Every RunMetrics field, declared once as X(type, name, fold rule). The list
// generates the data members, and RunMetrics::ForEachField hands each field
// to the generic code: Merge, the wire codec (net/metrics_wire.h) and
// AppendJson. Adding a metric means adding one line here and setting it where
// it is measured.
//
// Per-node records (IrsRuntime::NodeMetrics, RegularHarness) fill only the
// per-node fields. The job-wide ones stay zero there and are set once per job
// by whoever owns them: succeeded and wall_ms by the coordinator, the net,
// migration, recovery, backoff and tracer fields from job-wide stats, and the
// result fingerprint by the app. That is why one Merge folds both nodes into
// a job and jobs into a cluster rollup without double-counting.
//
// Comments use /* */ because a // comment would swallow the line splice.
#define ITASK_RUN_METRICS_FIELDS(X)                                                               \
  /* Outcome. */                                                                                  \
  X(bool, succeeded, And)                                                                         \
  X(bool, out_of_memory, Or)                                                                      \
  X(double, wall_ms, Max)                            /* End to end, GC pauses included. */        \
  X(double, gc_ms, Sum)                              /* Collector pauses, summed over nodes. */   \
  X(std::uint64_t, gc_count, Sum)                                                                 \
  X(std::uint64_t, lugc_count, Sum)                                                               \
  X(std::uint64_t, peak_heap_bytes, Max)             /* Max over nodes of per-node peak usage. */ \
  /* ITask counters (zero for regular executions). Every scale-loop interrupt   */                \
  /* on a non-aborted run is explained by a victim request (§5.4 rules), an OME */                \
  /* or a node fence; IrsAuditor checks that inequality (invariant T3).         */                \
  X(std::uint64_t, interrupts, Sum)                                                               \
  X(std::uint64_t, ome_interrupts, Sum)                                                           \
  X(std::uint64_t, reactivations, Sum)                                                            \
  X(std::uint64_t, victim_requests, Sum)                                                          \
  X(std::uint64_t, fence_interrupts, Sum)                                                         \
  X(std::uint64_t, spilled_bytes, Sum)                                                            \
  X(std::uint64_t, loaded_bytes, Sum)                                                             \
  X(std::uint64_t, load_retries, Sum)                /* Reloads retried after read faults. */     \
  /* Staged-release savings breakdown (paper Table 2), in bytes. */                               \
  X(std::uint64_t, released_processed_input_bytes, Sum)                                           \
  X(std::uint64_t, released_final_result_bytes, Sum)                                              \
  X(std::uint64_t, parked_intermediate_bytes, Sum)                                                \
  X(std::uint64_t, lazy_serialized_bytes, Sum)                                                    \
  /* Spill store I/O (serde::SpillStats). */                                                      \
  X(std::uint64_t, io_cancelled_writes, Sum)         /* Queued writes served from memory. */      \
  X(std::uint64_t, io_cancelled_write_bytes, Sum)    /* Bytes that never touched disk. */         \
  X(std::uint64_t, io_raw_bytes, Sum)                /* Payload bytes the codec framed. */        \
  X(std::uint64_t, io_framed_bytes, Sum)             /* On-disk bytes, headers included. */       \
  X(double, io_read_stall_ms, Sum)                   /* Total consumer-visible stall. */          \
  /* Job-wide: net transport (zero on the inproc path). */                                        \
  X(std::uint64_t, net_msgs_sent, Sum)                                                            \
  X(std::uint64_t, net_frames_sent, Sum)             /* Coalesced batches on the wire. */         \
  X(std::uint64_t, net_bytes_sent, Sum)              /* Wire bytes incl. frame headers. */        \
  X(std::uint64_t, net_send_stalls, Sum)             /* Producer blocked on a full queue. */      \
  X(double, net_stall_ms, Sum)                       /* Total producer-visible stall. */          \
  X(std::uint64_t, net_send_retries, Sum)            /* Batches requeued for reconnect. */        \
  X(std::uint64_t, net_ack_timeouts, Sum)            /* Deliveries retried on a lost ack. */      \
  X(std::uint64_t, net_dup_payloads_dropped, Sum)    /* Receiver-side transport dedup. */         \
  X(std::uint64_t, net_heartbeats_sent, Sum)                                                      \
  X(obs::HistogramSnapshot, net_queue_depth_hist, Hist) /* Send-queue depth at enqueue. */        \
  /* Job-wide: fault tolerance (zero when recovery is off or fault-free). */                      \
  X(std::uint64_t, nodes_failed, Sum)                /* Nodes declared dead mid-job. */           \
  X(std::uint64_t, nodes_draining, Sum)              /* Nodes demoted after escaped OME. */       \
  X(std::uint64_t, splits_reexecuted, Sum)           /* Lineage re-executions of splits. */       \
  X(std::uint64_t, shuffle_retries, Sum)             /* Delivery attempts beyond the first. */    \
  X(std::uint64_t, shuffle_redeliveries, Sum)        /* Ledger entries re-sent after a death. */  \
  X(std::uint64_t, duplicate_tuples_dropped, Sum)    /* Dedup-layer audit counter. */             \
  /* Job-wide: pressure-driven migration (SERIALIZE shipped victims to a peer). */                \
  X(std::uint64_t, partitions_migrated, Sum)         /* Victims shipped instead of spilled. */    \
  X(std::uint64_t, migrated_bytes, Sum)              /* Payload bytes those victims carried. */   \
  X(std::uint64_t, migrations_rejected, Sum)         /* Broker said no. */                        \
  /* Job-wide: network faults and resilience. */                                                  \
  X(std::uint64_t, net_faults_injected, Sum)         /* Fault-engine decisions that fired. */     \
  X(std::uint64_t, ctrl_reconnects, Sum)             /* Ctrl sessions resumed under old id. */    \
  X(std::uint64_t, partitions_healed, Sum)           /* Cut-off nodes whose beats came back. */   \
  X(std::uint64_t, backoff_retries, Sum)             /* Retries across every BackoffUse. */       \
  X(std::uint64_t, backoff_giveups, Sum)             /* Sessions that exhausted budget. */        \
  /* Job-wide: tracer ring overwrites. Non-zero means the trace undercounts. */                   \
  X(std::uint64_t, events_dropped, Sum)                                                           \
  /* Result fingerprint for cross-checking regular vs ITask runs (set by the app). */             \
  X(std::uint64_t, result_checksum, Xor)                                                          \
  X(std::uint64_t, result_records, Sum)                                                           \
  /* Per-node latency distributions (empty for regular executions). */                            \
  X(obs::HistogramSnapshot, gc_pause_hist, Hist)                                                  \
  X(obs::HistogramSnapshot, interrupt_latency_hist, Hist)                                         \
  X(obs::HistogramSnapshot, io_read_stall_hist, Hist)

// Outcome of one execution of a data-parallel job on the simulated cluster.
struct RunMetrics {
#define ITASK_DECLARE_RUN_METRIC(type, name, rule) type name{};
  ITASK_RUN_METRICS_FIELDS(ITASK_DECLARE_RUN_METRIC)
#undef ITASK_DECLARE_RUN_METRIC

  // Calls visit(name, &RunMetrics::field, fold::Rule{}) for every field, in
  // list order (which is also the wire order).
  template <typename Visitor>
  static void ForEachField(Visitor&& visit) {
#define ITASK_VISIT_RUN_METRIC(type, name, rule) visit(#name, &RunMetrics::name, fold::rule{});
    ITASK_RUN_METRICS_FIELDS(ITASK_VISIT_RUN_METRIC)
#undef ITASK_VISIT_RUN_METRIC
  }

  // Folds |other| into this record, field by field, by each field's rule. A
  // rollup that ANDs success must start from succeeded = true (or from a copy
  // of its first input); a default record starts failed.
  void Merge(const RunMetrics& other);

  // Appends every field as "name":value pairs, comma-separated and without
  // braces, so callers can embed them in a larger JSON object. Doubles are
  // milliseconds to three decimals; a histogram becomes an object with its
  // count, sum, max, p50, p95 and p99, in the histogram's own unit.
  void AppendJson(std::string* out) const;

  // framed/raw over everything written; 1.0 when nothing was written.
  double IoCompressionRatio() const {
    return io_raw_bytes == 0
               ? 1.0
               : static_cast<double>(io_framed_bytes) / static_cast<double>(io_raw_bytes);
  }

  // Wall time net of collector pauses. gc_ms sums per-node pause time, so on
  // a multi-node run (pauses overlap in wall time) it can exceed wall_ms;
  // clamp at zero rather than report a negative compute time.
  double ComputeMs() const { return wall_ms - std::min(gc_ms, wall_ms); }

  std::string Summary() const;
};

// Formats a byte count as a human-readable string ("12.3MB").
std::string FormatBytes(std::uint64_t bytes);

}  // namespace itask::common

#endif  // ITASK_COMMON_METRICS_H_
