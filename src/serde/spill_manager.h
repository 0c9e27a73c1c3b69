// SpillManager: the per-node spill store the IRS partition manager uses to
// lazily serialize partitions under memory pressure and page them back on
// re-activation.
//
// Spill() caches the payload, queues a background write on the store's own
// io::IoExecutor and returns at once, so the caller's heap charge is released
// while the bytes drain to disk behind compute. The write frames the payload
// through io::FrameCodec (checksummed, stored verbatim) into one file named
// by the spill's id. A pool size of zero runs every write and load inline on
// the caller's thread with the same semantics.
//
// Each id names one entry that moves queued -> writing -> durable | failed:
//  - queued: the payload is cached and the write is cancellable. Loading it
//    cancels the write (IoExecutor::TryCancel) and returns the cached payload,
//    so a spill-then-reload thrash cycle (the paper's §6.2 pathology) never
//    touches the disk.
//  - writing: a worker claimed the write; a load waits for it to settle.
//  - durable: the frame is on disk; a load reads, unframes and deletes it.
//  - failed: the write errored (real or injected) and the payload stays
//    cached. The next load rethrows the error once, and a retry is served
//    from the cache, so no data is lost or double-counted.
//
// Failure injection: SetFailureInjection arms a deterministic fault point
// (probability per op, or every nth op) on the file write and/or file read so
// tests and chaos configs can force spill I/O errors. A failed write removes
// its partial file; an injected read fault fires before any state moves, so
// the spill stays loadable.
//
// Stats() byte counters are raw payload sizes, independent of the codec;
// write_ms/read_ms time only the file write and read.
#ifndef ITASK_SERDE_SPILL_MANAGER_H_
#define ITASK_SERDE_SPILL_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/byte_buffer.h"
#include "io/io_executor.h"
#include "obs/histogram.h"
#include "obs/tracer.h"

namespace itask::serde {

struct SpillStats {
  std::uint64_t spilled_bytes = 0;
  std::uint64_t loaded_bytes = 0;
  std::uint64_t spill_count = 0;
  std::uint64_t load_count = 0;
  std::uint64_t live_files = 0;         // Spills not yet loaded or removed.
  std::uint64_t live_file_bytes = 0;
  std::uint64_t injected_failures = 0;  // Faults fired by the injection point.
  std::uint64_t load_retries = 0;       // Reloads re-attempted after a read fault.
  double write_ms = 0.0;
  double read_ms = 0.0;

  std::uint64_t cancelled_writes = 0;       // Queued writes served from the cache.
  std::uint64_t cancelled_write_bytes = 0;  // Raw bytes that never hit disk.
  std::uint64_t loads_from_cache = 0;       // IoLoadSource::kPendingCache.
  std::uint64_t loads_inflight_wait = 0;    // IoLoadSource::kInflightWait.
  std::uint64_t loads_from_disk = 0;        // IoLoadSource::kDisk (incl. prefetch).
  std::uint64_t raw_bytes = 0;              // Payload bytes framed so far.
  std::uint64_t framed_bytes = 0;           // On-disk bytes, frame headers included.
  std::uint64_t write_failures = 0;         // Background writes that errored.
  std::uint64_t read_stall_ns = 0;          // Total consumer-visible stall.
  obs::HistogramSnapshot read_stall;        // Per-load stall distribution.
};

// Deterministic I/O fault point, configured per manager (ClusterConfig wires
// the cluster-wide setting and the ITASK_IO_FAIL_* env overrides through).
// `every_nth` == n fails every nth file write/read (1-based); `*_probability`
// draws from a private xorshift stream seeded with `seed` so runs replay.
struct SpillFailureInjection {
  double write_probability = 0.0;
  double read_probability = 0.0;
  std::uint64_t every_nth = 0;  // 0 = disabled.
  std::uint64_t seed = 0x5eedf00dULL;

  bool enabled() const {
    return write_probability > 0.0 || read_probability > 0.0 || every_nth != 0;
  }
};

class SpillManager {
 public:
  using SpillId = std::uint64_t;

  // Creates (and owns) a fresh directory under |root| and an I/O pool of
  // |pool_size| workers (0 = inline). The destructor drains queued writes,
  // then removes the directory and every remaining file.
  SpillManager(const std::filesystem::path& root, const std::string& node_name,
               int pool_size = 0);
  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  // Takes |buffer| into the pending-write cache and queues its write; returns
  // the spill's id. |priority| orders queued writes (lower drains sooner).
  SpillId Spill(common::ByteBuffer buffer, int priority = 0);

  // Returns the payload and forgets the spill. Throws std::runtime_error for
  // an unknown id, a read fault, or (once) a failed write.
  common::ByteBuffer LoadAndRemove(SpillId id);

  // Drops a spill without reading it (e.g. job aborted).
  void Remove(SpillId id);

  SpillStats Stats() const;

  // True when LoadAsync overlaps with compute (the pool is non-empty);
  // prefetchers skip the call otherwise.
  bool SupportsAsync() const { return executor_.async(); }

  // LoadAndRemove as a future, scheduled at load priority (ahead of every
  // queued write).
  std::future<common::ByteBuffer> LoadAsync(SpillId id, int priority = 0);

  // Consumer-side stall report for prefetched loads: the time a worker spent
  // blocked on a LoadAsync future it had started ahead of need.
  void NotePrefetchWait(std::uint64_t wait_ns, std::uint64_t bytes);

  // Blocks until every queued and in-flight write is durable (or failed).
  void Drain() { executor_.Drain(); }

  void SetFailureInjection(const SpillFailureInjection& injection);

  // Called by DataPartition when a LoadAndRemove attempt failed and is being
  // retried; surfaces read faults in stats instead of letting the retry loop
  // burn CPU invisibly.
  void NoteLoadRetry() { load_retries_.fetch_add(1, std::memory_order_relaxed); }

  const std::filesystem::path& directory() const { return dir_; }
  io::IoExecutor& executor() { return executor_; }

  // Emits spill, codec, stall and queue-depth events into |tracer|, stamped
  // with |node_id|. Wired by the owning cluster::Node.
  void SetTracer(obs::Tracer* tracer, int node_id);

 private:
  enum class State : std::uint8_t { kQueued, kWriting, kDurable, kFailed };

  struct Entry {
    State state = State::kQueued;
    common::ByteBuffer raw;            // Cached payload until durable.
    std::uint64_t raw_size = 0;        // Payload size, valid in every state.
    std::uint64_t framed_size = 0;     // File size once durable.
    io::IoExecutor::JobId job = 0;     // 0 until Spill's submit returns.
    std::exception_ptr error;          // Set in kFailed until surfaced once.
  };

  std::filesystem::path PathFor(SpillId id) const;

  // Background write body for |id|.
  void RunWrite(SpillId id);

  // Writes |framed| to |id|'s file, removing any partial file on failure.
  void WriteFile(SpillId id, const common::ByteBuffer& framed);

  // Reads |bytes| from |id|'s file and deletes it.
  common::ByteBuffer ReadFile(SpillId id, std::uint64_t bytes);

  // LoadAndRemove without stall accounting (shared with LoadAsync).
  common::ByteBuffer LoadInternal(SpillId id, obs::IoLoadSource* source);

  void RecordStall(std::uint64_t stall_ns, std::uint64_t bytes, obs::IoLoadSource source);

  // Fires the injected fault for one file write/read if armed. Throws
  // std::runtime_error (after counting the failure) when the op must fail.
  void MaybeInjectFailure(bool is_write);

  obs::Tracer* tracer_ = nullptr;
  std::uint16_t trace_node_ = 0;
  std::filesystem::path dir_;

  mutable std::mutex mu_;             // Guards entries_, next_id_, stats_, inject_.
  std::condition_variable state_cv_;  // Signalled when a write settles.
  std::unordered_map<SpillId, Entry> entries_;
  SpillId next_id_ = 1;
  SpillStats stats_;

  SpillFailureInjection inject_;
  std::atomic<std::uint64_t> inject_ops_{0};
  std::atomic<std::uint64_t> inject_rng_{0};
  std::atomic<std::uint64_t> load_retries_{0};

  obs::Histogram read_stall_{obs::ReadStallBoundsNs()};

  // Declared last, so destroyed first: its workers run jobs that touch every
  // member above.
  io::IoExecutor executor_;
};

}  // namespace itask::serde

#endif  // ITASK_SERDE_SPILL_MANAGER_H_
