// SpillManager: the per-node spill store the IRS partition manager uses to
// lazily serialize partitions under memory pressure and page them back on
// re-activation.
//
// Spill() caches the payload, queues a background write on the store's own
// io::IoExecutor and returns at once, so the caller's heap charge is released
// while the bytes drain to disk behind compute. The write frames the payload
// through io::FrameCodec (checksummed, stored verbatim) and appends the frame
// to the node's active segment file: it reserves (segment, offset, length)
// under the store's mutex and pwrites outside it, in parallel with other
// writers. A load preads that range back. A pool size of zero runs every write
// and load inline on the caller's thread with the same semantics.
//
// Segments: the first opens on the first write (construction touches no
// segment). A segment is sealed once it reaches kSegmentBytes and the next
// write opens a new one. A sealed segment is closed and unlinked once every
// frame in it has been loaded or removed; the active segment, once empty, is
// rewound to offset 0 and truncated instead. So a store whose spills have all
// been loaded or removed holds no bytes on disk.
//
// Each id names one entry that moves queued -> writing -> durable | failed:
//  - queued: the payload is cached and the write is cancellable. Loading it
//    cancels the write (IoExecutor::TryCancel) and returns the cached payload,
//    so a spill-then-reload thrash cycle (the paper's §6.2 pathology) never
//    touches the disk.
//  - writing: a worker claimed the write; a load waits for it to settle.
//  - durable: the frame is in a segment; a load reads, unframes and releases
//    it.
//  - failed: the write errored (real or injected) and the payload stays
//    cached. The next load rethrows the error once, and a retry is served
//    from the cache, so no data is lost or double-counted.
//
// Fault injection: SetFaults arms the spill section of a chaos::FaultPlan
// (probability per op, or every nth op) on the frame write and/or read so
// tests and fault plans can force spill I/O errors. An injected write fault
// fires before any reservation, and a real pwrite failure releases its
// reservation; an injected read fault fires before the pread and before any
// state moves, so the spill (and its segment) stays loadable.
//
// Stats() byte counters are raw payload sizes, independent of the codec;
// write_ms/read_ms time only the segment write and read.
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

#include "chaos/chaos.h"
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
  std::uint64_t live_spills = 0;        // Spills not yet loaded or removed.
  std::uint64_t live_bytes = 0;         // Their raw payload bytes.
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

class SpillManager {
 public:
  using SpillId = std::uint64_t;

  // A segment is sealed once its frames reach this many bytes.
  static constexpr std::uint64_t kSegmentBytes = 16ULL << 20;

  // Creates (and owns) a fresh directory under |root| and an I/O pool of
  // |pool_size| workers (0 = inline). The destructor drains queued writes,
  // closes every segment and removes the directory.
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

  // Arms |faults| on this store's frame writes and reads. Probabilities draw
  // from a private stream seeded with |seed|, so a run replays its faults.
  void SetFaults(const chaos::SpillFaults& faults, std::uint64_t seed = 0);

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

  // Where a durable frame lives.
  struct Extent {
    std::uint32_t segment = 0;
    std::uint64_t offset = 0;
  };

  struct Entry {
    State state = State::kQueued;
    common::ByteBuffer raw;            // Cached payload until durable.
    std::uint64_t raw_size = 0;        // Payload size, valid in every state.
    std::uint64_t framed_size = 0;     // Frame size once durable.
    Extent extent;                     // Frame location once durable.
    io::IoExecutor::JobId job = 0;     // 0 until Spill's submit returns.
    std::exception_ptr error;          // Set in kFailed until surfaced once.
  };

  // One append-only file of frames. Every reserved frame (being written,
  // durable, or being read) holds it open; see ReleaseFrame. Every segment
  // but the active one is sealed.
  struct Segment {
    explicit Segment(int file) : fd(file) {}
    ~Segment();
    Segment(const Segment&) = delete;
    Segment& operator=(const Segment&) = delete;

    const int fd;
    std::uint64_t end = 0;     // Next free offset.
    std::uint64_t frames = 0;  // Reserved frames not yet loaded or removed.
  };

  std::filesystem::path SegmentPath(std::uint32_t segment) const;

  // Background write body for |id|.
  void RunWrite(SpillId id);

  // Reserves room for |framed| in the active segment (opening one if needed)
  // and pwrites it there. A failed pwrite releases its reservation.
  Extent WriteFrame(const common::ByteBuffer& framed);

  // Preads |bytes| at |offset| of the segment file |fd|.
  common::ByteBuffer ReadFrame(int fd, std::uint64_t offset, std::uint64_t bytes);

  // Drops one frame's hold on |segment|: the last frame of a sealed segment
  // unlinks it, and the last frame of the active segment rewinds it.
  void ReleaseFrame(std::uint32_t segment);

  // LoadAndRemove without stall accounting (shared with LoadAsync).
  common::ByteBuffer LoadInternal(SpillId id, obs::IoLoadSource* source);

  void RecordStall(std::uint64_t stall_ns, std::uint64_t bytes, obs::IoLoadSource source);

  // Fires the injected fault for one frame write/read if armed. Throws
  // std::runtime_error (after counting the failure) when the op must fail.
  void MaybeInjectFailure(bool is_write);

  obs::Tracer* tracer_ = nullptr;
  std::uint16_t trace_node_ = 0;
  std::filesystem::path dir_;

  mutable std::mutex mu_;  // Guards entries_, next_id_, segments_, active_, stats_, faults_.
  std::condition_variable state_cv_;  // Signalled when a write settles.
  std::unordered_map<SpillId, Entry> entries_;
  SpillId next_id_ = 1;
  std::unordered_map<std::uint32_t, Segment> segments_;
  std::uint32_t active_ = 0;  // Segment that takes the next frame; 0 = none yet.
  std::uint32_t next_segment_ = 1;
  SpillStats stats_;

  chaos::SpillFaults faults_;
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
