// DataPartition: the unit of input/output data in the ITask model (paper §4.1).
//
// A partition wraps an interval of tuples, carries a *tag* (how partial
// results aggregate) and a *cursor* (boundary between processed and
// unprocessed tuples), and knows how to serialize itself so the partition
// manager can lazily move it between memory and disk.
//
// Payload memory is charged against the owning node's ManagedHeap; spilling a
// partition frees that charge (the paper's staged release, step (v)).
#ifndef ITASK_ITASK_PARTITION_H_
#define ITASK_ITASK_PARTITION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>

#include "common/byte_buffer.h"
#include "memsim/managed_heap.h"
#include "serde/serializer.h"
#include "serde/spill_manager.h"
#include "itask/types.h"

namespace itask::core {

class DataPartition {
 public:
  DataPartition(TypeId type, memsim::ManagedHeap* heap, serde::SpillManager* spill)
      : type_(type), heap_(heap), spill_(spill) {}
  virtual ~DataPartition() = default;

  DataPartition(const DataPartition&) = delete;
  DataPartition& operator=(const DataPartition&) = delete;

  // ---- Tuple interface (valid only while resident) ----

  // Number of tuples currently held (unprocessed suffix after a reload).
  virtual std::size_t TupleCount() const = 0;

  // Managed bytes currently charged for the payload.
  std::uint64_t PayloadBytes() const { return payload_bytes_.load(std::memory_order_relaxed); }

  // Serializes tuples [cursor, end) — the unprocessed remainder.
  virtual void SerializeTo(serde::Writer& writer) const = 0;

  // Replaces the payload from serialized form, charging the heap. May throw
  // memsim::OutOfMemoryError.
  virtual void DeserializeFrom(serde::Reader& reader) = 0;

  // Frees the payload charge and drops the tuples.
  virtual void DropPayload() = 0;

  // Releases tuples [0, cursor) — the processed prefix (staged release step
  // (ii)). Returns the number of managed bytes freed; resets cursor to 0.
  virtual std::uint64_t ReleaseProcessedPrefix() = 0;

  // ---- Partition state ----

  TypeId type() const { return type_; }
  Tag tag() const { return tag_; }
  void set_tag(Tag tag) { tag_ = tag; }

  std::size_t cursor() const { return cursor_; }
  void set_cursor(std::size_t cursor) { cursor_ = cursor; }
  void AdvanceCursor() { ++cursor_; }
  bool Exhausted() const { return cursor_ >= TupleCount(); }

  // Residency is written under state_mu_ but read lock-free by scheduling
  // heuristics (queue locality scans, spill-victim snapshots). Those readers
  // only branch on the value — anything that touches the payload serializes
  // on state_mu_ — so acquire/release is enough and no reader needs the lock.
  bool resident() const { return resident_.load(std::memory_order_acquire); }

  // ---- Spill management (used by the partition manager) ----

  // Serializes the unprocessed remainder to disk and drops the payload.
  // No-op when already spilled. Returns bytes freed from the heap.
  // |priority| orders the write in the async I/O queue (the partition manager
  // passes finish-line distance: spills of far-from-done partitions drain
  // last, so they stay cancellable longest).
  std::uint64_t Spill(int priority = 0);

  // Spill variant for the partition manager's victim pass: re-checks the pin
  // flag under state_mu_ and refuses to spill a pinned partition. A worker
  // pops (which pins) and then calls EnsureResident (which locks state_mu_)
  // before touching tuples, so this re-check closes the window where the
  // manager's snapshot predates the pop — without it the manager could drop a
  // payload the owning worker is iterating. Plain Spill() keeps bypassing the
  // flag for partitions the caller itself owns (SpillOwned on merge-group
  // members, input feeding).
  std::uint64_t SpillIfIdle(int priority = 0);

  // Loads a spilled payload back into memory (charging the heap) and resets
  // the cursor to 0 (only unprocessed tuples were spilled). Consumes a
  // pending prefetch first, falling back to a synchronous load if the
  // prefetch failed.
  void EnsureResident();

  // Starts a background load of a spilled payload (double-buffered
  // read-ahead: MITask prefetches group k+1 while merging group k). No-op —
  // returning false — when the partition is resident, already prefetching,
  // contended, or the spill store has no I/O pool (it runs inline).
  bool StartPrefetch(int priority = 0);

  // Moves the partition's charge to another node's heap/spill (models the
  // serialize-transfer-deserialize of a shuffle hop).
  void TransferTo(memsim::ManagedHeap* heap, serde::SpillManager* spill);

  // Thrash-control timestamp (paper §5.3). Written under state_mu_ after a
  // reload, read lock-free by the spill pass; relaxed is fine — the window
  // comparison is a heuristic and tolerates a stale stamp by one reload.
  std::chrono::steady_clock::time_point last_load_time() const {
    return std::chrono::steady_clock::time_point(
        std::chrono::steady_clock::duration(last_load_ns_.load(std::memory_order_relaxed)));
  }

  // Pin flag: set by the queue when a worker takes the partition, so the
  // partition manager skips it when choosing spill victims.
  bool pinned() const { return pinned_.load(std::memory_order_acquire); }
  void set_pinned(bool pinned) { pinned_.store(pinned, std::memory_order_release); }

  // Set when the partition is re-queued by an interrupt; popping such a
  // partition counts as a re-activation in the metrics.
  bool requeued() const { return requeued_.load(std::memory_order_acquire); }
  void set_requeued(bool requeued) { requeued_.store(requeued, std::memory_order_release); }

  // ---- Lineage (fault tolerance) ----

  // The input split whose processing produced this partition, plus the
  // re-execution epoch of that split at production time. Stamped by
  // TaskContext::Emit when fault tolerance is on; kNoSplit otherwise. The
  // recovery ledger keys shuffle dedup ids (split, epoch, seq) off these.
  static constexpr std::int64_t kNoSplit = -1;
  std::int64_t origin_split() const { return origin_split_; }
  std::uint32_t origin_epoch() const { return origin_epoch_; }
  void set_origin(std::int64_t split, std::uint32_t epoch) {
    origin_split_ = split;
    origin_epoch_ = epoch;
  }

  // Discards the partition entirely: consumes or removes any spilled frame
  // and drops a resident payload. Used by node-failure recovery when purging
  // a dead node's queue — the data re-materializes from lineage, not from
  // here — so the counters' C1/C2 story stays exact (no stranded heap charge,
  // no orphaned spill frame).
  void Purge();

  // Consecutive zero-progress activations (OME loops); used to detect inputs
  // that can never fit (e.g. one tuple larger than the heap).
  int no_progress() const { return no_progress_; }
  void IncrementNoProgress() { ++no_progress_; }
  void ResetNoProgress() { no_progress_ = 0; }

  memsim::ManagedHeap* heap() const { return heap_; }
  serde::SpillManager* spill_manager() const { return spill_; }

  // Tenant tag: the job whose thread constructed this partition (kNoJob for
  // single-job runs). Used by the chaos auditor's S3 isolation invariant —
  // a partition queued under job A must never carry job B's tag.
  memsim::JobId job() const { return job_; }

 protected:
  // Payload accounting for subclasses: charges go against the partition's
  // *current* heap (which TransferTo may change), so subclasses must route all
  // payload memory through these instead of holding their own HeapCharge.
  void ChargeBytes(std::uint64_t bytes) {
    if (bytes == 0) {
      return;
    }
    heap_->Allocate(bytes);  // May throw OutOfMemoryError.
    payload_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void ReleaseBytes(std::uint64_t bytes) {
    const std::uint64_t held = payload_bytes_.load(std::memory_order_relaxed);
    const std::uint64_t drop = bytes > held ? held : bytes;
    if (drop == 0) {
      return;
    }
    heap_->Free(drop);
    payload_bytes_.fetch_sub(drop, std::memory_order_relaxed);
  }
  void ReleaseAllBytes() { ReleaseBytes(payload_bytes_.load(std::memory_order_relaxed)); }

 private:
  std::uint64_t SpillLocked(int priority);
  void EnsureResidentLocked();

  TypeId type_;
  memsim::ManagedHeap* heap_;
  serde::SpillManager* spill_;
  Tag tag_ = kNoTag;
  std::size_t cursor_ = 0;
  std::atomic<bool> resident_{true};
  std::optional<serde::SpillManager::SpillId> spill_id_;
  std::future<common::ByteBuffer> prefetch_;  // In-flight read-ahead, if any.
  std::atomic<std::chrono::steady_clock::rep> last_load_ns_{
      std::chrono::steady_clock::now().time_since_epoch().count()};
  std::atomic<std::uint64_t> payload_bytes_{0};
  std::atomic<bool> pinned_{false};
  std::atomic<bool> requeued_{false};
  std::int64_t origin_split_ = kNoSplit;
  std::uint32_t origin_epoch_ = 0;
  // True while TransferTo is re-charging the payload against the destination
  // heap with state_mu_ *released* between OME retries. Spill passes that
  // sneak in during that window see an empty payload mid-move and must skip
  // the partition instead of spilling a zero-byte remainder (which would
  // flip resident_/spill_id_ under the transfer loop). Guarded by state_mu_.
  bool transferring_ = false;
  memsim::JobId job_ = memsim::CurrentJobId();
  int no_progress_ = 0;
  // Serializes Spill/EnsureResident/TransferTo against each other (the
  // partition manager may spill a queued partition while a worker pops it).
  std::mutex state_mu_;
};

using PartitionPtr = std::shared_ptr<DataPartition>;

}  // namespace itask::core

#endif  // ITASK_ITASK_PARTITION_H_
