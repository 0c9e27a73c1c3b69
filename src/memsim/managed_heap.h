// ManagedHeap: the managed-runtime substrate the ITask system runs against.
//
// The paper's mechanism observes a JVM: GC pauses grow with heap occupancy,
// collections on a heap full of *live* data reclaim almost nothing (a "long
// useless GC", LUGC), and exhaustion raises an OutOfMemoryError. C++ has no
// such runtime, so this class reproduces the observable behaviour:
//
//  - Every task-visible allocation is charged against a per-node capacity.
//  - Free() does NOT return memory to the free pool; it turns live bytes into
//    *garbage*, reclaimable only by a collection — exactly the managed-heap
//    life cycle the paper's monitor watches.
//  - A collection is stop-the-world: it holds the heap lock (blocking all
//    allocating threads) and burns real CPU for `base + scanned_bytes * rate`
//    nanoseconds, so GC cost shows up in wall-clock measurements.
//  - A collection that cannot raise free memory above `lugc_free_fraction`
//    (the paper's M%) is flagged useless and reported to listeners; the IRS
//    monitor treats it as the memory-pressure interrupt.
//  - An allocation that cannot be satisfied even after collecting throws
//    OutOfMemoryError, which the engines surface as a job crash.
#ifndef ITASK_MEMSIM_MANAGED_HEAP_H_
#define ITASK_MEMSIM_MANAGED_HEAP_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace itask::memsim {

// Thrown when an allocation cannot be satisfied even after a full collection.
class OutOfMemoryError : public std::runtime_error {
 public:
  explicit OutOfMemoryError(const std::string& what) : std::runtime_error(what) {}
};

// ---- Multi-tenant job attribution (DESIGN.md §12) ----
//
// A heap is shared by every job running on its node. Allocation and free calls
// carry no job identity, so attribution rides on a thread-local: every thread
// working on behalf of a job (scheduler workers, the monitor, the driver
// thread feeding input) runs under a JobScope, and the heap charges that job's
// account. Cross-node transfers happen on the producing worker's thread, so
// the charge lands on the same job on the destination heap.
//
// Job id 0 (kNoJob) is the unattributed account: single-job runs and
// infrastructure allocations land there and are exempt from budget
// arbitration, which keeps every pre-jobsvc code path byte-for-byte unchanged.
using JobId = std::uint32_t;
inline constexpr JobId kNoJob = 0;
// Account slots per heap. The job service allocates account ids from a free
// list of [1, kMaxJobAccounts), so concurrent tenants never collide.
inline constexpr std::size_t kMaxJobAccounts = 32;

// The calling thread's current job attribution (kNoJob outside any scope).
JobId CurrentJobId();

// RAII thread-local job attribution. Nests; restores the previous id.
class JobScope {
 public:
  explicit JobScope(JobId id);
  ~JobScope();
  JobScope(const JobScope&) = delete;
  JobScope& operator=(const JobScope&) = delete;

 private:
  JobId prev_;
};

// How a tenant should respond to a REDUCE signal on a shared heap — the
// cross-tenant arbitration verdict (see ManagedHeap::PressureVictimRank).
enum class PressureRank : std::uint8_t {
  kProtected = 0,   // Under budget while another tenant is over: do not shed.
  kSpillOnly = 1,   // Over budget, but a peer is further over: spill, no victims.
  kFullReduce = 2,  // Most-over-budget tenant (or no arbitration applies).
};

struct HeapConfig {
  std::uint64_t capacity_bytes = 64ULL << 20;

  // Collection pause model: pause_ns = gc_base_ns + scanned_bytes * gc_ns_per_byte,
  // where scanned_bytes = live + garbage at collection start.
  std::uint64_t gc_base_ns = 50'000;
  double gc_ns_per_byte = 0.25;

  // M%: a collection leaving free memory below this fraction is a LUGC.
  double lugc_free_fraction = 0.10;
  // N%: free memory at or above this fraction signals room to grow parallelism.
  double grow_free_fraction = 0.20;

  // Occupancy fraction that proactively triggers a collection on allocation
  // (mimics the JVM collecting before hard exhaustion).
  double gc_trigger_fraction = 0.98;

  // If false, pauses are accounted but not spun (fast unit tests).
  bool real_pauses = true;
};

struct GcEvent {
  std::uint64_t sequence = 0;
  std::uint64_t reclaimed_bytes = 0;
  std::uint64_t live_after = 0;
  std::uint64_t free_after = 0;
  std::uint64_t pause_ns = 0;
  bool useless = false;  // LUGC

  // Fraction of the scanned heap the collection recovered (0 for an empty
  // scan). The obs tracer records this with every GC event; a low ratio is
  // the LUGC signature the monitor keys off.
  double ReclaimRatio() const {
    const std::uint64_t scanned = live_after + reclaimed_bytes;
    return scanned == 0 ? 0.0
                        : static_cast<double>(reclaimed_bytes) / static_cast<double>(scanned);
  }
};

struct HeapStats {
  std::uint64_t live_bytes = 0;
  std::uint64_t garbage_bytes = 0;
  std::uint64_t peak_used_bytes = 0;   // max(live + garbage)
  std::uint64_t peak_live_bytes = 0;
  std::uint64_t gc_count = 0;
  std::uint64_t lugc_count = 0;
  std::uint64_t total_gc_pause_ns = 0;
  std::uint64_t allocated_bytes_total = 0;
  std::uint64_t ome_count = 0;
};

class ManagedHeap {
 public:
  using GcListener = std::function<void(const GcEvent&)>;

  explicit ManagedHeap(HeapConfig config);

  ManagedHeap(const ManagedHeap&) = delete;
  ManagedHeap& operator=(const ManagedHeap&) = delete;

  // Charges |bytes| of live memory. May run a stop-the-world collection; throws
  // OutOfMemoryError if the bytes cannot fit even with zero garbage.
  void Allocate(std::uint64_t bytes);

  // Non-throwing variant: returns false instead of raising OME (used by
  // speculative growth decisions). Does not count an OME.
  bool TryAllocate(std::uint64_t bytes);

  // Converts |bytes| of live memory into garbage (unreachable but uncollected).
  void Free(std::uint64_t bytes);

  // Forces a full collection; returns the event describing it.
  GcEvent Collect();

  // Registers a listener; returns an id for RemoveGcListener. Listeners run
  // after the heap lock is released, in the thread that triggered the
  // collection, with the listener registry lock held — so once
  // RemoveGcListener returns, the listener is guaranteed not to be running
  // and will never run again (required when the listener captures an object
  // whose lifetime ends, e.g. an IrsRuntime on a longer-lived cluster heap).
  // Listeners must therefore not call Collect() or touch the registry.
  int AddGcListener(GcListener listener);
  void RemoveGcListener(int id);

  // Arms a one-shot injected allocation failure: the next Allocate() throws
  // OutOfMemoryError (and counts an OME) regardless of heap state. Used by
  // the chaos harness to exercise the paper's "allocation failure is the most
  // urgent pressure signal" path at schedules the workload would never
  // produce. Armed only by the IRS monitor (between Start and Stop), so
  // driver-side feeding never trips it; Stop() disarms.
  void ArmForcedOme() { forced_ome_.store(true, std::memory_order_relaxed); }
  void DisarmForcedOme() { forced_ome_.store(false, std::memory_order_relaxed); }

  // Persistent variant of the forced OME: every subsequent Allocate() throws
  // until Unpoison(). Models a node whose heap is terminally wedged (e.g. a
  // native leak or fragmentation): the failure-model "oom-poison" fault uses
  // it to drive a node into the escaped-OME → draining demotion path.
  void Poison() { poisoned_.store(true, std::memory_order_relaxed); }
  void Unpoison() { poisoned_.store(false, std::memory_order_relaxed); }
  bool poisoned() const { return poisoned_.load(std::memory_order_relaxed); }

  // ---- Per-job accounting and budgets (multi-tenant arbitration) ----
  // Budgets are *soft*: they never fail an allocation (the service's admission
  // control keeps the sum of budgets within capacity); they steer which tenant
  // the IRS monitors pick as the pressure victim. Budget 0 means unbudgeted —
  // such jobs always rank kFullReduce, reproducing single-job behaviour.
  void SetJobBudget(JobId job, std::uint64_t bytes);
  // Zeroes a finished job's budget and any residual live attribution (cross-
  // thread attribution skew must not leak into the slot's next tenant).
  void ResetJobAccount(JobId job);
  std::uint64_t job_live_bytes(JobId job) const;
  std::uint64_t job_budget_bytes(JobId job) const;
  // Bytes this job is over its budget (0 when unbudgeted or within budget).
  std::uint64_t JobOverage(JobId job) const;
  // Cross-tenant arbitration verdict for |job|'s monitor: the tenant furthest
  // over its budget takes the full REDUCE (victim interrupts included), other
  // over-budget tenants spill only, and under-budget tenants are protected.
  // When no budgeted tenant is over budget, everyone ranks kFullReduce — the
  // pressure is structural, not one tenant's fault.
  PressureRank PressureVictimRank(JobId job) const;

  std::uint64_t capacity() const { return config_.capacity_bytes; }
  std::uint64_t live_bytes() const { return live_.load(std::memory_order_relaxed); }
  std::uint64_t garbage_bytes() const { return garbage_.load(std::memory_order_relaxed); }
  std::uint64_t used_bytes() const { return live_bytes() + garbage_bytes(); }
  std::uint64_t free_bytes() const {
    const std::uint64_t used = used_bytes();
    return used >= capacity() ? 0 : capacity() - used;
  }
  double free_fraction() const {
    return static_cast<double>(free_bytes()) / static_cast<double>(capacity());
  }

  // True when free memory (ignoring collectable garbage) is at or above N%.
  bool HasGrowHeadroom() const {
    const std::uint64_t live = live_bytes();
    const std::uint64_t free_if_collected = live >= capacity() ? 0 : capacity() - live;
    return static_cast<double>(free_if_collected) >=
           config_.grow_free_fraction * static_cast<double>(capacity());
  }

  HeapStats Stats() const;
  const HeapConfig& config() const { return config_; }

 private:
  // Charges/releases |bytes| on the calling thread's job account. Free-side
  // releases clamp at the account's balance: attribution skew (a partition
  // allocated under one scope, freed under another) must never underflow a
  // tenant's ledger or inflate a peer's.
  void NoteJobAlloc(std::uint64_t bytes);
  void NoteJobFree(std::uint64_t bytes);

  // Runs a collection with gc_mu_ held; returns the event.
  GcEvent CollectLocked();
  void NotifyListeners(const GcEvent& event);
  void WaitWhileCollecting() const;
  void UpdatePeaks(std::uint64_t live_now, std::uint64_t garbage_now);

  HeapConfig config_;
  // Allocation/free are lock-free; gc_mu_ serializes collections and the
  // collecting_ flag implements stop-the-world (mutators spin while set).
  mutable std::mutex gc_mu_;
  std::atomic<bool> collecting_{false};
  std::atomic<std::uint64_t> live_{0};
  std::atomic<std::uint64_t> garbage_{0};
  std::atomic<std::uint64_t> peak_used_{0};
  std::atomic<std::uint64_t> peak_live_{0};
  std::atomic<std::uint64_t> gc_count_{0};
  std::atomic<std::uint64_t> lugc_count_{0};
  std::atomic<std::uint64_t> gc_pause_total_ns_{0};
  std::atomic<std::uint64_t> allocated_total_{0};
  std::atomic<std::uint64_t> ome_count_{0};
  std::atomic<std::uint64_t> gc_sequence_{0};
  std::atomic<bool> forced_ome_{false};
  std::atomic<bool> poisoned_{false};
  // Per-job live bytes and budgets, indexed by account id (see JobScope).
  std::array<std::atomic<std::uint64_t>, kMaxJobAccounts> job_live_{};
  std::array<std::atomic<std::uint64_t>, kMaxJobAccounts> job_budget_{};
  std::vector<std::pair<int, GcListener>> listeners_;
  int next_listener_id_ = 0;
  std::mutex listener_mu_;
};

// RAII charge against a heap. Move-only; releases (Free) on destruction.
class HeapCharge {
 public:
  HeapCharge() = default;
  HeapCharge(ManagedHeap* heap, std::uint64_t bytes) : heap_(heap), bytes_(0) {
    Add(bytes);
  }
  HeapCharge(HeapCharge&& other) noexcept : heap_(other.heap_), bytes_(other.bytes_) {
    other.heap_ = nullptr;
    other.bytes_ = 0;
  }
  HeapCharge& operator=(HeapCharge&& other) noexcept {
    if (this != &other) {
      Release();
      heap_ = other.heap_;
      bytes_ = other.bytes_;
      other.heap_ = nullptr;
      other.bytes_ = 0;
    }
    return *this;
  }
  HeapCharge(const HeapCharge&) = delete;
  HeapCharge& operator=(const HeapCharge&) = delete;
  ~HeapCharge() { Release(); }

  // Charges additional bytes. May throw OutOfMemoryError.
  void Add(std::uint64_t bytes) {
    if (heap_ != nullptr && bytes > 0) {
      heap_->Allocate(bytes);
      bytes_ += bytes;
    }
  }

  // Returns part of the charge (down to zero) to garbage.
  void Shrink(std::uint64_t bytes) {
    if (heap_ != nullptr && bytes > 0) {
      const std::uint64_t drop = bytes > bytes_ ? bytes_ : bytes;
      heap_->Free(drop);
      bytes_ -= drop;
    }
  }

  void Release() {
    if (heap_ != nullptr && bytes_ > 0) {
      heap_->Free(bytes_);
    }
    bytes_ = 0;
  }

  std::uint64_t bytes() const { return bytes_; }
  ManagedHeap* heap() const { return heap_; }

 private:
  ManagedHeap* heap_ = nullptr;
  std::uint64_t bytes_ = 0;
};

}  // namespace itask::memsim

#endif  // ITASK_MEMSIM_MANAGED_HEAP_H_
