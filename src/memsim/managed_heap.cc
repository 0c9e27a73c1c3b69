#include "memsim/managed_heap.h"

#include <algorithm>

#include "chaos/chaos.h"
#include "common/logging.h"
#include "common/spin.h"

namespace itask::memsim {

namespace {
thread_local JobId tls_job_id = kNoJob;
}  // namespace

JobId CurrentJobId() { return tls_job_id; }

JobScope::JobScope(JobId id) : prev_(tls_job_id) { tls_job_id = id; }
JobScope::~JobScope() { tls_job_id = prev_; }

ManagedHeap::ManagedHeap(HeapConfig config) : config_(config) {}

void ManagedHeap::NoteJobAlloc(std::uint64_t bytes) {
  const JobId job = tls_job_id;
  if (job == kNoJob || job >= kMaxJobAccounts) {
    return;
  }
  job_live_[job].fetch_add(bytes, std::memory_order_relaxed);
}

void ManagedHeap::NoteJobFree(std::uint64_t bytes) {
  const JobId job = tls_job_id;
  if (job == kNoJob || job >= kMaxJobAccounts) {
    return;
  }
  auto& acct = job_live_[job];
  std::uint64_t held = acct.load(std::memory_order_relaxed);
  std::uint64_t drop;
  do {
    drop = std::min(bytes, held);
  } while (!acct.compare_exchange_weak(held, held - drop, std::memory_order_relaxed));
}

void ManagedHeap::SetJobBudget(JobId job, std::uint64_t bytes) {
  if (job == kNoJob || job >= kMaxJobAccounts) {
    return;
  }
  job_budget_[job].store(bytes, std::memory_order_relaxed);
}

void ManagedHeap::ResetJobAccount(JobId job) {
  if (job == kNoJob || job >= kMaxJobAccounts) {
    return;
  }
  job_budget_[job].store(0, std::memory_order_relaxed);
  job_live_[job].store(0, std::memory_order_relaxed);
}

std::uint64_t ManagedHeap::job_live_bytes(JobId job) const {
  return job < kMaxJobAccounts ? job_live_[job].load(std::memory_order_relaxed) : 0;
}

std::uint64_t ManagedHeap::job_budget_bytes(JobId job) const {
  return job < kMaxJobAccounts ? job_budget_[job].load(std::memory_order_relaxed) : 0;
}

std::uint64_t ManagedHeap::JobOverage(JobId job) const {
  if (job == kNoJob || job >= kMaxJobAccounts) {
    return 0;
  }
  const std::uint64_t budget = job_budget_[job].load(std::memory_order_relaxed);
  if (budget == 0) {
    return 0;  // Unbudgeted: overage is undefined, arbitration exempts it.
  }
  const std::uint64_t live = job_live_[job].load(std::memory_order_relaxed);
  return live > budget ? live - budget : 0;
}

PressureRank ManagedHeap::PressureVictimRank(JobId job) const {
  if (job == kNoJob || job >= kMaxJobAccounts || job_budget_bytes(job) == 0) {
    return PressureRank::kFullReduce;  // Unbudgeted jobs arbitrate nothing.
  }
  const std::uint64_t own = JobOverage(job);
  std::uint64_t max_over = 0;
  for (std::size_t j = 1; j < kMaxJobAccounts; ++j) {
    max_over = std::max(max_over, JobOverage(static_cast<JobId>(j)));
  }
  if (max_over == 0) {
    // Every budgeted tenant is within budget; the pressure is structural
    // (garbage, unattributed allocations) and everyone shares the response.
    return PressureRank::kFullReduce;
  }
  if (own == 0) {
    return PressureRank::kProtected;
  }
  return own >= max_over ? PressureRank::kFullReduce : PressureRank::kSpillOnly;
}

void ManagedHeap::Allocate(std::uint64_t bytes) {
  if (bytes > 0 && poisoned_.load(std::memory_order_relaxed)) {
    ome_count_.fetch_add(1, std::memory_order_relaxed);
    throw OutOfMemoryError("ManagedHeap: poisoned (injected persistent allocation failure)");
  }
  if (bytes > 0 && forced_ome_.exchange(false, std::memory_order_relaxed)) {
    ome_count_.fetch_add(1, std::memory_order_relaxed);
    throw OutOfMemoryError("ManagedHeap: injected allocation failure (chaos forced OME)");
  }
  if (!TryAllocate(bytes)) {
    ome_count_.fetch_add(1, std::memory_order_relaxed);
    throw OutOfMemoryError("ManagedHeap: cannot allocate " + std::to_string(bytes) +
                           " bytes (live=" + std::to_string(live_.load()) +
                           ", capacity=" + std::to_string(config_.capacity_bytes) + ")");
  }
}

bool ManagedHeap::TryAllocate(std::uint64_t bytes) {
  // The fast path is lock-free: worker threads allocate with atomics and only
  // serialize when a stop-the-world collection is warranted. Allocations
  // during a collection spin until it completes (all mutators stop).
  const std::uint64_t capacity = config_.capacity_bytes;
  const auto trigger =
      static_cast<std::uint64_t>(config_.gc_trigger_fraction * static_cast<double>(capacity));
  for (int attempt = 0; attempt < 4; ++attempt) {
    WaitWhileCollecting();

    // Fast fail: when live data alone cannot accommodate the request, no
    // collection can help — do not pay a pause for a doomed allocation
    // (OME-retry loops would otherwise degenerate into a GC storm).
    const std::uint64_t live = live_.load(std::memory_order_relaxed);
    if (live + bytes > capacity) {
      return false;
    }
    const std::uint64_t garbage = garbage_.load(std::memory_order_relaxed);
    const std::uint64_t used = live + garbage;

    // Collect when the trigger is crossed AND there is enough garbage for the
    // collection to matter (a generational collector does not re-run a full
    // GC the instant after one that reclaimed nothing). The floor shrinks as
    // free space shrinks: a JVM grinding near exhaustion collects far more
    // often — the "agony band" that makes barely-fitting executions slow in
    // the paper's evaluation.
    const std::uint64_t free_now = used >= capacity ? 0 : capacity - used;
    const std::uint64_t garbage_floor =
        std::max(capacity / 512, std::min(capacity / 32, free_now / 2));
    if (used + bytes > trigger && (garbage >= garbage_floor || used + bytes > capacity)) {
      Collect();
      continue;
    }

    // Optimistically claim the bytes; roll back on overshoot.
    const std::uint64_t new_live = live_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    const std::uint64_t new_garbage = garbage_.load(std::memory_order_relaxed);
    if (new_live + new_garbage > capacity) {
      live_.fetch_sub(bytes, std::memory_order_relaxed);
      // Another thread raced us past capacity; try the collection path again.
      continue;
    }
    allocated_total_.fetch_add(bytes, std::memory_order_relaxed);
    NoteJobAlloc(bytes);
    // The pair the capacity check passed: a garbage_ read taken later could
    // count a concurrent Free twice (its bytes left live after new_live).
    UpdatePeaks(new_live, new_garbage);
    return true;
  }
  return false;
}

void ManagedHeap::UpdatePeaks(std::uint64_t live_now, std::uint64_t garbage_now) {
  const std::uint64_t used_now = live_now + garbage_now;
  std::uint64_t peak = peak_used_.load(std::memory_order_relaxed);
  while (used_now > peak && !peak_used_.compare_exchange_weak(peak, used_now)) {
  }
  std::uint64_t peak_live = peak_live_.load(std::memory_order_relaxed);
  while (live_now > peak_live && !peak_live_.compare_exchange_weak(peak_live, live_now)) {
  }
}

void ManagedHeap::WaitWhileCollecting() const {
  while (collecting_.load(std::memory_order_acquire)) {
    // Mutators stop during a stop-the-world collection.
    common::SpinForNs(200);
  }
}

void ManagedHeap::Free(std::uint64_t bytes) {
  // live -> garbage; reclaimable only by a collection.
  std::uint64_t live = live_.load(std::memory_order_relaxed);
  std::uint64_t drop;
  do {
    drop = std::min(bytes, live);
  } while (!live_.compare_exchange_weak(live, live - drop, std::memory_order_relaxed));
  if (drop != bytes) {
    LOG_WARN() << "ManagedHeap::Free over-release: " << bytes << " > live " << live + drop;
  }
  garbage_.fetch_add(drop, std::memory_order_relaxed);
  NoteJobFree(drop);  // Moving bytes from live to garbage raises neither peak.
}

GcEvent ManagedHeap::Collect() {
  GcEvent event;
  {
    std::lock_guard lock(gc_mu_);
    collecting_.store(true, std::memory_order_release);
    event = CollectLocked();
    collecting_.store(false, std::memory_order_release);
  }
  NotifyListeners(event);
  return event;
}

GcEvent ManagedHeap::CollectLocked() {
  const std::uint64_t live = live_.load(std::memory_order_relaxed);
  const std::uint64_t garbage = garbage_.load(std::memory_order_relaxed);
  const std::uint64_t scanned = live + garbage;
  const auto pause_ns =
      config_.gc_base_ns +
      static_cast<std::uint64_t>(static_cast<double>(scanned) * config_.gc_ns_per_byte);

  // Stop-the-world: collecting_ is set, so every allocating thread stalls.
  if (config_.real_pauses) {
    common::SpinForNs(pause_ns);
  }

  // Reclaim exactly the garbage observed at scan time (late arrivals wait for
  // the next collection, like objects dying during a real GC).
  garbage_.fetch_sub(garbage, std::memory_order_relaxed);

  GcEvent event;
  event.sequence = gc_sequence_.fetch_add(1, std::memory_order_relaxed) + 1;
  event.reclaimed_bytes = garbage;
  event.live_after = live;
  event.free_after = live >= config_.capacity_bytes ? 0 : config_.capacity_bytes - live;
  event.pause_ns = pause_ns;
  event.useless = static_cast<double>(event.free_after) <
                  config_.lugc_free_fraction * static_cast<double>(config_.capacity_bytes);

  gc_count_.fetch_add(1, std::memory_order_relaxed);
  if (event.useless) {
    lugc_count_.fetch_add(1, std::memory_order_relaxed);
  }
  gc_pause_total_ns_.fetch_add(pause_ns, std::memory_order_relaxed);

  LOG_DEBUG() << "GC #" << event.sequence << " reclaimed=" << event.reclaimed_bytes
              << " live=" << event.live_after << " pause_ns=" << event.pause_ns
              << (event.useless ? " LUGC" : "");
  return event;
}

int ManagedHeap::AddGcListener(GcListener listener) {
  std::lock_guard lock(listener_mu_);
  const int id = next_listener_id_++;
  listeners_.emplace_back(id, std::move(listener));
  return id;
}

void ManagedHeap::RemoveGcListener(int id) {
  // Taking listener_mu_ (the dispatch lock) makes removal a barrier: any
  // in-flight NotifyListeners completes first, and later ones skip this
  // listener. Without this, a collection racing a runtime's destruction
  // would invoke a listener whose captured |this| is already gone.
  std::lock_guard lock(listener_mu_);
  listeners_.erase(std::remove_if(listeners_.begin(), listeners_.end(),
                                  [id](const auto& entry) { return entry.first == id; }),
                   listeners_.end());
}

void ManagedHeap::NotifyListeners(const GcEvent& event) {
  CHAOS_POINT("heap.notify_listeners");
  // Dispatch under listener_mu_ (not a copy) so RemoveGcListener can
  // guarantee no callback outlives it. Listeners must not re-enter the heap.
  std::lock_guard lock(listener_mu_);
  for (const auto& [id, listener] : listeners_) {
    listener(event);
  }
}

HeapStats ManagedHeap::Stats() const {
  HeapStats stats;
  stats.live_bytes = live_.load(std::memory_order_relaxed);
  stats.garbage_bytes = garbage_.load(std::memory_order_relaxed);
  stats.peak_used_bytes = peak_used_.load(std::memory_order_relaxed);
  stats.peak_live_bytes = peak_live_.load(std::memory_order_relaxed);
  stats.gc_count = gc_count_.load(std::memory_order_relaxed);
  stats.lugc_count = lugc_count_.load(std::memory_order_relaxed);
  stats.total_gc_pause_ns = gc_pause_total_ns_.load(std::memory_order_relaxed);
  stats.allocated_bytes_total = allocated_total_.load(std::memory_order_relaxed);
  stats.ome_count = ome_count_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace itask::memsim
