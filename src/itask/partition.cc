#include "itask/partition.h"

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/backoff.h"
#include "common/byte_buffer.h"
#include "common/spin.h"

namespace itask::core {

std::uint64_t DataPartition::Spill(int priority) {
  std::lock_guard lock(state_mu_);
  return SpillLocked(priority);
}

std::uint64_t DataPartition::SpillIfIdle(int priority) {
  std::lock_guard lock(state_mu_);
  // Pop pins before the popping worker's EnsureResident (which serializes on
  // state_mu_), so by the time a worker iterates tuples this check is
  // guaranteed to observe the pin and leave the payload alone. A spill that
  // slips in between pop and EnsureResident merely forces a reload.
  if (pinned()) {
    return 0;
  }
  return SpillLocked(priority);
}

std::uint64_t DataPartition::SpillLocked(int priority) {
  if (transferring_ || !resident_.load(std::memory_order_relaxed)) {
    return 0;
  }
  common::ByteBuffer buffer;
  serde::Writer writer(&buffer);
  SerializeTo(writer);
  const std::uint64_t freed = PayloadBytes();
  spill_id_ = spill_->Spill(std::move(buffer), priority);
  DropPayload();
  cursor_ = 0;
  resident_.store(false, std::memory_order_release);
  return freed;
}

void DataPartition::EnsureResident() {
  std::lock_guard lock(state_mu_);
  EnsureResidentLocked();
}

bool DataPartition::StartPrefetch(int priority) {
  std::unique_lock lock(state_mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    return false;  // Someone is spilling/loading it right now; skip.
  }
  if (resident_.load(std::memory_order_relaxed) || !spill_id_.has_value() ||
      prefetch_.valid() || !spill_->SupportsAsync()) {
    return false;
  }
  prefetch_ = spill_->LoadAsync(*spill_id_, priority);
  return true;
}

void DataPartition::EnsureResidentLocked() {
  if (resident_.load(std::memory_order_relaxed)) {
    return;
  }
  if (!spill_id_.has_value()) {
    throw std::runtime_error("DataPartition: not resident and not spilled");
  }
  common::ByteBuffer buffer;
  bool loaded = false;
  if (prefetch_.valid()) {
    common::Stopwatch wait;
    try {
      buffer = prefetch_.get();
      loaded = true;
      spill_->NotePrefetchWait(static_cast<std::uint64_t>(wait.Elapsed().count()),
                               buffer.size());
    } catch (...) {
      // A failed prefetch (injected read fault, surfaced write error) leaves
      // the spill loadable; fall back to the synchronous path.
    }
    prefetch_ = {};
  }
  if (!loaded) {
    // A failed spill write surfaces its error on the first load and keeps
    // the payload in the pending-write cache, so an immediate retry returns
    // it from memory (SpillManager::LoadInternal); injected read faults
    // likewise leave the file loadable. Retry a bounded number of times
    // before treating the fault as fatal — without this, a single lost write
    // aborts the whole job even though nothing was actually lost.
    // Shared retry policy (common/backoff.h, kLoadRetry): 8 attempts, 50us
    // base doubling to a 5ms cap, no jitter — this wait holds state_mu_, so
    // the worst case must stay tight and deterministic.
    common::BackoffPolicy policy;
    policy.base_ms = 0.05;
    policy.cap_ms = 5.0;
    policy.jitter = 0.0;
    policy.max_attempts = 7;
    common::Backoff retry(common::BackoffUse::kLoadRetry, policy, /*salt=*/0);
    for (;;) {
      try {
        buffer = spill_->LoadAndRemove(*spill_id_);
        break;
      } catch (const memsim::OutOfMemoryError&) {
        throw;  // Pressure, not an I/O fault: the interrupt machinery owns it.
      } catch (...) {
        // Back off instead of hammering the faulting device. Only an actual
        // re-attempt counts as a load retry (chaos_run surfaces the count);
        // the final propagating failure is not a retry.
        if (!retry.SleepNext()) {
          throw;
        }
        spill_->NoteLoadRetry();
      }
    }
  }
  spill_id_.reset();
  // Set before deserializing so an OME mid-load leaves a resident-but-partial
  // payload that DropPayload can clear.
  resident_.store(true, std::memory_order_release);
  serde::Reader reader(&buffer);
  try {
    DeserializeFrom(reader);
  } catch (...) {
    // Re-spill the buffer so the data is not lost, then rethrow.
    DropPayload();
    spill_id_ = spill_->Spill(std::move(buffer));
    resident_.store(false, std::memory_order_release);
    throw;
  }
  cursor_ = 0;
  last_load_ns_.store(std::chrono::steady_clock::now().time_since_epoch().count(),
                      std::memory_order_relaxed);
}

void DataPartition::Purge() {
  std::lock_guard lock(state_mu_);
  if (prefetch_.valid()) {
    try {
      prefetch_.get();
      spill_id_.reset();  // LoadAsync consumed the on-disk frame.
    } catch (...) {
      // A failed prefetch leaves the frame on disk; fall through to Remove.
    }
    prefetch_ = {};
  }
  DropPayload();
  if (spill_id_.has_value()) {
    try {
      spill_->Remove(*spill_id_);
    } catch (...) {
      // Best effort — a failed remove only leaks a temp file, and the
      // per-run spill directory is swept on Cluster destruction anyway.
    }
    spill_id_.reset();
  }
  cursor_ = 0;
  resident_.store(true, std::memory_order_release);
}

void DataPartition::TransferTo(memsim::ManagedHeap* heap, serde::SpillManager* spill) {
  common::ByteBuffer buffer;
  {
    std::lock_guard lock(state_mu_);
    EnsureResidentLocked();
    serde::Writer writer(&buffer);
    SerializeTo(writer);
    DropPayload();
    heap_ = heap;
    spill_ = spill;
    transferring_ = true;
  }
  // The destination heap may be under pressure; back off and retry while its
  // IRS relieves it (models network backpressure on a shuffle channel). The
  // state lock is *released* across the sleep — a transfer can back off for
  // seconds, and holding state_mu_ throughout would wedge every spill pass,
  // prefetch and purge that touches this partition. transferring_ keeps
  // those passes from spilling the empty mid-move payload in the gaps.
  constexpr int kMaxAttempts = 10000;
  for (int attempt = 0;; ++attempt) {
    try {
      std::lock_guard lock(state_mu_);
      buffer.ResetCursor();
      serde::Reader reader(&buffer);
      DeserializeFrom(reader);
      cursor_ = 0;
      transferring_ = false;
      return;
    } catch (const memsim::OutOfMemoryError&) {
      {
        std::lock_guard lock(state_mu_);
        DropPayload();
        if (attempt >= kMaxAttempts) {
          transferring_ = false;
          throw;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

}  // namespace itask::core
