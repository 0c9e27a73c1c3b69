#include "itask/partition_manager.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "chaos/chaos.h"
#include "common/logging.h"
#include "itask/recovery.h"
#include "itask/runtime.h"

namespace itask::core {

PartitionManager::PartitionManager(IrsRuntime* runtime, std::chrono::milliseconds thrash_window)
    : runtime_(runtime), thrash_window_(thrash_window) {}

std::uint64_t PartitionManager::SpillStep(std::uint64_t bytes_goal) {
  CHAOS_POINT("pm.spill_step");
  const std::vector<PartitionPtr> snapshot = runtime_->queue().ResidentSnapshot();
  if (snapshot.empty()) {
    return 0;
  }
  const auto now = std::chrono::steady_clock::now();
  const TaskGraph& graph = runtime_->graph();

  // Priority to *stay in memory*: consumers close to the finish line and to
  // the currently running tasks. We therefore spill partitions whose consumer
  // is farthest from the finish line first, then the largest payloads.
  auto distance_of = [&graph](const PartitionPtr& dp) {
    const TaskSpec* consumer = graph.ConsumerOf(dp->type());
    return consumer != nullptr ? consumer->finish_distance : 0;
  };
  // The sort keys are read once: workers change payload sizes and load
  // times concurrently, and a comparator whose answers change mid-sort makes
  // std::stable_sort read past its buffer.
  struct Candidate {
    PartitionPtr dp;
    int distance;
    std::uint64_t bytes;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(snapshot.size());
  for (const PartitionPtr& dp : snapshot) {
    candidates.push_back({dp, distance_of(dp), dp->PayloadBytes()});
  }
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     if (a.distance != b.distance) {
                       return a.distance > b.distance;
                     }
                     return a.bytes > b.bytes;
                   });

  obs::Tracer* tracer = runtime_->tracer();
  const std::uint16_t node = runtime_->trace_node();
  auto spill_one = [&](const PartitionPtr& dp) -> std::uint64_t {
    CHAOS_POINT("pm.spill_one");
    // Finish-line distance doubles as the async write priority: spills of
    // partitions near completion drain first, parked ones linger in the
    // queue where a reload can still cancel them.
    // SpillIfIdle re-checks the pin flag under the partition's state lock:
    // the snapshot above is stale the moment a worker pops (pins) a
    // candidate, and spilling a worker-owned payload mid-iteration is a
    // use-after-free of its tuples.
    std::uint64_t bytes = 0;
    try {
      bytes = dp->SpillIfIdle(distance_of(dp));
    } catch (const std::exception& e) {
      // A failed spill write (injected or real) leaves the partition resident
      // and intact; skip this victim and try the next one.
      LOG_WARN() << "spill failed for type " << dp->type() << ": " << e.what();
      return 0;
    }
    if (bytes > 0) {
      tracer->Emit(obs::EventKind::kPartitionSerialized, node, bytes,
                   static_cast<std::uint64_t>(distance_of(dp)),
                   static_cast<std::uint32_t>(dp->type()));
    }
    return bytes;
  };

  // Three-way decision per victim: keep (skip), migrate to a peer with
  // headroom, or spill to local disk. The sort above already ranks the best
  // migration candidates first — a partition far from the finish line is
  // needed last, so shipping it off-node costs the least locality.
  auto relieve_one = [&](const PartitionPtr& dp) -> std::uint64_t {
    const std::uint64_t migrated = TryMigrate(dp);
    return migrated > 0 ? migrated : spill_one(dp);
  };

  std::uint64_t freed = 0;
  std::vector<std::pair<std::chrono::steady_clock::time_point, PartitionPtr>> recently_loaded;
  for (const Candidate& candidate : candidates) {
    const PartitionPtr& dp = candidate.dp;
    if (freed >= bytes_goal) {
      break;
    }
    if (dp->pinned() || !dp->resident()) {
      continue;
    }
    // Thrash control: partitions deserialized within the cooldown window are
    // not spilled (the write + imminent reload is the ping-pong the window
    // exists to prevent) — but they may still *migrate*: shipping the bytes
    // to a peer with headroom ends the local pressure without any disk
    // round trip, so the cooldown's rationale does not apply to that arm.
    // Interrupted-task remainders re-queued moments ago (the prime migration
    // candidates) become reachable on the first pressure episode this way.
    const auto loaded_at = dp->last_load_time();
    if (now - loaded_at < thrash_window_) {
      const std::uint64_t migrated = TryMigrate(dp);
      if (migrated > 0) {
        freed += migrated;
      } else {
        recently_loaded.emplace_back(loaded_at, dp);
      }
      continue;
    }
    freed += relieve_one(dp);
  }
  if (freed < bytes_goal && !recently_loaded.empty()) {
    // All remaining candidates are recent: spill the oldest-loaded ones
    // anyway (the paper's fallback when no partition has an earlier stamp).
    std::stable_sort(recently_loaded.begin(), recently_loaded.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [loaded_at, dp] : recently_loaded) {
      if (freed >= bytes_goal) {
        break;
      }
      if (!dp->pinned() && dp->resident()) {
        freed += relieve_one(dp);
      }
    }
  }
  if (freed > 0) {
    lazy_serialized_.fetch_add(freed, std::memory_order_relaxed);
    tracer->Emit(obs::EventKind::kSignalSerialize, node, bytes_goal, freed);
    LOG_DEBUG() << "PartitionManager spilled " << freed << " bytes (goal " << bytes_goal << ")";
  }
  return freed;
}

std::uint64_t PartitionManager::TryMigrate(const PartitionPtr& dp) {
  RecoveryContext* rec = runtime_->recovery();
  if (rec == nullptr || !rec->broker().config().enable) {
    return 0;  // No lineage to ledger the move through: keep/spill only.
  }
  const MigrationConfig& cfg = rec->broker().config();
  const std::uint64_t bytes = dp->PayloadBytes();
  // Eligibility is silent (no rejection event): only still-queued input
  // splits move. Merge inputs must stay tag-colocated — two partial merges
  // of one tag would double-commit at the sink — and anything without a
  // durable-store origin could not replay if the destination died.
  if (bytes < cfg.min_bytes || dp->origin_split() == DataPartition::kNoSplit) {
    return 0;
  }
  const TaskSpec* consumer = runtime_->graph().ConsumerOf(dp->type());
  if (consumer == nullptr || consumer->is_merge) {
    return 0;
  }
  obs::Tracer* tracer = runtime_->tracer();
  const std::uint16_t node = runtime_->trace_node();
  auto reject = [&](MigrationReject why) -> std::uint64_t {
    rec->NoteMigrationRejected();
    tracer->Emit(obs::EventKind::kMigrationRejected, node, bytes,
                 static_cast<std::uint64_t>(why),
                 static_cast<std::uint32_t>(dp->type()));
    return 0;
  };
  // Per-tenant arbitration: a protected tenant's partitions never leave the
  // node involuntarily (mirrors the REDUCE gate in the monitor loop).
  if (runtime_->services().heap->PressureVictimRank(runtime_->services().job_id) ==
      memsim::PressureRank::kProtected) {
    return reject(MigrationReject::kIneligible);
  }
  if (!rec->broker().MigrationCheaper(bytes)) {
    return reject(MigrationReject::kCost);
  }
  const int source = runtime_->services().node_id;
  const int target = rec->broker().PickDestination(
      source, bytes, [rec](int n) { return rec->membership().Serving(n); });
  if (target < 0) {
    return reject(MigrationReject::kNoDestination);
  }
  if (!runtime_->queue().TryRemove(dp)) {
    return 0;  // A worker popped it between snapshot and now; theirs.
  }
  switch (rec->MigratePartition(source, target, dp)) {
    case RecoveryContext::MigrateOutcome::kMigrated:
      dp->Purge();  // The peer owns the data now; free the local charge.
      tracer->Emit(obs::EventKind::kPartitionMigrated, node, bytes,
                   static_cast<std::uint64_t>(target),
                   static_cast<std::uint32_t>(dp->type()));
      return bytes;
    case RecoveryContext::MigrateOutcome::kAbandoned:
      // Fate settled away from this node (re-execution scheduled, or a
      // landed copy finished the work); the local copy is redundant either
      // way. Freeing it is exactly the relief the caller asked for.
      dp->Purge();
      return bytes;
    case RecoveryContext::MigrateOutcome::kFailed:
      // Verifiably never left; re-queue and let the caller spill it instead.
      runtime_->queue().Push(dp);
      return reject(MigrationReject::kDeliveryFailed);
  }
  return 0;
}

void PartitionManager::EnsureResident(const PartitionPtr& dp) {
  const bool was_resident = dp->resident();
  dp->EnsureResident();
  if (!was_resident) {
    runtime_->tracer()->Emit(obs::EventKind::kPartitionLoaded, runtime_->trace_node(),
                             dp->PayloadBytes(), 0, static_cast<std::uint32_t>(dp->type()));
  }
}

void PartitionManager::SpillDirect(const PartitionPtr& dp) {
  const std::uint64_t bytes = dp->Spill();
  if (bytes > 0) {
    lazy_serialized_.fetch_add(bytes, std::memory_order_relaxed);
    runtime_->tracer()->Emit(obs::EventKind::kPartitionSerialized, runtime_->trace_node(), bytes, 0,
                             static_cast<std::uint32_t>(dp->type()));
  }
}

}  // namespace itask::core
