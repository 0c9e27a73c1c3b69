#include "itask/coordinator.h"

#include <thread>

#include "common/logging.h"
#include "common/spin.h"
#include "itask/recovery.h"
#include "obs/event.h"
#include "obs/flight_recorder.h"

namespace itask::core {

bool JobCoordinator::Run(const std::function<void()>& feed, double deadline_ms) {
  common::Stopwatch watch;
  for (IrsRuntime* runtime : runtimes_) {
    runtime->FinalizeGraph();
  }
  // Feed before starting the workers: inputs are pushed in disk-resident form
  // (like HDFS blocks), so generation does not contend with running tasks for
  // heap space.
  feed();
  state_->external_done.store(true, std::memory_order_release);
  for (IrsRuntime* runtime : runtimes_) {
    runtime->Start();
  }
  if (recovery_ != nullptr) {
    lost_handled_.assign(runtimes_.size(), false);
    // Feeding can take arbitrarily long; a cold cluster must not be suspected
    // for silence accrued before its monitors even started beating.
    recovery_->membership().ResetBeats();
  }

  int quiescent_streak = 0;
  while (true) {
    if (state_->aborted.load(std::memory_order_acquire)) {
      aborted_ = true;
      break;
    }
    if (fault_poll_) {
      fault_poll_(watch.ElapsedMs());
    }
    if (recovery_ != nullptr) {
      if (!DetectFailures()) {
        state_->aborted.store(true, std::memory_order_release);
        aborted_ = true;
        break;
      }
      // Re-drive any pending re-executions/deliveries (e.g. a target that was
      // under pressure at commit time, or was itself lost since).
      recovery_->Sweep();
    }
    // Completion: the queues/workers are quiescent AND (under fault
    // tolerance) the recovery ledger is drained — counters alone look
    // quiescent in the window between a kill and its detection, while the
    // lost node's splits still need re-execution.
    if (state_->Quiescent() &&
        (recovery_ == nullptr || recovery_->AllComplete())) {
      if (++quiescent_streak >= 3) {
        aborted_ = false;
        break;
      }
    } else {
      quiescent_streak = 0;
    }
    if (deadline_ms > 0.0 && watch.ElapsedMs() > deadline_ms) {
      LOG_WARN() << "job deadline of " << deadline_ms << "ms exceeded; aborting";
      state_->aborted.store(true, std::memory_order_release);
      aborted_ = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  if (aborted_) {
    // Job failure (abort, blown deadline, or cluster death): capture the
    // window BEFORE stopping the runtimes, while the rings still hold the
    // events leading up to the failure.
    obs::FlightRecorder::Instance().Trigger("job-failed");
  }
  for (IrsRuntime* runtime : runtimes_) {
    runtime->Stop();
  }
  wall_ms_ = watch.ElapsedMs();
  return !aborted_;
}

bool JobCoordinator::DetectFailures() {
  Membership& membership = recovery_->membership();
  const double suspect_ms = recovery_->config().suspect_timeout_ms;
  const double dead_ms = recovery_->config().dead_timeout_ms();
  const double grace_ms = recovery_->config().grace_ms();
  for (std::size_t i = 0; i < runtimes_.size(); ++i) {
    const int node = static_cast<int>(i);
    const NodeLiveness state = membership.state(node);
    obs::Tracer* tracer = runtimes_[i]->tracer();
    if (state == NodeLiveness::kDead) {
      continue;
    }
    if (state == NodeLiveness::kDraining) {
      // Self-demoted (escaped OME). Fence it and recover its in-flight work
      // exactly as for a death; unlike a dead node it keeps its monitor
      // thread and can still be Stop()ed normally.
      if (!lost_handled_[i]) {
        lost_handled_[i] = true;
        ++nodes_draining_;
        LOG_WARN() << "coordinator: node " << node
                   << " draining (out of memory); recovering its in-flight work";
        obs::FlightRecorder::Instance().Trigger(
            "ome-drain-node" + std::to_string(node));
        runtimes_[i]->Fence();
        recovery_->OnNodeLost(node);
      }
      continue;
    }
    const double silence_ms =
        static_cast<double>(membership.NsSinceBeat(node)) / 1e6;
    // A disconnected node has a *known* transient cause (observed partition
    // or ctrl-socket loss), so it gets the longer grace window instead of
    // the plain dead timeout — a healing cut must not trigger spurious
    // lineage re-execution.
    const bool disconnected = state == NodeLiveness::kDisconnected;
    const double fail_ms = disconnected ? grace_ms : dead_ms;
    if (silence_ms > fail_ms) {
      membership.SetState(node, NodeLiveness::kDead);
      ++nodes_failed_;
      tracer->Emit(obs::EventKind::kNodeDead, static_cast<std::uint16_t>(node),
                   static_cast<std::uint64_t>(silence_ms * 1e6));
      LOG_WARN() << "coordinator: node " << node << " declared dead after "
                 << silence_ms << "ms of heartbeat silence"
                 << (disconnected ? " (disconnect grace expired)" : "");
      obs::FlightRecorder::Instance().Trigger("node-dead-" + std::to_string(node));
      if (!lost_handled_[i]) {
        lost_handled_[i] = true;
        runtimes_[i]->Fence();
        recovery_->OnNodeLost(node);
      }
    } else if (disconnected) {
      if (silence_ms <= suspect_ms && membership.BeatSinceDisconnect(node)) {
        // A beat arrived *after* the cut was noted, inside the grace window:
        // the partition healed and the node rejoins with its state (and key
        // range) intact. The post-mark requirement matters — at cut time the
        // last beat is milliseconds old, and short silence alone would heal
        // a still-partitioned node on the very next pass.
        membership.SetState(node, NodeLiveness::kAlive);
        ++partitions_healed_;
        tracer->Emit(obs::EventKind::kPartitionHealed,
                     static_cast<std::uint16_t>(node),
                     static_cast<std::uint64_t>(silence_ms * 1e6));
        LOG_INFO() << "coordinator: node " << node
                   << " partition healed; rejoining without re-execution";
      }
    } else if (silence_ms > suspect_ms) {
      if (state == NodeLiveness::kAlive) {
        membership.SetState(node, NodeLiveness::kSuspect);
        tracer->Emit(obs::EventKind::kNodeSuspect, static_cast<std::uint16_t>(node),
                     static_cast<std::uint64_t>(silence_ms * 1e6));
        LOG_WARN() << "coordinator: node " << node << " suspected ("
                   << silence_ms << "ms silent)";
      }
    } else if (state == NodeLiveness::kSuspect) {
      membership.SetState(node, NodeLiveness::kAlive);  // Beat resumed.
    }
  }
  if (membership.ServingCount() == 0) {
    LOG_ERROR() << "coordinator: no serving nodes remain; aborting job";
    return false;
  }
  return true;
}

common::RunMetrics JobCoordinator::AggregateMetrics() const {
  common::RunMetrics total;
  for (const IrsRuntime* runtime : runtimes_) {
    total.Merge(runtime->NodeMetrics());
  }
  total.wall_ms = wall_ms_;
  total.succeeded = !aborted_;
  if (recovery_ != nullptr) {
    const RecoveryStats rs = recovery_->stats();
    total.nodes_failed = nodes_failed_;
    total.nodes_draining = nodes_draining_;
    total.splits_reexecuted = rs.splits_reexecuted;
    total.shuffle_retries = rs.shuffle_retries;
    total.shuffle_redeliveries = rs.redeliveries;
    total.duplicate_tuples_dropped = rs.duplicates_dropped;
    total.partitions_migrated = rs.partitions_migrated;
    total.migrated_bytes = rs.migrated_bytes;
    total.migrations_rejected = rs.migrations_rejected;
    total.partitions_healed = partitions_healed_;
  }
  return total;
}

}  // namespace itask::core
