// FailureModel: a schedule of node faults for chaos runs and recovery tests.
//
// Three fault kinds, each applied to one node at a job-relative time:
//
//  - kKill: the node "crashes" — its runtime is fenced immediately (queue
//    drained and purged, late pushes discarded) and its heartbeats stop. The
//    coordinator's detector walks it through suspect -> dead on silence and
//    lineage recovery re-executes its uncommitted splits on survivors.
//  - kHang: heartbeats stop but the runtime keeps executing — a zombie. Its
//    late stage/commit attempts are fenced off by the recovery ledger's
//    membership checks once the detector declares it dead.
//  - kOomPoison: every subsequent allocation on the node's heap throws
//    OutOfMemoryError. The escaped-OME / zero-progress path demotes the node
//    to draining and the job finishes on the survivors.
//  - kDisconnect: a *known* network cut — the node's link goes down (beats
//    suppressed, membership parked in kDisconnected) but the process stays
//    healthy. Paired with a later kHeal the node rejoins with zero lineage
//    re-execution; without one the disconnect grace window expires and the
//    detector declares it dead.
//  - kHeal: undoes a kDisconnect — beats resume and the coordinator moves
//    the node back to kAlive (counting a healed partition).
//
// The schedule is applied by the coordinator's fault-poll hook (see
// ItaskJob::EnableFaultTolerance), so faults fire between poll ticks with
// ~1ms resolution — deterministic enough for seeded chaos sweeps.
#ifndef ITASK_CLUSTER_FAILURE_MODEL_H_
#define ITASK_CLUSTER_FAILURE_MODEL_H_

#include <mutex>
#include <vector>

namespace itask::cluster {

enum class FaultKind {
  kKill,
  kHang,
  kOomPoison,
  kDisconnect,
  kHeal,
};

struct NodeFault {
  int node = 0;
  double at_ms = 0.0;
  FaultKind kind = FaultKind::kKill;
  // kKill/kHang/kDisconnect: additionally age the node's last heartbeat by
  // this much when the fault fires, as if it had already been silent that
  // long. Tests use a value past the dead timeout (or disconnect grace) to
  // make detection deterministic — a crash, zombie or unhealed cut races job
  // completion against wall-clock silence otherwise. 0 keeps real-time
  // semantics (chaos default).
  double silence_age_ms = 0.0;
};

class FailureModel {
 public:
  void ScheduleKill(int node, double at_ms, double silence_age_ms = 0.0) {
    Add({node, at_ms, FaultKind::kKill, silence_age_ms});
  }
  void ScheduleHang(int node, double at_ms, double silence_age_ms = 0.0) {
    Add({node, at_ms, FaultKind::kHang, silence_age_ms});
  }
  void SchedulePoison(int node, double at_ms) {
    Add({node, at_ms, FaultKind::kOomPoison});
  }
  void ScheduleDisconnect(int node, double at_ms, double silence_age_ms = 0.0) {
    Add({node, at_ms, FaultKind::kDisconnect, silence_age_ms});
  }
  void ScheduleHeal(int node, double at_ms) {
    Add({node, at_ms, FaultKind::kHeal});
  }
  void Add(NodeFault fault) {
    std::lock_guard lock(mu_);
    pending_.push_back(fault);
  }

  bool empty() const {
    std::lock_guard lock(mu_);
    return pending_.empty();
  }

  // Removes and returns the faults due at |elapsed_ms|. Each fault fires
  // exactly once.
  std::vector<NodeFault> TakeDue(double elapsed_ms) {
    std::lock_guard lock(mu_);
    std::vector<NodeFault> due;
    for (std::size_t i = 0; i < pending_.size();) {
      if (pending_[i].at_ms <= elapsed_ms) {
        due.push_back(pending_[i]);
        pending_[i] = pending_.back();
        pending_.pop_back();
      } else {
        ++i;
      }
    }
    return due;
  }

 private:
  mutable std::mutex mu_;
  std::vector<NodeFault> pending_;
};

}  // namespace itask::cluster

#endif  // ITASK_CLUSTER_FAILURE_MODEL_H_
