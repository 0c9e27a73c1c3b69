// BudgetLedger: per-node heap budget bookkeeping for the job service.
//
// Every node in the (symmetric) cluster has the same heap capacity, and an
// admitted job receives the same soft budget on every node, so one ledger
// tracks the per-node picture for the whole cluster: how many budget bytes
// are committed to running jobs and how many remain admissible.
//
// Budgets are *admission-time* commitments, not runtime limits — the heap
// never fails an allocation because of a budget (see memsim::ManagedHeap).
// The ledger's job is to keep the sum of commitments inside the admissible
// window so the arbitration policy (shed the most-over-budget tenant first)
// has room to work instead of every tenant being over at once.
#ifndef ITASK_JOBSVC_BUDGET_H_
#define ITASK_JOBSVC_BUDGET_H_

#include <cstdint>

namespace itask::jobsvc {

struct BudgetConfig {
  // Per-node managed-heap capacity (cluster config's heap.capacity_bytes).
  std::uint64_t node_capacity_bytes = 0;
  // Fraction of capacity reserved for unattributed bytes: shuffle buffers in
  // flight, driver-side feeding, garbage awaiting collection. Budgets are
  // admitted against capacity * (1 - headroom).
  double headroom_fraction = 0.15;
};

class BudgetLedger {
 public:
  explicit BudgetLedger(const BudgetConfig& config);

  // Bytes admissible per node in total (capacity net of headroom).
  std::uint64_t admissible_bytes() const { return admissible_; }
  std::uint64_t committed_bytes() const { return committed_; }
  std::uint64_t available_bytes() const {
    return committed_ >= admissible_ ? 0 : admissible_ - committed_;
  }

  // Commits |bytes| per node if they fit; false (and no change) otherwise.
  bool TryReserve(std::uint64_t bytes);
  // Returns a finished job's commitment. Clamped: releasing more than is
  // committed is a caller bug but must not wedge the ledger.
  void Release(std::uint64_t bytes);

  // Largest single reservation that could currently succeed. Admission uses
  // this to size default/profiled budgets and to report deferral shortfalls.
  std::uint64_t MaxReservation() const { return available_bytes(); }

 private:
  std::uint64_t admissible_ = 0;
  std::uint64_t committed_ = 0;
};

}  // namespace itask::jobsvc

#endif  // ITASK_JOBSVC_BUDGET_H_
