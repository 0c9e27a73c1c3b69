#include "jobsvc/budget.h"

#include <algorithm>

namespace itask::jobsvc {

BudgetLedger::BudgetLedger(const BudgetConfig& config) {
  const double headroom = std::clamp(config.headroom_fraction, 0.0, 0.9);
  admissible_ = static_cast<std::uint64_t>(
      static_cast<double>(config.node_capacity_bytes) * (1.0 - headroom));
}

bool BudgetLedger::TryReserve(std::uint64_t bytes) {
  if (bytes == 0 || bytes > available_bytes()) {
    return false;
  }
  committed_ += bytes;
  return true;
}

void BudgetLedger::Release(std::uint64_t bytes) {
  committed_ -= std::min(bytes, committed_);
}

}  // namespace itask::jobsvc
