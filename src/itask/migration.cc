#include "itask/migration.h"

namespace itask::core {

namespace {

// A destination's heap may fill to this fraction of its capacity once a
// migrated partition lands.
constexpr double kMigrateHeadroomFill = 0.75;
// Modeled wire rate (MB/s) of the migration cost model.
constexpr double kMigrateNetMbps = 1000.0;

}  // namespace

void MigrationBroker::Update(int node, std::uint64_t used_bytes,
                             std::uint64_t capacity_bytes) {
  if (node < 0 || static_cast<std::size_t>(node) >= stats_.size()) {
    return;
  }
  std::lock_guard lock(mu_);
  NodeStat& stat = stats_[static_cast<std::size_t>(node)];
  stat.used = used_bytes;
  stat.capacity = capacity_bytes;
  stat.stamp = std::chrono::steady_clock::now();
  stat.seen = true;
}

std::uint64_t MigrationBroker::FreeBytesLocked(
    const NodeStat& stat, std::chrono::steady_clock::time_point now) const {
  if (!stat.seen || stat.capacity == 0) {
    return 0;
  }
  const double age_ms =
      std::chrono::duration<double, std::milli>(now - stat.stamp).count();
  if (age_ms > config_.stale_ms) {
    return 0;  // A silent node may be wedged; never trust its last report.
  }
  const auto line = static_cast<std::uint64_t>(
      kMigrateHeadroomFill * static_cast<double>(stat.capacity));
  return stat.used >= line ? 0 : line - stat.used;
}

std::uint64_t MigrationBroker::FreeBytes(int node) const {
  if (node < 0 || static_cast<std::size_t>(node) >= stats_.size()) {
    return 0;
  }
  std::lock_guard lock(mu_);
  return FreeBytesLocked(stats_[static_cast<std::size_t>(node)],
                         std::chrono::steady_clock::now());
}

int MigrationBroker::PickDestination(
    int source, std::uint64_t bytes,
    const std::function<bool(int)>& serving) const {
  std::lock_guard lock(mu_);
  const auto now = std::chrono::steady_clock::now();
  int best = -1;
  std::uint64_t best_slack = 0;
  for (std::size_t i = 0; i < stats_.size(); ++i) {
    const int node = static_cast<int>(i);
    if (node == source || (serving && !serving(node))) {
      continue;
    }
    const std::uint64_t free = FreeBytesLocked(stats_[i], now);
    if (free < bytes) {
      continue;  // Landing would push the peer over the headroom line.
    }
    const std::uint64_t slack = free - bytes;
    if (best == -1 || slack > best_slack) {
      best = node;
      best_slack = slack;
    }
  }
  return best;
}

bool MigrationBroker::MigrationCheaper(std::uint64_t bytes) const {
  // Spill is a round trip: the victim is written now and read back at
  // re-activation, two passes over the disk. Migration is one pass over the
  // wire plus a fixed handshake. Rates are MB/s; times in microseconds.
  const double mb = static_cast<double>(bytes) / (1024.0 * 1024.0);
  const double spill_us = 2.0 * mb / config_.disk_mbps * 1e6;
  const double wire_us = mb / kMigrateNetMbps * 1e6 + config_.rtt_us;
  return wire_us < spill_us;
}

}  // namespace itask::core
