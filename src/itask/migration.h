// MigrationBroker: answers "where should N bytes of pressured partition go?"
// for the three-way SERIALIZE decision (keep / spill / migrate, DESIGN.md
// §14). The broker ranks candidate destinations from heartbeat-carried heap
// occupancy — the same used/capacity pair the membership detector already
// ships — and refuses to trust stale beats: a wedged daemon's last report
// looks exactly like a fresh one without the timestamp, so anything older
// than the staleness cutoff counts as "no headroom".
//
// The cost model compares the wire (bytes at net rate plus an RTT of
// handshake) against the disk round trip a spill implies (write now, read
// back at re-activation — two passes over the device). Both rates are modeled,
// not measured: the point is the *shape* of the decision (small
// partitions spill, big ones migrate when a peer has room), mirroring the
// paper's observation that relief actions should scale with pressure.
#ifndef ITASK_ITASK_MIGRATION_H_
#define ITASK_ITASK_MIGRATION_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <vector>

namespace itask::core {

// Why a migration candidate was turned down; carried as `b` on the
// kMigrationRejected obs event so chaos traces can tell a cold broker from a
// full cluster.
enum class MigrationReject : std::uint64_t {
  kDisabled = 0,        // Knob off, or no recovery context to ledger through.
  kIneligible = 1,      // No lineage, merge-bound input, or protected tenant.
  kTooSmall = 2,        // Below MigrationConfig::min_bytes.
  kNoDestination = 3,   // No serving peer with fresh stats and headroom.
  kCost = 4,            // Spill+reload estimated cheaper than the wire.
  kDeliveryFailed = 5,  // Shipping failed after retries; fell back to spill.
};

// Part of core::RecoveryConfig (cluster::ClusterConfig::recovery.migration).
struct MigrationConfig {
  bool enable = true;              // false = spill-only SERIALIZE.
  double stale_ms = 100.0;         // Beat freshness cutoff.
  std::uint64_t min_bytes = 32 << 10;  // ITASK_MIGRATE_MIN_BYTES
  double disk_mbps = 400.0;        // Modeled spill device (MB/s).
  double rtt_us = 200.0;           // ITASK_MIGRATE_RTT_US — fixed per-migration cost.
};

class MigrationBroker {
 public:
  MigrationBroker(int num_nodes, const MigrationConfig& config)
      : config_(config), stats_(static_cast<std::size_t>(num_nodes)) {}

  const MigrationConfig& config() const { return config_; }

  // Folds one heartbeat's heap occupancy in. Capacity 0 reports are recorded
  // but never rank (a node that has not sized its heap yet has no headroom).
  void Update(int node, std::uint64_t used_bytes, std::uint64_t capacity_bytes);

  // Bytes |node| could absorb while staying under the headroom fill line;
  // 0 when the node was never heard from or its stats have gone stale.
  std::uint64_t FreeBytes(int node) const;

  // Best destination for |bytes| leaving |source|: the serving peer with the
  // most post-landing slack among those whose stats are fresh and whose fill
  // stays under the line after absorbing the payload. Returns -1 when no
  // peer qualifies. |serving| filters suspects/dead nodes out.
  int PickDestination(int source, std::uint64_t bytes,
                      const std::function<bool(int)>& serving) const;

  // True when shipping |bytes| over the modeled wire undercuts the spill
  // round trip (write + eventual reload) plus nothing — the keep option is
  // decided upstream by the pressure machinery, not here.
  bool MigrationCheaper(std::uint64_t bytes) const;

 private:
  struct NodeStat {
    std::uint64_t used = 0;
    std::uint64_t capacity = 0;
    std::chrono::steady_clock::time_point stamp{};
    bool seen = false;
  };

  std::uint64_t FreeBytesLocked(const NodeStat& stat,
                                std::chrono::steady_clock::time_point now) const;

  MigrationConfig config_;
  mutable std::mutex mu_;
  std::vector<NodeStat> stats_;
};

}  // namespace itask::core

#endif  // ITASK_ITASK_MIGRATION_H_
