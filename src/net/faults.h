// Seeded network-fault injection for the socket transports (DESIGN.md §16).
//
// A NetFaultEngine applies the net section of a chaos::FaultPlan: per-link
// misbehavior (drop, delay with jitter, reorder, duplicate, corrupt-frame,
// partial-write truncation, connection reset) plus timed one-way/two-way
// partitions. Every probabilistic decision is a pure function of (plan seed,
// destination, per-link frame serial), so a given seed replays the same
// decision stream on every run.
//
// The engine NEVER makes the transport report a live peer as gone: faults
// surface only as silent frame loss (recovered by the recovery ledger's
// ack-timeout redelivery) or as transient send failures (recovered by the
// sender's requeue/backoff path). That invariant is what lets chaos sweeps
// demand byte-identical fingerprints under every plan.
#ifndef ITASK_NET_FAULTS_H_
#define ITASK_NET_FAULTS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "chaos/chaos.h"

namespace itask::net {

enum class NetFaultKind : std::uint8_t {
  kDrop = 0,        // Frame silently discarded (sender believes it sent).
  kDelay,           // Frame held for delay_ms (+/- jitter) before the write.
  kReorder,         // Frame held back and written after its successor.
  kDuplicate,       // Frame written twice back-to-back.
  kCorrupt,         // One wire byte flipped post-framing (receiver discards).
  kTruncate,        // Only a prefix written, then the connection is severed.
  kReset,           // Connection closed before the write (sender requeues).
  kPartitionDrop,   // Frame black-holed by an active partition window.
  kConnectRefused,  // Dial refused while the link is partitioned.
  kKindCount,       // Sentinel — keep last.
};

// Per-transport instance of a plan's net section. Thread-safe; SendLoop
// threads (one per destination) call Apply for each assembled frame and
// MessageBlocked for each queued message, and the link observer hears
// partition edges so the membership layer can enter/leave kDisconnected
// without waiting for heartbeat silence.
class NetFaultEngine {
 public:
  explicit NetFaultEngine(const chaos::FaultPlan& plan);

  // What to do with the next outgoing frame to |dst|. At most one
  // connection-affecting fault (reset/truncate/corrupt/drop) fires per frame;
  // delay/duplicate/reorder may ride along with each other. Every fired fault
  // is counted and reflected in the returned decision.
  struct Decision {
    bool drop = false;
    bool duplicate = false;
    bool reorder = false;
    bool corrupt = false;
    bool truncate = false;
    bool reset = false;
    double delay_ms = 0.0;
    std::uint64_t serial = 0;  // Per-link frame serial that drove the draws.
    std::uint64_t draw = 0;    // Raw entropy for byte-position choices.
    int faults = 0;            // Number of faults fired on this frame.

    bool any() const { return faults > 0; }
  };
  Decision Apply(int dst, std::size_t frame_bytes);

  // True while an active partition window black-holes src->dst. Counts a
  // kPartitionDrop when it blocks. Also advances the observer (below) on any
  // partition-window edge it notices.
  bool MessageBlocked(int src, int dst);

  // False while a partition makes dialing src->dst pointless (one-way
  // src->dst or either direction of a two-way window). Counts a
  // kConnectRefused fault when it refuses.
  bool ConnectAllowed(int src, int dst);

  // Re-evaluates partition windows against the clock and fires the observer
  // for every window that opened or healed since the last look. Called
  // internally from Apply/MessageBlocked; harnesses may call it directly to
  // tighten edge latency.
  void PollPartitions();

  // Fired (from the caller's thread) on partition edges with the *impaired*
  // node of the window — the specific endpoint a one-way rule cuts off (its
  // `a`, or `b` when `a` is the wildcard). blocked=true when the window
  // opens, false when it heals. Fully-wildcard rules have no impaired node
  // and fire nothing.
  using LinkObserver = std::function<void(int node, bool blocked)>;
  void set_link_observer(LinkObserver observer);

  double ElapsedMs() const;

  std::uint64_t faults_injected() const {
    return total_faults_.load(std::memory_order_relaxed);
  }
  std::uint64_t FaultCount(NetFaultKind kind) const {
    return counts_[static_cast<int>(kind)].load(std::memory_order_relaxed);
  }

 private:
  bool Hit(double p, int dst, std::uint64_t serial, NetFaultKind kind) const;
  std::uint64_t DrawFor(int dst, std::uint64_t serial, NetFaultKind kind) const;
  void Count(NetFaultKind kind);

  const chaos::NetFaults faults_;
  const std::uint64_t seed_;
  const std::chrono::steady_clock::time_point epoch_;

  std::mutex mu_;
  std::unordered_map<int, std::uint64_t> serials_;  // dst -> next frame serial
  std::vector<bool> window_open_;  // Last observed state per plan partition.
  LinkObserver observer_;

  std::atomic<std::uint64_t> total_faults_{0};
  std::atomic<std::uint64_t> counts_[static_cast<int>(NetFaultKind::kKindCount)] = {};
};

}  // namespace itask::net

#endif  // ITASK_NET_FAULTS_H_
