// Cluster membership view for the fault-tolerance layer.
//
// One slot per node holds its liveness state and the timestamp of its last
// heartbeat. Heartbeats are emitted by each node's IRS monitor thread every
// ITASK_HEARTBEAT_MS; the coordinator's failure detector scans the slots and
// walks silent nodes through kAlive -> kSuspect -> kDead (timeout+suspicion,
// the simple cousin of a phi-accrual detector). A node whose escaped
// OutOfMemoryError demoted it moves to kDraining instead: it stops taking
// work but the job continues on the survivors.
//
// Reads are lock-free (the shuffle path consults EffectiveOwner per output);
// state *transitions* serialize on a mutex so two concurrent demotions can
// never leave the cluster with zero serving nodes.
#ifndef ITASK_ITASK_MEMBERSHIP_H_
#define ITASK_ITASK_MEMBERSHIP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace itask::core {

enum class NodeLiveness : std::uint8_t {
  kAlive = 0,
  kSuspect,       // Heartbeat silence past the suspect timeout; still serving.
  kDisconnected,  // Known network partition/ctrl disconnect: held in a grace
                  // window (longer than the dead timeout) so a transient cut
                  // doesn't trigger spurious lineage re-execution.
  kDraining,      // Escaped OME demoted it: serves nothing new, job continues.
  kDead,          // Declared failed; its work re-executes on survivors.
};

constexpr const char* NodeLivenessName(NodeLiveness s) {
  switch (s) {
    case NodeLiveness::kAlive: return "alive";
    case NodeLiveness::kSuspect: return "suspect";
    case NodeLiveness::kDisconnected: return "disconnected";
    case NodeLiveness::kDraining: return "draining";
    case NodeLiveness::kDead: return "dead";
  }
  return "unknown";
}

class Membership {
 public:
  explicit Membership(int num_nodes) {
    const std::uint64_t now = NowNs();
    slots_.reserve(static_cast<std::size_t>(num_nodes));
    for (int i = 0; i < num_nodes; ++i) {
      auto slot = std::make_unique<Slot>();
      slot->last_beat_ns.store(now, std::memory_order_relaxed);
      slots_.push_back(std::move(slot));
    }
  }

  int size() const { return static_cast<int>(slots_.size()); }

  // Heartbeat from |node|'s monitor thread. Suppression models a hung node:
  // the process is alive (and may keep mutating state as a zombie) but its
  // beats never reach the detector.
  void Beat(int node) {
    Slot& s = slot(node);
    if (s.beat_suppressed.load(std::memory_order_relaxed)) {
      return;
    }
    s.last_beat_ns.store(NowNs(), std::memory_order_relaxed);
  }

  void SuppressBeats(int node, bool suppressed) {
    slot(node).beat_suppressed.store(suppressed, std::memory_order_relaxed);
  }

  // Rewinds |node|'s last-beat stamp by |ns|, as if it had already been
  // silent that long. Fault injection uses this to make hang detection
  // deterministic: a test can schedule a hang whose silence instantly
  // exceeds the dead timeout instead of racing job completion against
  // wall-clock timeouts.
  void AgeBeat(int node, std::uint64_t ns) {
    Slot& s = slot(node);
    const std::uint64_t last = s.last_beat_ns.load(std::memory_order_relaxed);
    s.last_beat_ns.store(last > ns ? last - ns : 0, std::memory_order_relaxed);
  }

  std::uint64_t NsSinceBeat(int node) const {
    const std::uint64_t last = slot(node).last_beat_ns.load(std::memory_order_relaxed);
    const std::uint64_t now = NowNs();
    return now > last ? now - last : 0;
  }

  // Resets every beat stamp to "now" (job start: a cold cluster must not be
  // instantly suspected). The disconnect marks move along, so a node cut off
  // before the reset still needs a real beat to count as healed.
  void ResetBeats() {
    const std::uint64_t now = NowNs();
    for (auto& s : slots_) {
      s->last_beat_ns.store(now, std::memory_order_relaxed);
      s->disconnect_mark_ns.store(now, std::memory_order_relaxed);
    }
  }

  NodeLiveness state(int node) const {
    return static_cast<NodeLiveness>(slot(node).state.load(std::memory_order_acquire));
  }

  // Alive, merely suspected, or sitting out a disconnect grace window: still
  // owns its key range. Keeping kDisconnected serving is the point of the
  // state — remapping its keys mid-partition would redeliver its shuffle
  // data even though the node comes back intact.
  bool Serving(int node) const {
    const NodeLiveness s = state(node);
    return s == NodeLiveness::kAlive || s == NodeLiveness::kSuspect ||
           s == NodeLiveness::kDisconnected;
  }

  int ServingCount() const {
    int n = 0;
    for (int i = 0; i < size(); ++i) {
      n += Serving(i) ? 1 : 0;
    }
    return n;
  }

  // Successor remapping: the effective owner of a key range whose static home
  // is |home| is the first serving node scanning home, home+1, ... — so a
  // failure moves only the dead node's keys and never reshuffles survivors'
  // assignments. Returns |home| when no node serves (the job is doomed and
  // the caller aborts).
  int EffectiveOwner(int home) const {
    const int n = size();
    for (int step = 0; step < n; ++step) {
      const int candidate = (home + step) % n;
      if (Serving(candidate)) {
        return candidate;
      }
    }
    return home;
  }

  void SetState(int node, NodeLiveness next) {
    std::lock_guard lock(mu_);
    slot(node).state.store(static_cast<std::uint8_t>(next), std::memory_order_release);
  }

  // Parks |node| in kDisconnected and stamps the cut time. The stamp is what
  // makes the detector's heal test sound: at cut time the last beat is only
  // milliseconds old, so "silence is short" alone would read as "beats
  // resumed" on the very next pass and spuriously heal a still-partitioned
  // node. A heal additionally requires a beat *newer* than this mark.
  void NoteDisconnected(int node) {
    std::lock_guard lock(mu_);
    Slot& s = slot(node);
    s.disconnect_mark_ns.store(NowNs(), std::memory_order_relaxed);
    s.state.store(static_cast<std::uint8_t>(NodeLiveness::kDisconnected),
                  std::memory_order_release);
  }

  // True once a beat arrived after the most recent NoteDisconnected mark.
  bool BeatSinceDisconnect(int node) const {
    const Slot& s = slot(node);
    return s.last_beat_ns.load(std::memory_order_relaxed) >
           s.disconnect_mark_ns.load(std::memory_order_relaxed);
  }

  // Atomic demotion for the escaped-OME path: succeeds only when |node| is
  // still serving and at least one *other* node would keep serving — the last
  // healthy node must abort rather than drain (nobody could take its work).
  bool TryDemoteToDraining(int node) {
    std::lock_guard lock(mu_);
    if (!Serving(node) || ServingCount() <= 1) {
      return false;
    }
    slot(node).state.store(static_cast<std::uint8_t>(NodeLiveness::kDraining),
                           std::memory_order_release);
    return true;
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> last_beat_ns{0};
    std::atomic<std::uint64_t> disconnect_mark_ns{0};
    std::atomic<std::uint8_t> state{static_cast<std::uint8_t>(NodeLiveness::kAlive)};
    std::atomic<bool> beat_suppressed{false};
  };

  static std::uint64_t NowNs() {
    return static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
  }

  Slot& slot(int node) { return *slots_[static_cast<std::size_t>(node)]; }
  const Slot& slot(int node) const { return *slots_[static_cast<std::size_t>(node)]; }

  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex mu_;  // Serializes state transitions only.
};

}  // namespace itask::core

#endif  // ITASK_ITASK_MEMBERSHIP_H_
