// Lineage-based node-failure recovery for the ITask cluster.
//
// The paper runs on Hadoop/Hyracks, which already re-execute tasks when a
// node dies; this layer supplies the equivalent for the in-process cluster.
// Three cooperating stores, all living in plain driver memory (outside every
// node's failure domain — the stand-in for a DFS):
//
//  - DurableStore: every input split fed into the job is serialized and
//    retained, keyed by a split id, together with its re-execution *epoch*.
//    A split whose owning node dies before committing is re-executed on a
//    survivor from these bytes under a bumped epoch.
//  - ShuffleLedger: map-side shuffle outputs are staged here (serialized,
//    payload dropped from the producer's heap) instead of being pushed
//    directly to the consumer. When the producing split *commits* (its scale
//    loop completed), the staged entries are delivered to the effective owner
//    of their key range. Committed entries are retained until the destination
//    tag is sunk, so an owner's death re-delivers from the ledger without
//    re-executing committed work. Each entry carries a (split, epoch, seq)
//    id; the delivery path drops duplicates and counts them — the audit
//    counter chaos sweeps assert stays zero.
//  - SinkGate: reducer sink output is staged per (node, tag) and only handed
//    to the real sink when the merge activation for that tag completes
//    without re-parking. A node dying mid-merge discards its staged chunks;
//    the tag's ledger entries re-deliver to the new owner and the merge
//    re-runs there.
//
// Correctness gates read lock-free by the runtimes:
//  - MergeSafe(): merges may dispatch only when every split is committed and
//    no committed entry awaits (re)delivery — otherwise a survivor could sink
//    a tag early and late re-executed data would be dropped.
//  - AllComplete(): the coordinator treats the job as done only when, in
//    addition, every tag that ever received entries has been sunk.
//
// Delivery is pipelined over a DeliveryChannel: a commit marks its entries
// and snapshots them into a window under mu_, ships the window after mu_ is
// released, and returns. Acks come back through OnDeliveryAck; timeouts,
// backpressure resends and OME retries wait out a per-entry not-before time
// that the coordinator's Sweep() tick drives. Nothing sleeps, and nothing
// calls into the transport, with mu_ held.
#ifndef ITASK_ITASK_RECOVERY_H_
#define ITASK_ITASK_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "common/byte_buffer.h"
#include "itask/membership.h"
#include "itask/migration.h"
#include "itask/partition.h"
#include "itask/types.h"
#include "memsim/managed_heap.h"
#include "obs/tracer.h"
#include "serde/spill_manager.h"

namespace itask::core {

// Backed-off retries per round for a shuffle entry or a re-execution; a
// fresh round follows on the next retry tick.
inline constexpr int kShuffleRetries = 5;

// The job's recovery settings: cluster::ClusterConfig::recovery.
struct RecoveryConfig {
  double heartbeat_ms = 2.0;         // ITASK_HEARTBEAT_MS
  double suspect_timeout_ms = 150.0;  // ITASK_SUSPECT_TIMEOUT_MS
  // Extra silence granted to a node the transport reported as partitioned
  // (kDisconnected) before the dead declaration; 0 = 3x the dead timeout.
  // A healed partition must not have cost any lineage re-execution.
  double disconnect_grace_ms = 0.0;
  double backoff_base_ms = 1.0;       // Exponential, doubling per attempt...
  double backoff_cap_ms = 50.0;       // ...capped here, +/- jitter.
  MigrationConfig migration;

  // Silence before a suspect is declared dead.
  double dead_timeout_ms() const { return 2.0 * suspect_timeout_ms; }
  double grace_ms() const {
    return disconnect_grace_ms > 0.0 ? disconnect_grace_ms : 3.0 * dead_timeout_ms();
  }
};

// Builds an empty partition of one TypeId on a given node's heap/spill so the
// recovery layer can rehydrate ledger bytes anywhere. Registered per type by
// the application.
using PartitionFactory =
    std::function<PartitionPtr(memsim::ManagedHeap*, serde::SpillManager*)>;

// Per-node plumbing the recovery layer needs: where to materialize payloads
// and how to hand partitions to the node's queue / the app's real sink.
struct RecoveryNodeHooks {
  memsim::ManagedHeap* heap = nullptr;
  serde::SpillManager* spill = nullptr;
  std::function<void(PartitionPtr)> push;
  std::function<void(PartitionPtr)> sink;
  // True while the node runs no activation. Unset reads as busy: the ledger
  // then never drains the node for refusing deliveries (see RefusedLocked).
  std::function<bool()> idle;
};

// ---- Net-transport integration (src/net) ----
// The ledger's delivery path can be routed over a message transport instead
// of materializing directly on the target heap. The far end reports how it
// took each entry; the ledger keeps ownership of retry/backoff/redelivery.
enum class DeliveryStatus : std::uint8_t {
  kDelivered = 0,  // Landed on the target (or the target deduped it).
  kBackoff,        // Target under memory pressure / ack timed out: retry.
  kPeerGone,       // Target endpoint closed (crashed node). Treated like the
                   // in-memory push into a fenced runtime: the bytes are
                   // gone, and OnNodeLost re-marks them for redelivery once
                   // the detector declares the node dead.
};

struct ShuffleWireId {
  std::int64_t split = -1;
  std::uint32_t epoch = 0;
  std::uint64_t seq = 0;
  TypeId type = 0;
  Tag tag = kNoTag;
};

// Migration deliveries reuse the shuffle wire but live in their own seq
// namespace: the high bit set (plus a private counter) can never collide with
// a ledger seq. Consumers (the fabric's flow tracing, debug dumps) test this
// bit to tell a migrating partition from a regular ledger delivery.
inline constexpr std::uint64_t kMigrationSeqBit = 1ULL << 63;

// Pipelined ledger delivery: hands one entry's (id, bytes) to the wire and
// returns without waiting for the ack. false means the send was refused
// before the frame left (target endpoint closed: handled as kPeerGone);
// otherwise the verdict arrives later through RecoveryContext::OnDeliveryAck.
// May block on transport backpressure; the ledger never calls it under mu_.
using DeliveryChannel =
    std::function<bool(int target, const ShuffleWireId&, const common::ByteBuffer&)>;

// Migration's blocking round trip: ships one partition and returns the
// target's verdict (kBackoff on ack timeout). Called without mu_.
using MigrationChannel =
    std::function<DeliveryStatus(int target, const ShuffleWireId&, const common::ByteBuffer&)>;

struct RecoveryStats {
  std::uint64_t splits_registered = 0;
  std::uint64_t splits_reexecuted = 0;
  std::uint64_t entries_staged = 0;
  std::uint64_t redeliveries = 0;     // Entries re-sent after an owner death.
  std::uint64_t shuffle_retries = 0;  // Delivery attempts beyond the first.
  std::uint64_t ack_timeouts = 0;     // Pipelined sends re-sent for want of an ack.
  std::uint64_t duplicates_dropped = 0;  // Must be 0: the dedup audit counter.
  std::uint64_t fenced_rejects = 0;   // Stages refused (dead/stale producer).
  std::uint64_t stale_commits = 0;    // Commits refused (dead producer/epoch).
  std::uint64_t sunk_tag_drops = 0;   // Deliveries refused (tag already sunk).
  std::uint64_t partitions_migrated = 0;   // Pressure victims shipped to a peer.
  std::uint64_t migrated_bytes = 0;        // Payload bytes those victims carried.
  std::uint64_t migrations_rejected = 0;   // Migration attempts that fell back to spill.
};

class RecoveryContext {
 public:
  RecoveryContext(RecoveryConfig config, int num_nodes);

  Membership& membership() { return membership_; }
  const RecoveryConfig& config() const { return config_; }
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // Causal trace identity for this job (obs::TraceIdFromSeed(seed) by
  // convention). The shuffle fabric stamps every delivery/ack it sends with
  // span ids derived from this, so two runs with the same seed produce the
  // same ids. 0 (the default) leaves messages unstamped.
  void set_trace_id(std::uint64_t trace_id) { trace_id_ = trace_id; }
  std::uint64_t trace_id() const { return trace_id_; }

  // ---- Wiring (before the job runs) ----
  void RegisterFactory(TypeId type, PartitionFactory factory);
  void SetNodeHooks(int node, RecoveryNodeHooks hooks);
  void SetNodeSink(int node, std::function<void(PartitionPtr)> sink);

  // ---- Net-transport wiring (optional; before the job runs) ----
  // Routes committed-entry delivery through |channel| instead of the direct
  // Materialize+push path. A sent entry whose ack has not arrived within
  // |ack_timeout_ms| is re-sent by Sweep() with the same id. Pass nullptr to
  // detach (the fabric does on teardown).
  void SetDeliveryChannel(DeliveryChannel channel, double ack_timeout_ms);

  // Routes migration deliveries through |channel| (nullptr: direct push).
  void SetMigrationChannel(MigrationChannel channel);

  // The far end's verdict on a pipelined send of |id| to |target|: kDelivered
  // settles the entry, kBackoff schedules a resend after the backoff, and
  // kPeerGone marks it delivered to the dead target as the inproc path would.
  // An ack that no longer matches the entry's outstanding send (already
  // settled, re-marked by OnNodeLost, or erased with its tag) is ignored.
  // Called on transport threads; takes mu_ and never blocks on the wire.
  void OnDeliveryAck(int target, const ShuffleWireId& id, DeliveryStatus status);

  // Routes heartbeats through |sink| (the fabric sends them as transport
  // messages carrying heap stats) instead of beating membership directly.
  void SetBeatSink(std::function<void(int, std::uint64_t, std::uint64_t)> sink);

  // Called with the node id whenever OnNodeLost fences a node, so the fabric
  // can close its endpoint and drop queued traffic.
  void SetNodeLostHook(std::function<void(int)> hook);

  // One heartbeat from |node|'s monitor thread, carrying its heap occupancy.
  // Without a beat sink this beats membership and feeds the migration broker
  // directly; with one, the stats ride the transport and land in
  // NoteRemoteHeartbeat on the driver side instead.
  void Heartbeat(int node, std::uint64_t used_bytes, std::uint64_t capacity_bytes);

  // Driver-side receipt of a transport-carried heartbeat: beats membership
  // and feeds the migration broker in one step, so liveness and headroom
  // always advance together (a broker fed from a path that skipped Beat
  // would rank a node the detector is about to declare dead).
  void NoteRemoteHeartbeat(int node, std::uint64_t used_bytes, std::uint64_t capacity_bytes);

  // The transport's fault engine (or the ctrl plane) observed a partition
  // cutting |node| off. Moves it from kAlive/kSuspect into kDisconnected so
  // the failure detector applies the disconnect grace window instead of the
  // dead timeout. A node already draining or dead is left alone. The reverse
  // edge needs no call: the node's own resumed heartbeats flip it back to
  // kAlive in the coordinator's detector.
  void NoteLinkDown(int node);

  // Receive side of a transport delivery: rehydrates |bytes| as a partition
  // of |id.type| on |node|'s heap and pushes it into the node's queue.
  // kBackoff on OME, kPeerGone when |node| is no longer serving. Runs on
  // transport threads and takes no lock: factories and hooks are frozen
  // before the job starts, and keeping mu_ off the receive path means a
  // node's materialization never queues behind another worker's commit.
  DeliveryStatus RemotePush(int node, const ShuffleWireId& id, common::ByteBuffer& bytes);

  // ---- DurableStore ----
  // Serializes |split| into the durable store, stamps its lineage origin
  // (split id, epoch 0) and returns the id. Driver-side, during feeding.
  std::int64_t RegisterSplit(DataPartition& split, int assigned_node);

  // ---- ShuffleLedger ----
  // Stages a map-side output: serialize, record under the producer split's
  // current epoch with the next seq, drop the payload. Returns false (and
  // counts a fenced reject) when the producer is no longer serving or the
  // output's epoch is stale — the data is already covered by a re-execution.
  bool StageShuffle(int producer, int home, PartitionPtr out);

  // Commits one (split, epoch): marks the split done and delivers its staged
  // entries to the effective owner of each entry's home range — inline on
  // the inproc path, as one pipelined window over a DeliveryChannel (the
  // call returns once the window is handed to the wire, not when it is
  // acked). Rejected (a stale commit) when the producer was declared dead or
  // the epoch moved on.
  void CommitEpoch(int producer, std::int64_t split, std::uint32_t epoch);

  // ---- SinkGate ----
  // Stages one sink chunk from |node| under the chunk's tag.
  bool StageSinkChunk(int node, PartitionPtr chunk);

  // The merge activation for |tag| completed on |node| without re-parking:
  // replays the tag's staged chunks into the node's real sink and drops the
  // tag's ledger entries. Late re-deliveries to the tag are then refused.
  void CommitSink(int node, Tag tag);

  // ---- Gates ----
  bool MergeSafe() const {
    return !recovering_.load(std::memory_order_acquire) &&
           uncommitted_splits_.load(std::memory_order_acquire) == 0 &&
           undelivered_committed_.load(std::memory_order_acquire) == 0;
  }
  bool AllComplete();

  // ---- Coordinator-side repair ----
  // |node| was fenced (dead or draining): bump epochs of its uncommitted
  // splits and discard their staged entries, mark entries delivered to it for
  // re-delivery, discard its staged sink chunks, then Sweep().
  void OnNodeLost(int node);

  // The retry tick: re-queues pending (re-execution) splits, re-sends
  // pipelined deliveries whose ack timed out, and retries pending deliveries
  // whose backoff has elapsed. A lock-free no-op until the earliest of those
  // times; called from the coordinator's poll loop.
  void Sweep();

  // ---- Pressure-driven migration (DESIGN.md §14) ----
  // The broker ranks peers by heartbeat-carried heap headroom; the partition
  // manager consults it before spilling a victim.
  MigrationBroker& broker() { return broker_; }
  const MigrationBroker& broker() const { return broker_; }

  enum class MigrateOutcome : std::uint8_t {
    kMigrated,   // Landed on the target; the caller purges its local copy.
    kFailed,     // Definitively never landed; ownership reverted to the
                 // source — the caller re-queues locally and spills instead.
    kAbandoned,  // Ambiguous (acks exhausted on a live target): the frame may
                 // or may not have landed, so reverting could double-execute.
                 // Treated like the data dying in transit: the split's epoch
                 // is bumped and it re-executes from durable bytes; a landed
                 // stray copy's outputs are epoch-fenced. Caller purges.
  };

  // Ships |dp| — a victim already removed from the source queue and pinned,
  // so the caller holds exclusive ownership — to |target|, re-keying split
  // ownership through the same assigned_node/EffectiveOwner lineage a node
  // death uses. Ownership is remapped *before* the frame is sent: if the
  // target dies at any later moment, OnNodeLost(target) discards every
  // (split, epoch) entry — including outputs the source staged before the
  // move — and re-executes from the durable store, exactly as if the split
  // had always lived there. Only uncommitted, still-queued input splits
  // assigned to |source| qualify; anything else fails fast (kFailed).
  MigrateOutcome MigratePartition(int source, int target, const PartitionPtr& dp);

  // Counted when the three-way decision considered and rejected migration
  // (no destination, cost model, ineligible victim, delivery failure).
  void NoteMigrationRejected() {
    migrations_rejected_.fetch_add(1, std::memory_order_relaxed);
  }

  RecoveryStats stats() const;

 private:
  struct Split {
    TypeId type = 0;
    Tag tag = kNoTag;
    common::ByteBuffer bytes;  // Serialized input (cleared once committed).
    std::uint32_t epoch = 0;
    std::uint64_t next_seq = 0;  // Seq of the next entry staged under |epoch|.
    int assigned_node = 0;
    enum class State { kQueued, kPending, kCommitted };
    State state = State::kQueued;
    int attempt = 0;                 // kPending: position in the retry round.
    std::uint64_t not_before_ns = 0;  // kPending: earliest next attempt.
  };

  // (split, epoch, seq): an entry's exactly-once identity. entries_ is
  // ordered by it, so one (split, epoch) is one contiguous range.
  using EntryKey = std::tuple<std::int64_t, std::uint32_t, std::uint64_t>;

  struct Entry {
    TypeId type = 0;
    Tag tag = kNoTag;
    int home = 0;
    // Shared with delivery windows, which ship it after mu_ is released.
    std::shared_ptr<common::ByteBuffer> bytes;
    bool committed = false;
    bool delivered = false;
    bool redelivery = false;  // Was un-delivered by an owner death.
    int delivered_to = -1;
    // Committed, undelivered entries are either pending (in pending_) or in
    // flight to one target (in in_flight_).
    int in_flight_to = -1;
    std::uint64_t send_serial = 0;      // Tells this send from later resends.
    std::uint64_t ack_deadline_ns = 0;  // 0 while the send call is running.
    std::uint64_t not_before_ns = 0;    // Pending: earliest next attempt.
    int attempt = 0;                    // Position in the current retry round.
    std::uint64_t round_start_ns = 0;   // First failure of the current round.
  };

  // One send that CommitEpoch/Sweep ships after releasing mu_.
  struct Shipment {
    int target = 0;
    ShuffleWireId id;
    std::shared_ptr<const common::ByteBuffer> bytes;
    std::uint64_t serial = 0;
    bool sent = false;
  };
  using Window = std::vector<Shipment>;

  struct SinkChunk {
    TypeId type = 0;
    Tag tag = kNoTag;
    int node = 0;  // Staging node; discarded if it dies before the commit.
    common::ByteBuffer bytes;
  };

  // One delivery attempt for a committed, undelivered entry that is not in
  // flight: routes it to the effective owner of its home range behind a
  // membership circuit breaker. Inproc, it materializes there now; with a
  // channel, it marks the entry in flight and appends the send to |window|.
  // Whatever cannot go now stays pending for Sweep(). mu_ held.
  void DispatchLocked(const EntryKey& key, Entry& entry, std::uint64_t now_ns,
                      Window* window);

  // The entry landed on (or was refused by a dead) |target|. mu_ held.
  void SettleLocked(const EntryKey& key, Entry& entry, int target);

  // A failed attempt: park the entry as pending until its backoff elapses.
  void RetryLaterLocked(const EntryKey& key, Entry& entry, std::uint64_t now_ns);

  // |target| refused to materialize the entry (an OME inproc, a backpressure
  // ack over a transport): retry later, and drain |target| once a full retry
  // round failed with nothing landing on it and no activation running there.
  // Such a node never demotes itself — it OMEs only from its own activations,
  // and its merges wait for these very deliveries — so without this the
  // entry retries forever and MergeSafe() never opens. mu_ held.
  void RefusedLocked(const EntryKey& key, Entry& entry, int target, std::uint64_t now_ns);

  // Advances |*attempt| within its retry round and returns the not-before
  // time of that attempt: the shared backoff ladder, restarting on the next
  // tick once kShuffleRetries retries are used up.
  std::uint64_t NextAttemptNs(int* attempt, std::uint64_t salt, std::uint64_t now_ns) const;

  // Erases one entry and every index pointing at it. mu_ held.
  void EraseEntryLocked(std::map<EntryKey, Entry>::iterator it);
  // Erases every entry staged under (split, epoch). mu_ held.
  void EraseEpochLocked(std::int64_t split, std::uint32_t epoch);

  // Sends |window| (mu_ NOT held), then stamps each still-outstanding send's
  // ack deadline and settles refused sends as kPeerGone.
  void ShipWindow(Window& window);

  // Sweep() parts, mu_ held.
  void RequeueSplitsLocked(std::uint64_t now_ns);
  void ExpireAcksLocked(std::uint64_t now_ns);

  // Lowers the time of the next useful Sweep() to |at_ns|. mu_ held.
  void WakeSweepLocked(std::uint64_t at_ns);

  // Materializes |bytes| as a fresh partition of |type| on |node|'s heap.
  // Throws memsim::OutOfMemoryError if the single attempt fails.
  PartitionPtr Materialize(TypeId type, int node, common::ByteBuffer& bytes);

  // Migration's retry sleep; runs without mu_.
  void BackoffSleep(int attempt, std::uint64_t salt);

  RecoveryConfig config_;
  Membership membership_;
  MigrationBroker broker_;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t trace_id_ = 0;

  // Net-transport hooks. Written during wiring (single-threaded), read by the
  // delivery path and monitor threads afterwards.
  DeliveryChannel delivery_channel_;
  std::uint64_t ack_timeout_ns_ = 0;
  MigrationChannel migration_channel_;
  std::function<void(int, std::uint64_t, std::uint64_t)> beat_sink_;
  std::function<void(int)> node_lost_hook_;

  mutable std::mutex mu_;
  std::vector<RecoveryNodeHooks> hooks_;
  std::map<TypeId, PartitionFactory> factories_;
  std::deque<Split> splits_;
  std::set<std::int64_t> pending_splits_;  // Splits in State::kPending.
  std::map<EntryKey, Entry> entries_;
  // Indexes over entries_, so no path scans the whole ledger.
  std::map<Tag, std::set<EntryKey>> tag_entries_;
  std::set<EntryKey> pending_;    // Committed, undelivered, not in flight.
  std::set<EntryKey> in_flight_;  // Sent, awaiting the ack.
  std::vector<std::set<EntryKey>> delivered_at_;  // Per node: delivered_to.
  std::vector<std::uint64_t> landed_ns_;  // Per node: last materialization that landed.
  std::uint64_t send_serial_ = 0;
  std::map<Tag, std::vector<SinkChunk>> sink_chunks_;
  std::set<Tag> sunk_tags_;

  // Sink rehydration heap: effectively unbounded and pause-free, modelling
  // the DFS write buffer the paper's outputToHDFS streams into. Keeps the
  // sink-commit path independent of any (possibly dying) node's heap.
  std::unique_ptr<memsim::ManagedHeap> sink_heap_;

  // Gate counters (lock-free readers; writers hold mu_).
  std::atomic<std::uint64_t> uncommitted_splits_{0};
  std::atomic<std::uint64_t> undelivered_committed_{0};
  std::atomic<bool> recovering_{false};
  // Steady-clock time (ns) from which Sweep() has work; kNever when idle.
  // Written under mu_, read lock-free by Sweep()'s early exit.
  static constexpr std::uint64_t kNever = ~std::uint64_t{0};
  std::atomic<std::uint64_t> sweep_due_ns_{kNever};

  // Stats (relaxed atomics; snapshot via stats()).
  std::atomic<std::uint64_t> splits_registered_{0};
  std::atomic<std::uint64_t> splits_reexecuted_{0};
  std::atomic<std::uint64_t> entries_staged_{0};
  std::atomic<std::uint64_t> redeliveries_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> ack_timeouts_{0};
  std::atomic<std::uint64_t> duplicates_dropped_{0};
  std::atomic<std::uint64_t> fenced_rejects_{0};
  std::atomic<std::uint64_t> stale_commits_{0};
  std::atomic<std::uint64_t> sunk_tag_drops_{0};
  std::atomic<std::uint64_t> partitions_migrated_{0};
  std::atomic<std::uint64_t> migrated_bytes_{0};
  std::atomic<std::uint64_t> migrations_rejected_{0};
  // Migration frames dedup alongside ledger entries on the receiver's
  // (split, epoch, seq) sets; the high bit keeps their seqs out of the
  // ledger's per-(split, epoch) namespace.
  std::atomic<std::uint64_t> migration_seq_{0};
};

}  // namespace itask::core

#endif  // ITASK_ITASK_RECOVERY_H_
