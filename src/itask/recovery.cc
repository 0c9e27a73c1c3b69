#include "itask/recovery.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "chaos/chaos.h"
#include "common/backoff.h"
#include "common/logging.h"
#include "obs/event.h"
#include "serde/serializer.h"

namespace itask::core {

namespace {

// Deterministic jitter for the delivery backoff without touching any global
// RNG (chaos sweeps re-run fixed seeds and must stay reproducible).
using chaos::Mix64;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

std::uint64_t MsToNs(double ms) { return static_cast<std::uint64_t>(ms * 1e6); }

}  // namespace

RecoveryContext::RecoveryContext(RecoveryConfig config, int num_nodes)
    : config_(config),
      membership_(num_nodes),
      broker_(num_nodes, config.migration),
      hooks_(static_cast<std::size_t>(num_nodes)),
      delivered_at_(static_cast<std::size_t>(num_nodes)),
      landed_ns_(static_cast<std::size_t>(num_nodes), 0) {
  memsim::HeapConfig sink_heap_config;
  sink_heap_config.capacity_bytes = 1ULL << 40;  // Effectively unbounded.
  sink_heap_config.gc_base_ns = 0;
  sink_heap_config.gc_ns_per_byte = 0.0;
  sink_heap_config.real_pauses = false;
  sink_heap_ = std::make_unique<memsim::ManagedHeap>(sink_heap_config);
}

void RecoveryContext::RegisterFactory(TypeId type, PartitionFactory factory) {
  std::lock_guard lock(mu_);
  factories_[type] = std::move(factory);
}

void RecoveryContext::SetNodeHooks(int node, RecoveryNodeHooks hooks) {
  std::lock_guard lock(mu_);
  hooks_[static_cast<std::size_t>(node)] = std::move(hooks);
}

void RecoveryContext::SetNodeSink(int node, std::function<void(PartitionPtr)> sink) {
  std::lock_guard lock(mu_);
  hooks_[static_cast<std::size_t>(node)].sink = std::move(sink);
}

void RecoveryContext::SetDeliveryChannel(DeliveryChannel channel, double ack_timeout_ms) {
  std::lock_guard lock(mu_);
  delivery_channel_ = std::move(channel);
  ack_timeout_ns_ = MsToNs(std::max(0.0, ack_timeout_ms));
}

void RecoveryContext::SetMigrationChannel(MigrationChannel channel) {
  std::lock_guard lock(mu_);
  migration_channel_ = std::move(channel);
}

void RecoveryContext::SetBeatSink(std::function<void(int, std::uint64_t, std::uint64_t)> sink) {
  std::lock_guard lock(mu_);
  beat_sink_ = std::move(sink);
}

void RecoveryContext::SetNodeLostHook(std::function<void(int)> hook) {
  std::lock_guard lock(mu_);
  node_lost_hook_ = std::move(hook);
}

void RecoveryContext::Heartbeat(int node, std::uint64_t used_bytes,
                                std::uint64_t capacity_bytes) {
  // The sink is installed before runtimes start and detached after they stop;
  // no monitor thread can race the assignment.
  if (beat_sink_) {
    beat_sink_(node, used_bytes, capacity_bytes);
  } else {
    membership_.Beat(node);
    broker_.Update(node, used_bytes, capacity_bytes);
  }
}

void RecoveryContext::NoteRemoteHeartbeat(int node, std::uint64_t used_bytes,
                                          std::uint64_t capacity_bytes) {
  membership_.Beat(node);
  broker_.Update(node, used_bytes, capacity_bytes);
}

void RecoveryContext::NoteLinkDown(int node) {
  if (node < 0 || node >= membership_.size()) {
    return;
  }
  const NodeLiveness s = membership_.state(node);
  if (s == NodeLiveness::kAlive || s == NodeLiveness::kSuspect) {
    membership_.NoteDisconnected(node);
    LOG_INFO() << "recovery: node " << node
               << " disconnected (partition observed); grace "
               << config_.grace_ms() << "ms";
  }
}

DeliveryStatus RecoveryContext::RemotePush(int node, const ShuffleWireId& id,
                                           common::ByteBuffer& bytes) {
  // Lock-free on purpose: factories and hooks are frozen pre-run, and the
  // receive path must not queue behind commits for the ledger lock.
  if (!membership_.Serving(node)) {
    return DeliveryStatus::kPeerGone;
  }
  auto fit = factories_.find(id.type);
  if (fit == factories_.end()) {
    LOG_ERROR() << "recovery: no partition factory for remote-push type "
                << static_cast<unsigned>(id.type);
    return DeliveryStatus::kBackoff;
  }
  RecoveryNodeHooks& h = hooks_[static_cast<std::size_t>(node)];
  try {
    PartitionPtr dp = fit->second(h.heap, h.spill);
    dp->set_tag(id.tag);
    dp->set_origin(id.split, id.epoch);
    bytes.ResetCursor();
    serde::Reader reader(&bytes);
    dp->DeserializeFrom(reader);
    h.push(std::move(dp));
    return DeliveryStatus::kDelivered;
  } catch (const memsim::OutOfMemoryError&) {
    return DeliveryStatus::kBackoff;
  }
}

std::int64_t RecoveryContext::RegisterSplit(DataPartition& split, int assigned_node) {
  std::lock_guard lock(mu_);
  const auto id = static_cast<std::int64_t>(splits_.size());
  Split s;
  s.type = split.type();
  s.tag = split.tag();
  s.assigned_node = assigned_node;
  serde::Writer writer(&s.bytes);
  split.SerializeTo(writer);
  splits_.push_back(std::move(s));
  uncommitted_splits_.fetch_add(1, std::memory_order_release);
  splits_registered_.fetch_add(1, std::memory_order_relaxed);
  split.set_origin(id, /*epoch=*/0);
  return id;
}

bool RecoveryContext::StageShuffle(int producer, int home, PartitionPtr out) {
  const std::int64_t split = out->origin_split();
  const std::uint32_t epoch = out->origin_epoch();
  // Serialize before taking the lock: the producer owns |out|, and a fenced
  // stage only wastes the encoding.
  auto bytes = std::make_shared<common::ByteBuffer>();
  serde::Writer writer(bytes.get());
  out->SerializeTo(writer);
  out->DropPayload();

  std::lock_guard lock(mu_);
  const bool known =
      split >= 0 && split < static_cast<std::int64_t>(splits_.size());
  if (!membership_.Serving(producer) || !known ||
      splits_[static_cast<std::size_t>(split)].epoch != epoch ||
      splits_[static_cast<std::size_t>(split)].state == Split::State::kCommitted) {
    // Zombie or superseded producer: this output's split is already covered
    // by a re-execution (or the producer was declared dead). Fencing here is
    // what makes re-execution exactly-once instead of at-least-once.
    fenced_rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const EntryKey key{split, epoch, splits_[static_cast<std::size_t>(split)].next_seq++};
  Entry e;
  e.type = out->type();
  e.tag = out->tag();
  e.home = home;
  e.bytes = std::move(bytes);
  tag_entries_[e.tag].insert(key);
  entries_.emplace(key, std::move(e));
  entries_staged_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void RecoveryContext::CommitEpoch(int producer, std::int64_t split, std::uint32_t epoch) {
  Window window;
  {
    std::lock_guard lock(mu_);
    if (split < 0 || split >= static_cast<std::int64_t>(splits_.size())) {
      return;
    }
    Split& s = splits_[static_cast<std::size_t>(split)];
    if (!membership_.Serving(producer) || s.epoch != epoch ||
        s.state == Split::State::kCommitted) {
      // The detector declared the producer dead (or bumped the epoch) before
      // this commit raced in: the split will re-execute, so its staged
      // entries were already discarded and this completion must not count.
      stale_commits_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    s.state = Split::State::kCommitted;
    s.bytes.Clear();  // Input bytes are no longer needed once outputs committed.
    const std::uint64_t now = NowNs();
    for (auto it = entries_.lower_bound(EntryKey{split, epoch, 0});
         it != entries_.end() && std::get<0>(it->first) == split &&
         std::get<1>(it->first) == epoch;
         ++it) {
      Entry& e = it->second;
      if (e.committed) {
        continue;
      }
      e.committed = true;
      undelivered_committed_.fetch_add(1, std::memory_order_release);
      DispatchLocked(it->first, e, now, &window);
    }
    // Released only after the entries count as undelivered, so a lock-free
    // MergeSafe() never sees this split's data as neither pending nor landed.
    uncommitted_splits_.fetch_sub(1, std::memory_order_release);
  }
  ShipWindow(window);
}

bool RecoveryContext::StageSinkChunk(int node, PartitionPtr chunk) {
  SinkChunk c;
  c.type = chunk->type();
  c.tag = chunk->tag();
  c.node = node;
  serde::Writer writer(&c.bytes);
  chunk->SerializeTo(writer);
  chunk->DropPayload();
  std::lock_guard lock(mu_);
  if (!membership_.Serving(node) || sunk_tags_.count(c.tag) != 0) {
    fenced_rejects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  sink_chunks_[c.tag].push_back(std::move(c));
  return true;
}

void RecoveryContext::CommitSink(int node, Tag tag) {
  std::vector<SinkChunk> chunks;
  std::function<void(PartitionPtr)> inner;
  {
    std::lock_guard lock(mu_);
    if (!membership_.Serving(node) || sunk_tags_.count(tag) != 0) {
      stale_commits_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    sunk_tags_.insert(tag);
    auto it = sink_chunks_.find(tag);
    if (it != sink_chunks_.end()) {
      chunks = std::move(it->second);
      sink_chunks_.erase(it);
    }
    // The tag is consumed: its ledger entries (all delivered, or the merge
    // could not have dispatched under MergeSafe) will never re-deliver.
    auto tit = tag_entries_.find(tag);
    if (tit != tag_entries_.end()) {
      const std::set<EntryKey> keys = std::move(tit->second);
      tag_entries_.erase(tit);
      for (const EntryKey& key : keys) {
        EraseEntryLocked(entries_.find(key));
      }
    }
    inner = hooks_[static_cast<std::size_t>(node)].sink;
  }
  if (!inner) {
    return;
  }
  // Replay in staging order on the driver-side sink heap (the DFS stand-in):
  // unbounded and pause-free, so a commit can never OME — in particular not
  // against the heap of a node that is itself being poisoned or drained.
  for (SinkChunk& c : chunks) {
    PartitionFactory factory;
    {
      std::lock_guard lock(mu_);
      auto fit = factories_.find(c.type);
      if (fit == factories_.end()) {
        LOG_ERROR() << "recovery: no partition factory for type "
                    << static_cast<unsigned>(c.type) << " at sink commit";
        continue;
      }
      factory = fit->second;
    }
    PartitionPtr dp = factory(sink_heap_.get(), nullptr);
    dp->set_tag(c.tag);
    c.bytes.ResetCursor();
    serde::Reader reader(&c.bytes);
    dp->DeserializeFrom(reader);
    inner(std::move(dp));
  }
}

bool RecoveryContext::AllComplete() {
  if (recovering_.load(std::memory_order_acquire) ||
      uncommitted_splits_.load(std::memory_order_acquire) != 0 ||
      undelivered_committed_.load(std::memory_order_acquire) != 0) {
    return false;
  }
  std::lock_guard lock(mu_);
  // Every remaining entry belongs to a tag whose merge has not sunk yet.
  return entries_.empty();
}

void RecoveryContext::OnNodeLost(int node) {
  recovering_.store(true, std::memory_order_release);
  if (node_lost_hook_) {
    // Let the transport fabric close the node's endpoint first: anything
    // still queued for it is undeliverable and must not block senders.
    node_lost_hook_(node);
  }
  {
    std::lock_guard lock(mu_);
    const std::uint64_t now = NowNs();
    // 1) Uncommitted splits assigned to the lost node: discard their staged
    //    entries, bump the epoch (fencing any zombie stage/commit) and mark
    //    them pending re-execution on a survivor.
    for (std::size_t i = 0; i < splits_.size(); ++i) {
      Split& s = splits_[i];
      if (s.assigned_node != node || s.state == Split::State::kCommitted) {
        continue;
      }
      const auto id = static_cast<std::int64_t>(i);
      EraseEpochLocked(id, s.epoch);
      ++s.epoch;
      s.next_seq = 0;
      s.state = Split::State::kPending;
      s.attempt = 0;
      s.not_before_ns = now;
      pending_splits_.insert(id);
    }
    // 2) Committed entries that had been delivered to the lost node and whose
    //    tag is not yet sunk: the data died with the node's queue — mark for
    //    re-delivery from the ledger (no producer re-execution needed).
    for (const EntryKey& key : delivered_at_[static_cast<std::size_t>(node)]) {
      Entry& e = entries_.at(key);
      e.delivered = false;
      e.delivered_to = -1;
      e.redelivery = true;
      e.attempt = 0;
      e.not_before_ns = now;
      pending_.insert(key);
      undelivered_committed_.fetch_add(1, std::memory_order_release);
    }
    delivered_at_[static_cast<std::size_t>(node)].clear();
    // 3) Sends still in flight to the lost node will never be acked by a
    //    serving owner: re-target them now. A late ack from the lost node no
    //    longer matches and is ignored.
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      Entry& e = entries_.at(*it);
      if (e.in_flight_to != node) {
        ++it;
        continue;
      }
      e.in_flight_to = -1;
      e.attempt = 0;
      e.not_before_ns = now;
      pending_.insert(*it);
      it = in_flight_.erase(it);
    }
    // 4) Sink chunks the lost node staged for unsunk tags are partial merge
    //    output; the merge re-runs elsewhere and re-stages them.
    for (auto& [tag, chunks] : sink_chunks_) {
      chunks.erase(std::remove_if(chunks.begin(), chunks.end(),
                                  [node](const SinkChunk& c) { return c.node == node; }),
                   chunks.end());
    }
    WakeSweepLocked(now);
  }
  Sweep();
  recovering_.store(false, std::memory_order_release);
}

void RecoveryContext::OnDeliveryAck(int target, const ShuffleWireId& id,
                                    DeliveryStatus status) {
  std::lock_guard lock(mu_);
  const EntryKey key{id.split, id.epoch, id.seq};
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.in_flight_to != target) {
    return;  // Settled, re-marked by OnNodeLost, or erased with its tag.
  }
  Entry& e = it->second;
  in_flight_.erase(key);
  e.in_flight_to = -1;
  if (status == DeliveryStatus::kBackoff) {
    RefusedLocked(key, e, target, NowNs());
    return;
  }
  if (status == DeliveryStatus::kDelivered) {
    landed_ns_[static_cast<std::size_t>(target)] = NowNs();
  }
  SettleLocked(key, e, target);
}

void RecoveryContext::Sweep() {
  if (NowNs() < sweep_due_ns_.load(std::memory_order_acquire)) {
    return;
  }
  Window window;
  {
    std::lock_guard lock(mu_);
    const std::uint64_t now = NowNs();
    sweep_due_ns_.store(kNever, std::memory_order_relaxed);
    RequeueSplitsLocked(now);
    ExpireAcksLocked(now);
    for (auto it = pending_.begin(); it != pending_.end();) {
      const EntryKey key = *it++;  // Dispatch may erase |key| from pending_.
      Entry& e = entries_.at(key);
      if (e.not_before_ns > now) {
        WakeSweepLocked(e.not_before_ns);
        continue;
      }
      DispatchLocked(key, e, now, &window);
    }
  }
  ShipWindow(window);
}

void RecoveryContext::RequeueSplitsLocked(std::uint64_t now) {
  // Re-queue pending splits on the effective owner of their old assignment,
  // one attempt per tick; an OME parks the split until its backoff elapses.
  for (auto it = pending_splits_.begin(); it != pending_splits_.end();) {
    const std::int64_t id = *it;
    Split& s = splits_[static_cast<std::size_t>(id)];
    if (s.not_before_ns > now) {
      WakeSweepLocked(s.not_before_ns);
      ++it;
      continue;
    }
    const int target = membership_.EffectiveOwner(s.assigned_node);
    if (!membership_.Serving(target)) {
      WakeSweepLocked(now);  // No survivors; the coordinator aborts the job.
      ++it;
      continue;
    }
    if (factories_.count(s.type) == 0) {
      LOG_ERROR() << "recovery: no partition factory for split type "
                  << static_cast<unsigned>(s.type);
      ++it;
      continue;
    }
    if (s.attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      common::BackoffRegistry::Instance().NoteRetry(common::BackoffUse::kLedgerDeliver);
    }
    try {
      PartitionPtr dp = Materialize(s.type, target, s.bytes);
      dp->set_tag(s.tag);
      dp->set_origin(id, s.epoch);
      hooks_[static_cast<std::size_t>(target)].push(dp);
    } catch (const memsim::OutOfMemoryError&) {
      // Target under pressure: retry after the backoff, on a later tick.
      s.not_before_ns = NextAttemptNs(&s.attempt, static_cast<std::uint64_t>(id) * 31 + 7, now);
      WakeSweepLocked(s.not_before_ns);
      ++it;
      continue;
    }
    s.attempt = 0;
    s.assigned_node = target;
    s.state = Split::State::kQueued;
    it = pending_splits_.erase(it);
    splits_reexecuted_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Emit(obs::EventKind::kLineageReexec, static_cast<std::uint16_t>(target),
                    static_cast<std::uint64_t>(id), s.epoch);
    }
  }
}

void RecoveryContext::ExpireAcksLocked(std::uint64_t now) {
  for (auto it = in_flight_.begin(); it != in_flight_.end();) {
    Entry& e = entries_.at(*it);
    if (e.ack_deadline_ns == 0) {
      ++it;  // The send call is still running; ShipWindow stamps the deadline.
      continue;
    }
    if (now < e.ack_deadline_ns) {
      WakeSweepLocked(e.ack_deadline_ns);
      ++it;
      continue;
    }
    // No verdict in time: the frame or its ack was lost. Resend with the same
    // (split, epoch, seq) after the backoff; the receiver's dedup absorbs a
    // copy that did land and re-acks it.
    ack_timeouts_.fetch_add(1, std::memory_order_relaxed);
    common::BackoffRegistry::Instance().NoteRetry(common::BackoffUse::kShuffleAck);
    const EntryKey key = *it;
    it = in_flight_.erase(it);
    e.in_flight_to = -1;
    RetryLaterLocked(key, e, now);
  }
}

RecoveryContext::MigrateOutcome RecoveryContext::MigratePartition(
    int source, int target, const PartitionPtr& dp) {
  const std::int64_t split = dp->origin_split();
  const std::uint32_t epoch = dp->origin_epoch();
  const std::uint64_t payload_bytes = dp->PayloadBytes();
  // The caller holds exclusive ownership (victim removed from its queue and
  // pinned), so serializing without the partition's state lock mirrors
  // RegisterSplit. Only the unprocessed remainder ships — the processed
  // prefix's outputs already sit in the ledger under (split, epoch).
  common::ByteBuffer bytes;
  serde::Writer writer(&bytes);
  dp->SerializeTo(writer);

  const std::uint64_t seq =
      kMigrationSeqBit | migration_seq_.fetch_add(1, std::memory_order_relaxed);
  const ShuffleWireId id{split, epoch, seq, dp->type(), dp->tag()};

  {
    // Remap ownership BEFORE the frame leaves: from here on, a target death
    // at *any* moment makes OnNodeLost(target) discard every (split, epoch)
    // entry — including outputs the source staged before the move — and
    // re-execute from durable bytes. There is no window where the partition
    // is in flight but unowned. Anything that is not an uncommitted,
    // still-queued input split of a serving source fails fast.
    std::lock_guard lock(mu_);
    if (split < 0 || split >= static_cast<std::int64_t>(splits_.size())) {
      return MigrateOutcome::kFailed;
    }
    Split& s = splits_[static_cast<std::size_t>(split)];
    if (s.epoch != epoch || s.state != Split::State::kQueued ||
        s.assigned_node != source || !membership_.Serving(source) ||
        !membership_.Serving(target)) {
      return MigrateOutcome::kFailed;
    }
    s.assigned_node = target;
  }

  // Delivery runs without mu_ — remap is done, retries consult only
  // membership, and the factories/hooks the inproc path reads are frozen
  // before the job starts (same contract RemotePush relies on).
  bool landed = false;
  bool definitive_failure = false;
  bool ambiguous_seen = false;
  for (int attempt = 0; attempt <= kShuffleRetries; ++attempt) {
    if (!membership_.Serving(target)) {
      break;  // Target fenced mid-flight; OnNodeLost/Sweep own the replay.
    }
    if (attempt > 0) {
      retries_.fetch_add(1, std::memory_order_relaxed);
      BackoffSleep(attempt, Mix64(seq));
    }
    if (migration_channel_) {
      const DeliveryStatus st = migration_channel_(target, id, bytes);
      if (st == DeliveryStatus::kDelivered) {
        landed = true;
        break;
      }
      if (st == DeliveryStatus::kPeerGone) {
        definitive_failure = true;  // Send refused before the frame left,
        break;                      // or the receiver refused to take it.
      }
      // kBackoff covers both receiver pressure and a lost ack — the frame
      // may have landed. Retry with the same (split, epoch, seq): the
      // receiver's dedup absorbs a landed-but-unacked duplicate and acks it
      // as delivered. Remember the ambiguity for the failure handling.
      ambiguous_seen = true;
      continue;
    }
    try {
      PartitionPtr moved = Materialize(dp->type(), target, bytes);
      moved->set_tag(dp->tag());
      moved->set_origin(split, epoch);
      hooks_[static_cast<std::size_t>(target)].push(std::move(moved));
      landed = true;
      break;
    } catch (const memsim::OutOfMemoryError&) {
      // The inproc push either lands or throws, so exhausting retries here
      // is a *definitive* failure — nothing ever reached the target.
      definitive_failure = true;
    }
  }

  if (landed) {
    partitions_migrated_.fetch_add(1, std::memory_order_relaxed);
    migrated_bytes_.fetch_add(payload_bytes, std::memory_order_relaxed);
    return MigrateOutcome::kMigrated;
  }

  std::lock_guard lock(mu_);
  Split& s = splits_[static_cast<std::size_t>(split)];
  if (s.epoch != epoch || s.state != Split::State::kQueued) {
    // Either a concurrent OnNodeLost(target) already bumped the epoch and
    // scheduled re-execution, or a landed-but-unacked copy finished the
    // split and committed it. Both mean the data's fate is settled; the
    // caller just drops its now-redundant local copy.
    return MigrateOutcome::kAbandoned;
  }
  if (definitive_failure && !ambiguous_seen && membership_.Serving(source)) {
    // The frame verifiably never landed (every attempt failed before
    // delivery, none timed out ambiguously): hand the split back and let
    // the caller re-queue the partition it still holds. An earlier lost ack
    // would poison this path — a landed stray could double-execute against
    // the revived source copy — hence the ambiguous_seen guard.
    s.assigned_node = source;
    return MigrateOutcome::kFailed;
  }
  // Ambiguous (acks exhausted against a still-serving target), or the source
  // can no longer take the partition back. A landed copy may already be
  // processing, so reverting risks double-execution — instead pretend the
  // data died in transit: discard the epoch's staged entries, bump the epoch
  // (fencing any stray copy's future outputs and its commit) and re-execute
  // from durable bytes via Sweep. Strictly conservative: worst case is one
  // redundant re-execution, never a duplicate or lost tuple.
  EraseEpochLocked(split, epoch);
  ++s.epoch;
  s.next_seq = 0;
  s.state = Split::State::kPending;
  s.attempt = 0;
  const std::uint64_t now = NowNs();
  s.not_before_ns = now;
  pending_splits_.insert(split);
  WakeSweepLocked(now);
  return MigrateOutcome::kAbandoned;
}

void RecoveryContext::DispatchLocked(const EntryKey& key, Entry& entry, std::uint64_t now,
                                     Window* window) {
  if (entry.delivered) {
    // (split, epoch, seq) already landed on a serving owner: a re-delivered
    // duplicate. The chaos sweeps assert this counter stays zero.
    if (membership_.Serving(entry.delivered_to)) {
      duplicates_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
    pending_.erase(key);
    return;
  }
  if (sunk_tags_.count(entry.tag) != 0) {
    // The tag's merge already committed; late data here would be a
    // correctness bug upstream — count it rather than corrupt the sink.
    sunk_tag_drops_.fetch_add(1, std::memory_order_relaxed);
    entry.delivered = true;
    entry.delivered_to = -1;
    undelivered_committed_.fetch_sub(1, std::memory_order_release);
    pending_.erase(key);
    return;
  }
  const bool wired = factories_.count(entry.type) != 0;
  if (!wired) {
    LOG_ERROR() << "recovery: no partition factory for shuffle type "
                << static_cast<unsigned>(entry.type);
  }
  const int target = membership_.EffectiveOwner(entry.home);
  if (!wired || !membership_.Serving(target)) {
    // Circuit breaker: nobody serves this range right now. Try again on the
    // next tick.
    pending_.insert(key);
    WakeSweepLocked(now);
    return;
  }
  if (entry.attempt > 0) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    common::BackoffRegistry::Instance().NoteRetry(common::BackoffUse::kLedgerDeliver);
    if (tracer_ != nullptr) {
      tracer_->Emit(obs::EventKind::kShuffleRetry, static_cast<std::uint16_t>(target),
                    static_cast<std::uint64_t>(entry.attempt),
                    static_cast<std::uint64_t>(std::get<2>(key)));
    }
  }
  if (delivery_channel_) {
    // Transport path: the send goes out after mu_ is released; the receive
    // side materializes (RemotePush) and its ack lands in OnDeliveryAck.
    pending_.erase(key);
    in_flight_.insert(key);
    entry.in_flight_to = target;
    entry.ack_deadline_ns = 0;
    entry.send_serial = ++send_serial_;
    window->push_back(Shipment{
        target,
        ShuffleWireId{std::get<0>(key), std::get<1>(key), std::get<2>(key), entry.type,
                      entry.tag},
        entry.bytes, entry.send_serial});
    return;
  }
  try {
    PartitionPtr dp = Materialize(entry.type, target, *entry.bytes);
    dp->set_tag(entry.tag);
    dp->set_origin(std::get<0>(key), std::get<1>(key));
    hooks_[static_cast<std::size_t>(target)].push(dp);
  } catch (const memsim::OutOfMemoryError&) {
    // Target heap full right now; back off (capped exponential + jitter) and
    // re-check membership then — the target may get demoted meanwhile.
    RefusedLocked(key, entry, target, now);
    return;
  }
  pending_.erase(key);
  landed_ns_[static_cast<std::size_t>(target)] = now;
  SettleLocked(key, entry, target);
}

void RecoveryContext::SettleLocked(const EntryKey& key, Entry& entry, int target) {
  entry.delivered = true;
  entry.delivered_to = target;
  entry.attempt = 0;
  delivered_at_[static_cast<std::size_t>(target)].insert(key);
  undelivered_committed_.fetch_sub(1, std::memory_order_release);
  if (entry.redelivery) {
    redeliveries_.fetch_add(1, std::memory_order_relaxed);
    if (tracer_ != nullptr) {
      tracer_->Emit(obs::EventKind::kShuffleRedeliver, static_cast<std::uint16_t>(target),
                    static_cast<std::uint64_t>(std::get<0>(key)), std::get<2>(key));
    }
  }
}

void RecoveryContext::RetryLaterLocked(const EntryKey& key, Entry& entry, std::uint64_t now) {
  entry.not_before_ns = NextAttemptNs(
      &entry.attempt,
      Mix64(static_cast<std::uint64_t>(std::get<0>(key)) << 20 | std::get<2>(key)), now);
  pending_.insert(key);
  WakeSweepLocked(entry.not_before_ns);
}

void RecoveryContext::RefusedLocked(const EntryKey& key, Entry& entry, int target,
                                    std::uint64_t now) {
  if (entry.attempt == 0) {
    entry.round_start_ns = now;
  }
  RetryLaterLocked(key, entry, now);
  const bool round_failed = entry.attempt == 0;  // The ladder wrapped.
  const RecoveryNodeHooks& h = hooks_[static_cast<std::size_t>(target)];
  if (!round_failed || landed_ns_[static_cast<std::size_t>(target)] >= entry.round_start_ns ||
      !h.idle || !h.idle() || !membership_.TryDemoteToDraining(target)) {
    return;
  }
  // The coordinator fences the draining node and OnNodeLost re-routes its
  // range, exactly as after an escaped OME on one of its workers.
  LOG_WARN() << "recovery: node " << target
             << " refused every delivery of a full retry round with no activation running; "
                "draining";
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kNodeDraining, static_cast<std::uint16_t>(target));
  }
}

std::uint64_t RecoveryContext::NextAttemptNs(int* attempt, std::uint64_t salt,
                                             std::uint64_t now) const {
  // Rounds of kShuffleRetries backed-off retries; an exhausted round starts
  // over on the next tick, exactly as the old inline retry loop did when the
  // following Sweep picked the entry up again.
  *attempt = (*attempt + 1) % (kShuffleRetries + 1);
  if (*attempt == 0) {
    return now;
  }
  common::BackoffPolicy policy;
  policy.base_ms = config_.backoff_base_ms;
  policy.cap_ms = config_.backoff_cap_ms;
  return now + MsToNs(common::BackoffDelayMs(policy, *attempt, salt));
}

void RecoveryContext::EraseEntryLocked(std::map<EntryKey, Entry>::iterator it) {
  const EntryKey& key = it->first;
  Entry& e = it->second;
  if (e.committed && !e.delivered) {
    // Only a sunk tag erases committed entries, and MergeSafe kept its merge
    // from dispatching while any were undelivered: settle it as a late
    // delivery to a sunk tag would be.
    sunk_tag_drops_.fetch_add(1, std::memory_order_relaxed);
    undelivered_committed_.fetch_sub(1, std::memory_order_release);
    pending_.erase(key);
    in_flight_.erase(key);
  }
  if (e.delivered && e.delivered_to >= 0) {
    delivered_at_[static_cast<std::size_t>(e.delivered_to)].erase(key);
  }
  auto tit = tag_entries_.find(e.tag);
  if (tit != tag_entries_.end()) {
    tit->second.erase(key);
    if (tit->second.empty()) {
      tag_entries_.erase(tit);
    }
  }
  entries_.erase(it);
}

void RecoveryContext::EraseEpochLocked(std::int64_t split, std::uint32_t epoch) {
  auto it = entries_.lower_bound(EntryKey{split, epoch, 0});
  while (it != entries_.end() && std::get<0>(it->first) == split &&
         std::get<1>(it->first) == epoch) {
    EraseEntryLocked(it++);
  }
}

void RecoveryContext::ShipWindow(Window& window) {
  if (window.empty()) {
    return;
  }
  // Never with mu_ held: Send blocks on a full queue, and the driver's
  // receive thread needs mu_ to record the acks that drain it.
  for (Shipment& s : window) {
    s.sent = delivery_channel_(s.target, s.id, *s.bytes);
  }
  std::lock_guard lock(mu_);
  const std::uint64_t now = NowNs();
  for (const Shipment& s : window) {
    auto it = entries_.find(EntryKey{s.id.split, s.id.epoch, s.id.seq});
    if (it == entries_.end() || it->second.in_flight_to < 0 ||
        it->second.send_serial != s.serial) {
      continue;  // Acked, re-marked or erased while the window was sending.
    }
    Entry& e = it->second;
    if (s.sent) {
      e.ack_deadline_ns = now + ack_timeout_ns_;
      WakeSweepLocked(e.ack_deadline_ns);
      continue;
    }
    // Refused before the frame left: the target endpoint is closed. Like the
    // in-memory push into a fenced runtime, the bytes are gone with it and
    // OnNodeLost re-marks them once the node is declared dead.
    in_flight_.erase(it->first);
    e.in_flight_to = -1;
    SettleLocked(it->first, e, s.target);
  }
}

void RecoveryContext::WakeSweepLocked(std::uint64_t at_ns) {
  if (at_ns < sweep_due_ns_.load(std::memory_order_relaxed)) {
    sweep_due_ns_.store(at_ns, std::memory_order_release);
  }
}

PartitionPtr RecoveryContext::Materialize(TypeId type, int node,
                                          common::ByteBuffer& bytes) {
  RecoveryNodeHooks& h = hooks_[static_cast<std::size_t>(node)];
  PartitionPtr dp = factories_.at(type)(h.heap, h.spill);
  bytes.ResetCursor();
  serde::Reader reader(&bytes);
  dp->DeserializeFrom(reader);  // May throw OutOfMemoryError; dp's dtor frees.
  return dp;
}

void RecoveryContext::BackoffSleep(int attempt, std::uint64_t salt) {
  // Shared backoff shape (common/backoff.h): capped exponential with +/- 25%
  // deterministic jitter so retry storms against one target decorrelate.
  common::BackoffPolicy policy;
  policy.base_ms = config_.backoff_base_ms;
  policy.cap_ms = config_.backoff_cap_ms;
  const double ms = common::BackoffDelayMs(policy, attempt, salt);
  common::BackoffRegistry::Instance().NoteRetry(common::BackoffUse::kLedgerDeliver);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
}

RecoveryStats RecoveryContext::stats() const {
  RecoveryStats s;
  s.splits_registered = splits_registered_.load(std::memory_order_relaxed);
  s.splits_reexecuted = splits_reexecuted_.load(std::memory_order_relaxed);
  s.entries_staged = entries_staged_.load(std::memory_order_relaxed);
  s.redeliveries = redeliveries_.load(std::memory_order_relaxed);
  s.shuffle_retries = retries_.load(std::memory_order_relaxed);
  s.ack_timeouts = ack_timeouts_.load(std::memory_order_relaxed);
  s.duplicates_dropped = duplicates_dropped_.load(std::memory_order_relaxed);
  s.fenced_rejects = fenced_rejects_.load(std::memory_order_relaxed);
  s.stale_commits = stale_commits_.load(std::memory_order_relaxed);
  s.sunk_tag_drops = sunk_tag_drops_.load(std::memory_order_relaxed);
  s.partitions_migrated = partitions_migrated_.load(std::memory_order_relaxed);
  s.migrated_bytes = migrated_bytes_.load(std::memory_order_relaxed);
  s.migrations_rejected = migrations_rejected_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace itask::core
