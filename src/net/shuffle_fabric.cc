#include "net/shuffle_fabric.h"

#include <chrono>
#include <utility>

#include "common/backoff.h"
#include "common/logging.h"
#include "obs/span.h"

namespace itask::net {

ShuffleFabric::ShuffleFabric(const NetConfig& config, const chaos::FaultPlan& faults,
                             core::RecoveryContext* recovery, int num_nodes)
    : config_(config),
      recovery_(recovery),
      num_nodes_(num_nodes),
      transport_(MakeTransport(config, faults)),
      seen_(static_cast<std::size_t>(num_nodes)) {
  for (int i = 0; i < num_nodes; ++i) {
    seen_mu_.push_back(std::make_unique<std::mutex>());
    heap_used_.push_back(std::make_unique<std::atomic<std::uint64_t>>(0));
  }
  transport_->RegisterEndpoint(kDriverEndpoint,
                               [this](Message&& msg) { HandleDriverMessage(std::move(msg)); });
  for (int node = 0; node < num_nodes; ++node) {
    transport_->RegisterEndpoint(
        node, [this, node](Message&& msg) { HandleNodeMessage(node, std::move(msg)); });
  }
  recovery_->SetDeliveryChannel(
      [this](int target, const core::ShuffleWireId& id, const common::ByteBuffer& bytes) {
        return SendDelivery(target, id, bytes);
      },
      static_cast<double>(config_.ack_timeout_ms));
  recovery_->SetMigrationChannel(
      [this](int target, const core::ShuffleWireId& id, const common::ByteBuffer& bytes) {
        return DeliverAndWait(target, id, bytes);
      });
  recovery_->SetBeatSink([this](int node, std::uint64_t used, std::uint64_t cap) {
    Message hb;
    hb.kind = MsgKind::kHeartbeat;
    hb.src = node;
    hb.dst = kDriverEndpoint;
    hb.a = used;
    hb.b = cap;
    heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
    transport_->Send(std::move(hb));  // Droppable: never block the monitor.
  });
  recovery_->SetNodeLostHook([this](int node) { CloseNode(node); });
  // Partition edges from the transport's fault engine feed the membership
  // view: a blocked link parks the node in kDisconnected (grace window)
  // instead of letting silence walk it straight to kDead. Heal needs no
  // explicit hook — resumed heartbeats clear the state in the coordinator.
  transport_->SetLinkObserver([this](int node, bool blocked) {
    if (blocked) {
      recovery_->NoteLinkDown(node);
    }
  });
}

ShuffleFabric::~ShuffleFabric() {
  // Detach before the transport dies; runtimes are already stopped by the
  // time a job tears its fabric down, so no heartbeat races this.
  recovery_->SetDeliveryChannel(nullptr, 0.0);
  recovery_->SetMigrationChannel(nullptr);
  recovery_->SetBeatSink(nullptr);
  recovery_->SetNodeLostHook(nullptr);
  transport_.reset();
}

void ShuffleFabric::CloseNode(int node) {
  if (node >= 0 && node < num_nodes_) {
    transport_->CloseEndpoint(node);
  }
}

std::uint64_t ShuffleFabric::HeapUsedBytes(int node) const {
  if (node < 0 || node >= num_nodes_) {
    return 0;
  }
  return heap_used_[static_cast<std::size_t>(node)]->load(std::memory_order_relaxed);
}

bool ShuffleFabric::SendDelivery(int target, const core::ShuffleWireId& id,
                                 const common::ByteBuffer& bytes) {
  Message msg;
  msg.kind = MsgKind::kShuffleData;
  msg.src = kDriverEndpoint;
  msg.dst = target;
  msg.split = id.split;
  msg.epoch = id.epoch;
  msg.seq = id.seq;
  msg.type = id.type;
  msg.tag = id.tag;
  msg.payload = bytes;  // Copy: the ledger keeps the original for redelivery.
  msg.payload.ResetCursor();
  if (const std::uint64_t trace_id = recovery_->trace_id(); trace_id != 0) {
    msg.trace = trace_id;
    msg.span = obs::SpanId(trace_id, static_cast<std::uint8_t>(msg.kind), msg.src,
                           msg.dst, id.split, id.epoch, id.seq);
    EmitFlow(obs::EventKind::kMsgSend, static_cast<std::uint16_t>(num_nodes_), msg,
             target);
  }
  deliveries_sent_.fetch_add(1, std::memory_order_relaxed);
  return transport_->Send(std::move(msg));
}

core::DeliveryStatus ShuffleFabric::DeliverAndWait(int target, const core::ShuffleWireId& id,
                                                   const common::ByteBuffer& bytes) {
  const AckKey key{target, id.split, id.epoch, id.seq};
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    ack_results_.erase(key);  // A stale ack from a prior attempt must not match.
  }
  if (!SendDelivery(target, id, bytes)) {
    return core::DeliveryStatus::kPeerGone;
  }

  std::unique_lock<std::mutex> lock(ack_mu_);
  // Shared deadline helper instead of one fixed wait_for: the predicate is
  // rechecked after every wakeup, so a spurious (or unrelated-ack) wakeup
  // never eats the rest of the timeout budget.
  const common::Deadline deadline(static_cast<double>(config_.ack_timeout_ms));
  bool acked = ack_results_.count(key) != 0;
  while (!acked && !deadline.Expired()) {
    ack_cv_.wait_until(lock, deadline.until());
    acked = ack_results_.count(key) != 0;
  }
  if (!acked) {
    ack_timeouts_.fetch_add(1, std::memory_order_relaxed);
    common::BackoffRegistry::Instance().NoteRetry(common::BackoffUse::kShuffleAck);
    return core::DeliveryStatus::kBackoff;  // Retry: dedup absorbs the resend.
  }
  const core::DeliveryStatus status = ack_results_[key];
  ack_results_.erase(key);
  return status;
}

void ShuffleFabric::HandleDriverMessage(Message&& msg) {
  switch (msg.kind) {
    case MsgKind::kShuffleAck: {
      EmitFlow(obs::EventKind::kMsgRecv, static_cast<std::uint16_t>(num_nodes_), msg,
               msg.src);
      core::DeliveryStatus status = core::DeliveryStatus::kBackoff;
      switch (static_cast<AckStatus>(msg.a)) {
        case AckStatus::kOk:
          acks_ok_.fetch_add(1, std::memory_order_relaxed);
          status = core::DeliveryStatus::kDelivered;
          break;
        case AckStatus::kBackpressure:
          acks_backpressure_.fetch_add(1, std::memory_order_relaxed);
          break;
        case AckStatus::kRefused:
          acks_refused_.fetch_add(1, std::memory_order_relaxed);
          status = core::DeliveryStatus::kPeerGone;
          break;
      }
      if ((msg.seq & core::kMigrationSeqBit) == 0) {
        recovery_->OnDeliveryAck(msg.src, core::ShuffleWireId{msg.split, msg.epoch, msg.seq},
                                 status);
        break;
      }
      {
        std::lock_guard<std::mutex> lock(ack_mu_);
        ack_results_[AckKey{msg.src, msg.split, msg.epoch, msg.seq}] = status;
      }
      ack_cv_.notify_all();
      break;
    }
    case MsgKind::kHeartbeat: {
      if (msg.src >= 0 && msg.src < num_nodes_) {
        heap_used_[static_cast<std::size_t>(msg.src)]->store(msg.a,
                                                             std::memory_order_relaxed);
        // One entry point for both liveness and headroom: the migration
        // broker must never learn about a node the detector didn't just
        // hear from, or stale stats would outlive the staleness cutoff.
        recovery_->NoteRemoteHeartbeat(msg.src, msg.a, msg.b);
      }
      break;
    }
    default:
      break;  // Control verbs are the ctrl plane's business, not the fabric's.
  }
}

void ShuffleFabric::HandleNodeMessage(int node, Message&& msg) {
  if (msg.kind != MsgKind::kShuffleData) {
    return;
  }
  // Receipt end of the delivery hop: echo the span the sender stamped.
  EmitFlow(obs::EventKind::kMsgRecv, static_cast<std::uint16_t>(node), msg, msg.src);
  const core::ShuffleWireId id{msg.split, msg.epoch, msg.seq,
                               static_cast<core::TypeId>(msg.type),
                               static_cast<core::Tag>(msg.tag)};
  AckStatus status;
  bool duplicate = false;
  {
    std::lock_guard<std::mutex> lock(*seen_mu_[static_cast<std::size_t>(node)]);
    duplicate = seen_[static_cast<std::size_t>(node)].count({id.split, id.epoch, id.seq}) != 0;
  }
  if (duplicate) {
    // The first copy landed but its ack was lost (or timed out): absorb the
    // resend and re-ack so the sender stops retrying. This is the transport
    // dedup layer; the ledger's duplicates_dropped audit stays untouched.
    dup_payloads_dropped_.fetch_add(1, std::memory_order_relaxed);
    status = AckStatus::kOk;
  } else {
    switch (recovery_->RemotePush(node, id, msg.payload)) {
      case core::DeliveryStatus::kDelivered: {
        std::lock_guard<std::mutex> lock(*seen_mu_[static_cast<std::size_t>(node)]);
        seen_[static_cast<std::size_t>(node)].insert({id.split, id.epoch, id.seq});
        status = AckStatus::kOk;
        break;
      }
      case core::DeliveryStatus::kBackoff:
        status = AckStatus::kBackpressure;
        break;
      case core::DeliveryStatus::kPeerGone:
      default:
        status = AckStatus::kRefused;
        break;
    }
  }
  Message ack;
  ack.kind = MsgKind::kShuffleAck;
  ack.src = node;
  ack.dst = kDriverEndpoint;
  ack.split = id.split;
  ack.epoch = id.epoch;
  ack.seq = id.seq;
  ack.a = static_cast<std::uint64_t>(status);
  if (msg.trace != 0) {
    ack.trace = msg.trace;
    ack.span = obs::SpanId(msg.trace, static_cast<std::uint8_t>(ack.kind), ack.src,
                           ack.dst, id.split, id.epoch, id.seq);
    EmitFlow(obs::EventKind::kMsgSend, static_cast<std::uint16_t>(node), ack,
             kDriverEndpoint);
  }
  transport_->Send(std::move(ack));
}

void ShuffleFabric::EmitFlow(obs::EventKind kind, std::uint16_t lane,
                             const Message& msg, int peer) {
  obs::Tracer* tracer = recovery_->tracer();
  if (tracer == nullptr || msg.span == 0) {
    return;
  }
  const std::uint8_t flags =
      (msg.seq & core::kMigrationSeqBit) != 0 ? obs::kFlagMigration : 0;
  tracer->Emit(kind, lane, msg.span, msg.payload.size(),
               obs::FlowAux(peer, static_cast<std::uint8_t>(msg.kind)), flags);
}

FabricStats ShuffleFabric::stats() const {
  FabricStats s;
  s.deliveries_sent = deliveries_sent_.load(std::memory_order_relaxed);
  s.acks_ok = acks_ok_.load(std::memory_order_relaxed);
  s.acks_backpressure = acks_backpressure_.load(std::memory_order_relaxed);
  s.acks_refused = acks_refused_.load(std::memory_order_relaxed);
  s.ack_timeouts =
      ack_timeouts_.load(std::memory_order_relaxed) + recovery_->stats().ack_timeouts;
  s.dup_payloads_dropped = dup_payloads_dropped_.load(std::memory_order_relaxed);
  s.heartbeats_sent = heartbeats_sent_.load(std::memory_order_relaxed);
  s.transport = transport_->Stats();
  return s;
}

}  // namespace itask::net
