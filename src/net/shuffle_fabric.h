// ShuffleFabric: routes one job's shuffle ledger deliveries, acks and
// heartbeats over a net::Transport (DESIGN.md §13).
//
// Each fault-tolerant job owns one fabric (and therefore its own transport
// instance — with ephemeral TCP ports, two tenants' fabrics never collide on
// an endpoint). The fabric registers one endpoint per node plus the driver
// endpoint, then wires itself into the job's RecoveryContext:
//
//  - delivery channel: the ledger ships each committed entry as one
//    kShuffleData message from the driver endpoint and returns without
//    waiting (the ledger calls it only after releasing its lock, so a full
//    send queue blocks one committing worker, never the ledger). The node's
//    kShuffleAck comes back on the driver endpoint's receive thread and is
//    matched by (target, split, epoch, seq) in RecoveryContext::OnDeliveryAck;
//    the ledger's Sweep() tick owns ack timeouts and resends. Receiver-side
//    dedup by (split, epoch, seq) makes a resend after a lost ack idempotent
//    — those drops are counted here (dup_payloads_dropped), separately from
//    the ledger's own duplicates_dropped audit counter, which must stay zero.
//  - migration channel: a migrating partition needs its verdict before the
//    caller can decide between keep and spill, so it blocks for its ack
//    (ack_timeout_ms). Migration seqs carry core::kMigrationSeqBit, which is
//    how the driver handler tells the two kinds of ack apart.
//  - beat sink: each node's monitor heartbeat travels as a kHeartbeat message
//    carrying heap occupancy; the driver handler beats membership. Over the
//    inproc backend this collapses to a synchronous Beat() — byte-for-byte
//    the pre-net behavior.
//  - node-lost hook: OnNodeLost closes the dead node's endpoint so queued
//    traffic drains as peer-gone instead of blocking senders.
#ifndef ITASK_NET_SHUFFLE_FABRIC_H_
#define ITASK_NET_SHUFFLE_FABRIC_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <tuple>
#include <vector>

#include "itask/recovery.h"
#include "net/transport.h"

namespace itask::net {

struct FabricStats {
  std::uint64_t deliveries_sent = 0;
  std::uint64_t acks_ok = 0;
  std::uint64_t acks_backpressure = 0;
  std::uint64_t acks_refused = 0;
  std::uint64_t ack_timeouts = 0;  // Migration waits plus ledger resends.
  std::uint64_t dup_payloads_dropped = 0;  // Receiver-side transport dedup.
  std::uint64_t heartbeats_sent = 0;
  TransportStats transport;
};

class ShuffleFabric {
 public:
  // Builds the transport (injecting the net section of |faults|), registers
  // all endpoints and wires |recovery|'s delivery channel / beat sink /
  // node-lost hook. |recovery| must outlive the fabric; the destructor
  // detaches the hooks again.
  ShuffleFabric(const NetConfig& config, const chaos::FaultPlan& faults,
                core::RecoveryContext* recovery, int num_nodes);
  ~ShuffleFabric();

  ShuffleFabric(const ShuffleFabric&) = delete;
  ShuffleFabric& operator=(const ShuffleFabric&) = delete;

  // Closes |node|'s endpoint (kill fault / death declaration). Idempotent.
  void CloseNode(int node);

  // Last reported heap occupancy per node (from heartbeat carriage).
  std::uint64_t HeapUsedBytes(int node) const;

  Transport& transport() { return *transport_; }
  FabricStats stats() const;

 private:
  using AckKey = std::tuple<int, std::int64_t, std::uint32_t, std::uint64_t>;

  // Ledger delivery: queues one kShuffleData message; false = peer gone.
  bool SendDelivery(int target, const core::ShuffleWireId& id, const common::ByteBuffer& bytes);
  // Migration delivery: SendDelivery, then wait up to ack_timeout_ms for
  // the ack.
  core::DeliveryStatus DeliverAndWait(int target, const core::ShuffleWireId& id,
                                      const common::ByteBuffer& bytes);
  void HandleDriverMessage(Message&& msg);
  void HandleNodeMessage(int node, Message&& msg);

  // Emits one end of a traced hop on the recovery context's tracer. Sends
  // from the fabric's driver endpoint use lane num_nodes_ (a synthetic
  // "fabric" lane past the real nodes); receipts use the receiving node.
  // No-op while the job is unstamped (trace id 0) or untraced.
  void EmitFlow(obs::EventKind kind, std::uint16_t lane, const Message& msg, int peer);

  const NetConfig config_;
  core::RecoveryContext* recovery_;
  const int num_nodes_;
  std::unique_ptr<Transport> transport_;

  // Ack correlation for migrations: DeliverAndWait() waits here.
  std::mutex ack_mu_;
  std::condition_variable ack_cv_;
  std::map<AckKey, core::DeliveryStatus> ack_results_;

  // Receiver-side dedup, one set per node endpoint: an entry redelivered
  // after an owner death goes to a *different* node, so per-node keying
  // never drops a legitimate redelivery.
  std::vector<std::set<std::tuple<std::int64_t, std::uint32_t, std::uint64_t>>> seen_;
  std::vector<std::unique_ptr<std::mutex>> seen_mu_;

  std::vector<std::unique_ptr<std::atomic<std::uint64_t>>> heap_used_;

  std::atomic<std::uint64_t> deliveries_sent_{0};
  std::atomic<std::uint64_t> acks_ok_{0};
  std::atomic<std::uint64_t> acks_backpressure_{0};
  std::atomic<std::uint64_t> acks_refused_{0};
  std::atomic<std::uint64_t> ack_timeouts_{0};
  std::atomic<std::uint64_t> dup_payloads_dropped_{0};
  std::atomic<std::uint64_t> heartbeats_sent_{0};
};

}  // namespace itask::net

#endif  // ITASK_NET_SHUFFLE_FABRIC_H_
