// Transport: how shuffle payloads, acks, heartbeats and control messages
// move between nodes (DESIGN.md §13).
//
// The interface is endpoint-addressed: every participant (node 0..N-1, plus
// the driver/coordinator as kDriverEndpoint) registers a handler, and Send()
// routes a Message to the destination endpoint's handler. Two backends:
//
//  - inproc: synchronous direct dispatch through a handler table. Zero copies
//    beyond the Message itself, fully deterministic — the fast test path and
//    the default, matching the pre-net in-memory behavior.
//  - tcp/uds: every endpoint owns a loopback listening socket (TCP ephemeral
//    port or Unix-domain socket), a receiver thread (poll() across accepted
//    connections, incremental FrameReader per connection), and per-
//    destination sender threads with bounded queues. Senders coalesce queued
//    messages into batches of up to batch_bytes, wrap each batch in one
//    checksummed io::FrameCodec frame, and write it length-prefixed. A full
//    queue blocks the producer (backpressure) and counts a send stall;
//    heartbeats are dropped instead of blocking, like any sane failure
//    detector's probes.
//
// Delivery semantics match what core::RecoveryContext already assumes: the
// channel may drop (peer gone), duplicate (sender retry after a lost ack),
// and delay. Exactly-once is the ShuffleLedger's job, not the transport's.
#ifndef ITASK_NET_TRANSPORT_H_
#define ITASK_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "net/fault_engine.h"
#include "net/message.h"
#include "obs/event.h"
#include "obs/histogram.h"

namespace itask::net {

enum class TransportKind : std::uint8_t {
  kInproc = 0,  // Direct in-process dispatch (deterministic, default).
  kTcp,         // Loopback TCP, ephemeral ports.
  kUds,         // Unix-domain stream sockets under the temp dir.
};

constexpr const char* TransportKindName(TransportKind k) {
  switch (k) {
    case TransportKind::kInproc: return "inproc";
    case TransportKind::kTcp: return "tcp";
    case TransportKind::kUds: return "uds";
  }
  return "unknown";
}

std::optional<TransportKind> ParseTransportKind(std::string_view name);

struct NetConfig {
  TransportKind kind = TransportKind::kInproc;
  std::size_t batch_bytes = 64 * 1024;  // Sender coalescing ceiling per frame (>= 1).
  std::size_t queue_cap = 128;          // Per-destination send queue (messages).
  int ack_timeout_ms = 250;             // Fabric-level shuffle ack wait.
  int flush_us = 200;                   // Sender wait granularity when idle.
  int port = 0;                         // TCP base port; 0 = ephemeral.
  // TCP bind/connect host for cross-host operation; loopback by default.
  std::string bind_host = "127.0.0.1";
  // Ceiling on one dial attempt: a black-holed SYN costs this much, not
  // forever (non-blocking connect + poll; see ConnectWithTimeout).
  int connect_timeout_ms = 1000;
  // Seeded sender-side fault plan (drop/delay/reorder/dup/corrupt/truncate/
  // reset + timed partitions). Inactive by default; see net/fault_engine.h.
  NetFaultPlan fault_plan;
};

// Reads the ITASK_NET_* knob family (strict parsing via common/env.h):
//   ITASK_NET_TRANSPORT   inproc|tcp|uds
//   ITASK_NET_BATCH_BYTES ITASK_NET_QUEUE_CAP ITASK_NET_ACK_TIMEOUT_MS
//   ITASK_NET_FLUSH_US    ITASK_NET_PORT
//   ITASK_NET_BIND_HOST   ITASK_NET_CONNECT_TIMEOUT_MS
//   ITASK_NET_FAULT_SPEC  (NetFaultPlan spec string; see net/fault_engine.h)
//   ITASK_NET_FAULT_SEED  (derive a plan from a bare seed; 0 = off)
NetConfig NetConfigFromEnv(NetConfig base = NetConfig{});

// Mechanical counters; semantic counters (dup payloads dropped, redeliveries)
// belong to the shuffle fabric / ledger on top.
struct TransportStats {
  std::uint64_t msgs_sent = 0;
  std::uint64_t msgs_received = 0;
  std::uint64_t frames_sent = 0;      // One frame per coalesced batch.
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_sent = 0;       // Wire bytes including prefixes/headers.
  std::uint64_t bytes_received = 0;
  std::uint64_t flushes = 0;          // Sender batch writes.
  std::uint64_t send_stalls = 0;      // Producer blocked on a full queue.
  std::uint64_t stall_ns = 0;         // Total time producers spent blocked.
  std::uint64_t send_retries = 0;     // Failed batches requeued for reconnect.
  std::uint64_t heartbeats_dropped = 0;  // Probes shed instead of blocking.
  std::uint64_t peer_gone_drops = 0;  // Sends to closed/unknown endpoints.
  std::uint64_t checksum_failures = 0;  // Corrupt frames (connection dropped).
  std::uint64_t faults_injected = 0;  // Fault-engine decisions that fired.
  obs::HistogramSnapshot queue_depth_hist;  // Depth observed at each enqueue.
};

// Send-queue-depth bucket ladder (messages).
inline std::vector<std::uint64_t> QueueDepthBounds() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512};
}

class Transport {
 public:
  using Handler = std::function<void(Message&&)>;
  // Observability hook: (endpoint, kind, a, b) — kNetFlush a=frames b=bytes,
  // kNetStall a=stall_ns b=queue_depth. Called from transport threads.
  using EventSink = std::function<void(int, obs::EventKind, std::uint64_t, std::uint64_t)>;

  virtual ~Transport() = default;

  // Installs |handler| for |endpoint| and starts receiving. Handlers run on
  // transport threads (inproc: the sender's thread) and may call Send() —
  // per-destination queues decouple the two directions.
  virtual void RegisterEndpoint(int endpoint, Handler handler) = 0;

  // Routes |msg| (by msg.dst). Returns false only when the destination
  // endpoint is closed or was never registered — the caller treats that as
  // peer-gone, mirroring the in-memory path's silent drop into a fenced
  // runtime. Transient connect/send failures to a live endpoint are retried
  // internally (requeue + reconnect with capped backoff), never surfaced as
  // peer-gone: a false return must imply the endpoint is really gone, or the
  // ledger would mark undelivered shuffle data as delivered.
  // May block on a full send queue (backpressure), except heartbeats, which
  // are dropped instead.
  virtual bool Send(Message msg) = 0;

  // Blocks until every queued message has been handed to the OS (tcp) or
  // dispatched (inproc: no-op — dispatch is synchronous).
  virtual void Flush() = 0;

  // Stops delivery to |endpoint|; subsequent Sends to it return false.
  virtual void CloseEndpoint(int endpoint) = 0;

  virtual TransportStats Stats() const = 0;
  virtual TransportKind kind() const = 0;

  virtual void SetEventSink(EventSink sink) = 0;

  // Partition-edge hook: fired with (node, blocked) when the fault plan opens
  // or heals a partition window impairing |node|. Lets the membership layer
  // enter/leave kDisconnected without waiting out heartbeat silence. Default
  // no-op — only fault-injecting backends report link state.
  using LinkObserver = std::function<void(int, bool)>;
  virtual void SetLinkObserver(LinkObserver observer) { (void)observer; }
};

std::unique_ptr<Transport> MakeTransport(const NetConfig& config);

}  // namespace itask::net

#endif  // ITASK_NET_TRANSPORT_H_
