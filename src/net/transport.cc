#include "net/transport.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/backoff.h"
#include "common/env.h"
#include "common/logging.h"
#include "net/fault_engine.h"
#include "net/frame_socket.h"

namespace itask::net {

std::optional<TransportKind> ParseTransportKind(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "inproc") {
    return TransportKind::kInproc;
  }
  if (lower == "tcp") {
    return TransportKind::kTcp;
  }
  if (lower == "uds" || lower == "unix") {
    return TransportKind::kUds;
  }
  return std::nullopt;
}

NetConfig NetConfigFromEnv(NetConfig base) {
  const std::string kind = common::EnvString("ITASK_NET_TRANSPORT", TransportKindName(base.kind));
  if (const auto parsed = ParseTransportKind(kind)) {
    base.kind = *parsed;
  } else {
    LOG_WARN() << "env: ignoring ITASK_NET_TRANSPORT=\"" << kind
               << "\" (want inproc|tcp|uds); using " << TransportKindName(base.kind);
  }
  // Clamp to >= 1: a zero coalescing ceiling would admit no message into any
  // batch and spin the sender on empty frames while producers block forever.
  base.batch_bytes = std::max<std::size_t>(
      1, static_cast<std::size_t>(common::EnvU64("ITASK_NET_BATCH_BYTES", base.batch_bytes)));
  base.queue_cap = std::max<std::size_t>(
      1, static_cast<std::size_t>(common::EnvU64("ITASK_NET_QUEUE_CAP", base.queue_cap)));
  base.ack_timeout_ms =
      std::max(1, common::EnvInt("ITASK_NET_ACK_TIMEOUT_MS", base.ack_timeout_ms));
  base.flush_us = std::max(1, common::EnvInt("ITASK_NET_FLUSH_US", base.flush_us));
  base.port = common::EnvInt("ITASK_NET_PORT", base.port);
  base.bind_host = common::EnvString("ITASK_NET_BIND_HOST", base.bind_host);
  base.connect_timeout_ms =
      std::max(1, common::EnvInt("ITASK_NET_CONNECT_TIMEOUT_MS", base.connect_timeout_ms));
  const std::string fault_spec = common::EnvString("ITASK_NET_FAULT_SPEC", "");
  if (!fault_spec.empty()) {
    std::string err;
    if (!NetFaultPlan::FromSpec(fault_spec, &base.fault_plan, &err)) {
      LOG_WARN() << "env: ignoring ITASK_NET_FAULT_SPEC: " << err;
    }
  } else if (const std::uint64_t fault_seed =
                 common::EnvU64("ITASK_NET_FAULT_SEED", 0)) {
    base.fault_plan = NetFaultPlan::FromSeed(fault_seed);
  }
  return base;
}

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Shared counter block. All fields relaxed — they are statistics, not fences.
struct StatCounters {
  std::atomic<std::uint64_t> msgs_sent{0};
  std::atomic<std::uint64_t> msgs_received{0};
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  std::atomic<std::uint64_t> flushes{0};
  std::atomic<std::uint64_t> send_stalls{0};
  std::atomic<std::uint64_t> stall_ns{0};
  std::atomic<std::uint64_t> send_retries{0};
  std::atomic<std::uint64_t> heartbeats_dropped{0};
  std::atomic<std::uint64_t> peer_gone_drops{0};
  std::atomic<std::uint64_t> checksum_failures{0};

  TransportStats Snapshot(const obs::Histogram& depth_hist) const {
    TransportStats s;
    s.msgs_sent = msgs_sent.load(std::memory_order_relaxed);
    s.msgs_received = msgs_received.load(std::memory_order_relaxed);
    s.frames_sent = frames_sent.load(std::memory_order_relaxed);
    s.frames_received = frames_received.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent.load(std::memory_order_relaxed);
    s.bytes_received = bytes_received.load(std::memory_order_relaxed);
    s.flushes = flushes.load(std::memory_order_relaxed);
    s.send_stalls = send_stalls.load(std::memory_order_relaxed);
    s.stall_ns = stall_ns.load(std::memory_order_relaxed);
    s.send_retries = send_retries.load(std::memory_order_relaxed);
    s.heartbeats_dropped = heartbeats_dropped.load(std::memory_order_relaxed);
    s.peer_gone_drops = peer_gone_drops.load(std::memory_order_relaxed);
    s.checksum_failures = checksum_failures.load(std::memory_order_relaxed);
    s.queue_depth_hist = depth_hist.snapshot();
    return s;
  }
};

// ---------------------------------------------------------------------------
// Inproc: direct dispatch. Deterministic, synchronous, no threads of its own.
// ---------------------------------------------------------------------------

class InprocTransport final : public Transport {
 public:
  InprocTransport() : depth_hist_(QueueDepthBounds()) {}

  void RegisterEndpoint(int endpoint, Handler handler) override {
    std::lock_guard<std::mutex> lock(mu_);
    endpoints_[endpoint] = std::move(handler);
  }

  bool Send(Message msg) override {
    Handler handler;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = endpoints_.find(msg.dst);
      if (it == endpoints_.end() || !it->second) {
        counters_.peer_gone_drops.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      handler = it->second;  // Copy so CloseEndpoint can't race the call.
    }
    counters_.msgs_sent.fetch_add(1, std::memory_order_relaxed);
    counters_.msgs_received.fetch_add(1, std::memory_order_relaxed);
    depth_hist_.Observe(0);  // Dispatch is immediate; the queue never forms.
    handler(std::move(msg));
    return true;
  }

  void Flush() override {}

  void CloseEndpoint(int endpoint) override {
    std::lock_guard<std::mutex> lock(mu_);
    endpoints_.erase(endpoint);
  }

  TransportStats Stats() const override { return counters_.Snapshot(depth_hist_); }
  TransportKind kind() const override { return TransportKind::kInproc; }
  void SetEventSink(EventSink sink) override {
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = std::move(sink);
  }

 private:
  mutable std::mutex mu_;
  std::map<int, Handler> endpoints_;
  EventSink sink_;
  StatCounters counters_;
  obs::Histogram depth_hist_;
};

// ---------------------------------------------------------------------------
// TCP / UDS: one listener + receiver thread per endpoint, one sender thread
// per (live) destination with a bounded queue.
// ---------------------------------------------------------------------------

std::atomic<std::uint64_t> g_transport_serial{0};

class SocketTransport final : public Transport {
 public:
  explicit SocketTransport(const NetConfig& config)
      : config_(config),
        serial_(g_transport_serial.fetch_add(1) + 1),
        depth_hist_(QueueDepthBounds()),
        send_retry_policy_(common::BackoffPolicy::FromEnv(
            "ITASK_NET_SEND_RETRY",
            common::BackoffPolicy{/*base_ms=*/1.0, /*cap_ms=*/128.0,
                                  /*multiplier=*/2.0, /*jitter=*/0.25,
                                  /*max_attempts=*/-1, /*deadline_ms=*/0.0})) {
    if (config_.fault_plan.active()) {
      faults_ = std::make_unique<NetFaultEngine>(config_.fault_plan);
    }
  }

  ~SocketTransport() override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    std::vector<int> eps;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [ep, _] : receivers_) {
        eps.push_back(ep);
      }
    }
    for (int ep : eps) {
      CloseEndpoint(ep);
    }
    // Stop senders after receivers: no new inbound work can enqueue replies.
    std::vector<std::shared_ptr<SendQueue>> queues;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [_, q] : senders_) {
        queues.push_back(std::move(q));
      }
      senders_.clear();
    }
    for (auto& q : queues) {
      StopSender(*q);
    }
  }

  void RegisterEndpoint(int endpoint, Handler handler) override {
    auto rx = std::make_unique<Receiver>();
    rx->endpoint = endpoint;
    rx->handler = std::move(handler);
    rx->listen_fd = OpenListener(endpoint, &rx->port, &rx->uds_path);
    if (rx->listen_fd < 0) {
      throw std::runtime_error("net: failed to open listener for endpoint " +
                               std::to_string(endpoint));
    }
    Receiver* raw = rx.get();
    rx->thread = std::thread([this, raw] { ReceiveLoop(raw); });
    std::lock_guard<std::mutex> lock(mu_);
    receivers_[endpoint] = std::move(rx);
  }

  bool Send(Message msg) override {
    const int dst = msg.dst;
    std::shared_ptr<SendQueue> q;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutdown_ || closed_.count(dst) != 0 || receivers_.find(dst) == receivers_.end()) {
        counters_.peer_gone_drops.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
      auto it = senders_.find(dst);
      if (it == senders_.end()) {
        auto sq = std::make_shared<SendQueue>();
        sq->dst = dst;
        SendQueue* raw = sq.get();
        sq->thread = std::thread([this, raw] { SendLoop(raw); });
        it = senders_.emplace(dst, std::move(sq)).first;
      }
      q = it->second;
    }

    std::unique_lock<std::mutex> qlock(q->mu);
    if (q->dead) {
      counters_.peer_gone_drops.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (q->msgs.size() >= config_.queue_cap) {
      if (msg.kind == MsgKind::kHeartbeat) {
        // A probe that has to wait in line is stale by the time it lands;
        // shed it so heartbeating never blocks behind bulk shuffle data.
        counters_.heartbeats_dropped.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
      const std::uint64_t t0 = NowNs();
      counters_.send_stalls.fetch_add(1, std::memory_order_relaxed);
      q->not_full.wait(qlock, [this, raw = q.get()] {
        return raw->dead || raw->msgs.size() < config_.queue_cap;
      });
      const std::uint64_t stalled = NowNs() - t0;
      counters_.stall_ns.fetch_add(stalled, std::memory_order_relaxed);
      EmitEvent(dst, obs::EventKind::kNetStall, stalled, q->msgs.size());
      if (q->dead) {
        counters_.peer_gone_drops.fetch_add(1, std::memory_order_relaxed);
        return false;
      }
    }
    depth_hist_.Observe(q->msgs.size());
    q->msgs.push_back(std::move(msg));
    counters_.msgs_sent.fetch_add(1, std::memory_order_relaxed);
    q->not_empty.notify_one();
    return true;
  }

  void Flush() override {
    std::vector<std::shared_ptr<SendQueue>> queues;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (auto& [_, q] : senders_) {
        queues.push_back(q);
      }
    }
    for (const auto& q : queues) {
      std::unique_lock<std::mutex> qlock(q->mu);
      q->drained.wait(qlock,
                      [raw = q.get()] { return raw->dead || (raw->msgs.empty() && !raw->sending); });
    }
  }

  void CloseEndpoint(int endpoint) override {
    std::unique_ptr<Receiver> rx;
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_.insert(endpoint);
      auto it = receivers_.find(endpoint);
      if (it != receivers_.end()) {
        rx = std::move(it->second);
        receivers_.erase(it);
      }
    }
    if (rx) {
      rx->stop.store(true, std::memory_order_release);
      if (rx->thread.joinable()) {
        rx->thread.join();
      }
      if (rx->listen_fd >= 0) {
        ::close(rx->listen_fd);
      }
      if (!rx->uds_path.empty()) {
        ::unlink(rx->uds_path.c_str());
      }
    }
    // Kill the sender feeding that endpoint so blocked producers unblock.
    std::shared_ptr<SendQueue> sq;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = senders_.find(endpoint);
      if (it != senders_.end()) {
        sq = std::move(it->second);
        senders_.erase(it);
      }
    }
    if (sq) {
      StopSender(*sq);
    }
  }

  TransportStats Stats() const override {
    TransportStats s = counters_.Snapshot(depth_hist_);
    if (faults_) {
      s.faults_injected = faults_->faults_injected();
    }
    return s;
  }
  TransportKind kind() const override { return config_.kind; }
  void SetEventSink(EventSink sink) override {
    std::lock_guard<std::mutex> lock(mu_);
    sink_ = std::move(sink);
  }
  void SetLinkObserver(LinkObserver observer) override {
    if (faults_) {
      faults_->set_link_observer(std::move(observer));
    }
  }

 private:
  struct Receiver {
    int endpoint = 0;
    int listen_fd = -1;
    int port = 0;          // TCP: bound ephemeral port.
    std::string uds_path;  // UDS: bound socket path.
    Handler handler;
    std::thread thread;
    std::atomic<bool> stop{false};
  };

  struct SendQueue {
    int dst = 0;
    std::mutex mu;
    std::condition_variable not_empty;
    std::condition_variable not_full;
    std::condition_variable drained;
    std::deque<Message> msgs;
    bool sending = false;  // Sender thread is mid-batch (for Flush).
    bool dead = false;     // Connection gone or shutting down.
    std::thread thread;
  };

  void EmitEvent(int endpoint, obs::EventKind kind, std::uint64_t a, std::uint64_t b) {
    EventSink sink;
    {
      std::lock_guard<std::mutex> lock(mu_);
      sink = sink_;
    }
    if (sink) {
      sink(endpoint, kind, a, b);
    }
  }

  // Resolves config_.bind_host (IPv4 dotted quad) in network byte order;
  // falls back to loopback, loudly, on a host the parser rejects.
  in_addr_t BindAddr() const {
    in_addr parsed{};
    if (::inet_pton(AF_INET, config_.bind_host.c_str(), &parsed) == 1) {
      return parsed.s_addr;
    }
    LOG_WARN() << "net: bad bind host \"" << config_.bind_host
               << "\"; using loopback";
    return htonl(INADDR_LOOPBACK);
  }

  std::string UdsPath(int endpoint) const {
    return "/tmp/itask-net-" + std::to_string(::getpid()) + "-" + std::to_string(serial_) +
           "-" + std::to_string(endpoint + 1) + ".sock";
  }

  int OpenListener(int endpoint, int* port, std::string* uds_path) {
    if (config_.kind == TransportKind::kUds) {
      const std::string path = UdsPath(endpoint);
      ::unlink(path.c_str());
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) {
        return -1;
      }
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      if (path.size() >= sizeof(addr.sun_path)) {
        ::close(fd);
        return -1;
      }
      std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
      if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
          ::listen(fd, 64) != 0) {
        ::close(fd);
        return -1;
      }
      *uds_path = path;
      return fd;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = BindAddr();
    // With a configured base port, endpoints bind base+index; otherwise the
    // kernel hands out ephemeral ports (collision-free across tenants).
    addr.sin_port =
        htons(config_.port == 0
                  ? 0
                  : static_cast<std::uint16_t>(config_.port + endpoint + 1));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0) {
      ::close(fd);
      return -1;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      ::close(fd);
      return -1;
    }
    *port = ntohs(bound.sin_port);
    return fd;
  }

  int ConnectTo(int endpoint) {
    int port = 0;
    std::string uds_path;
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = receivers_.find(endpoint);
      if (it == receivers_.end()) {
        return -1;
      }
      port = it->second->port;
      uds_path = it->second->uds_path;
    }
    if (config_.kind == TransportKind::kUds) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (fd < 0) {
        return -1;
      }
      sockaddr_un addr{};
      addr.sun_family = AF_UNIX;
      std::strncpy(addr.sun_path, uds_path.c_str(), sizeof(addr.sun_path) - 1);
      if (!ConnectWithTimeout(fd, &addr, sizeof(addr), config_.connect_timeout_ms)) {
        ::close(fd);
        return -1;
      }
      return fd;
    }
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      return -1;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = BindAddr();
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (!ConnectWithTimeout(fd, &addr, sizeof(addr), config_.connect_timeout_ms)) {
      ::close(fd);
      return -1;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return fd;
  }

  void StopSender(SendQueue& q) {
    {
      std::lock_guard<std::mutex> qlock(q.mu);
      q.dead = true;
      q.not_empty.notify_all();
      q.not_full.notify_all();
      q.drained.notify_all();
    }
    if (q.thread.joinable()) {
      q.thread.join();
    }
  }

  // True when |endpoint| can no longer receive: explicitly closed,
  // unregistered, or the transport is shutting down.
  bool EndpointGone(int endpoint) {
    std::lock_guard<std::mutex> lock(mu_);
    return shutdown_ || closed_.count(endpoint) != 0 ||
           receivers_.find(endpoint) == receivers_.end();
  }

  // Writes |wire| (a pre-framed image) and updates the frame counters.
  bool SendWire(FrameSocket& conn, SendQueue* q, const std::vector<std::uint8_t>& wire,
                std::size_t batch_msgs) {
    if (!conn.SendRaw(wire.data(), wire.size())) {
      return false;
    }
    counters_.frames_sent.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_sent.fetch_add(wire.size(), std::memory_order_relaxed);
    counters_.flushes.fetch_add(1, std::memory_order_relaxed);
    EmitEvent(q->dst, obs::EventKind::kNetFlush, batch_msgs, wire.size());
    return true;
  }

  // Sender thread: drain the queue into batches of <= batch_bytes, one
  // checksummed frame per batch. A failed connect/send to a still-registered
  // endpoint is transient — the receiver sheds connections on corrupt frames
  // and expects the sender to re-establish them — so the batch is requeued
  // and retried after a capped backoff. Only an endpoint that is actually
  // closed (or transport shutdown) kills the queue: Send() returning false
  // is treated as peer-gone by the shuffle fabric, and a false peer-gone for
  // a live node would silently lose committed shuffle data. The fault engine
  // honors the same contract: every injected fault lands either here (silent
  // loss, recovered by the ledger's ack-timeout redelivery) or on the requeue
  // path below — never as a fabricated peer-gone.
  void SendLoop(SendQueue* q) {
    FrameSocket conn;
    std::optional<common::Backoff> retry;
    // Reorder injection parks one wire frame here; it goes out after its
    // successor, or on the next idle tick if no successor shows up.
    std::vector<std::uint8_t> held;
    for (;;) {
      std::vector<Message> batch;
      {
        std::unique_lock<std::mutex> qlock(q->mu);
        if (held.empty()) {
          q->not_empty.wait(qlock, [q] { return q->dead || !q->msgs.empty(); });
        } else {
          q->not_empty.wait_for(qlock, std::chrono::microseconds(config_.flush_us),
                                [q] { return q->dead || !q->msgs.empty(); });
        }
        if (q->dead && q->msgs.empty()) {
          return;
        }
        std::size_t batch_bytes = 0;
        // Always admit at least one message so a tiny batch_bytes ceiling
        // cannot starve the queue into an empty-frame spin.
        while (!q->msgs.empty() &&
               (batch.empty() || batch_bytes < config_.batch_bytes)) {
          batch_bytes += q->msgs.front().payload.size() + 64;
          batch.push_back(std::move(q->msgs.front()));
          q->msgs.pop_front();
        }
        q->sending = true;
        q->not_full.notify_all();
      }

      // Partition black-hole: drop blocked messages on the floor, silently.
      // The sender "succeeds" — only heartbeat silence and ledger ack
      // timeouts reveal the hole, exactly like a real partition.
      if (faults_ && !batch.empty()) {
        std::vector<Message> kept;
        kept.reserve(batch.size());
        for (Message& m : batch) {
          if (faults_->MessageBlocked(m.src, q->dst)) {
            EmitEvent(q->dst, obs::EventKind::kNetFaultInjected,
                      static_cast<std::uint64_t>(NetFaultKind::kPartitionDrop),
                      m.payload.size());
          } else {
            kept.push_back(std::move(m));
          }
        }
        batch = std::move(kept);
      }

      if (!conn.valid()) {
        const int fd = ConnectTo(q->dst);
        if (fd >= 0) {
          conn = FrameSocket(fd);
        }
      }
      bool ok = conn.valid();
      bool parked_this_round = false;
      if (ok && !batch.empty()) {
        common::ByteBuffer payload;
        for (const Message& m : batch) {
          EncodeMessage(m, &payload);
        }
        NetFaultEngine::Decision d;
        if (faults_) {
          d = faults_->Apply(q->dst, payload.size());
          if (d.any()) {
            EmitEvent(q->dst, obs::EventKind::kNetFaultInjected, d.serial,
                      static_cast<std::uint64_t>(d.faults));
          }
          if (d.delay_ms > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(d.delay_ms));
          }
        }
        if (d.reset) {
          // Connection torn down before the write: the batch requeues below
          // and the reconnect path retries it.
          conn.Close();
          ok = false;
        } else if (d.drop) {
          // Silent loss: the sender believes it sent. Ledger recovers.
          ok = true;
        } else if (!faults_) {
          const std::uint64_t before = conn.wire_bytes_sent();
          ok = conn.SendFrame(payload);
          if (ok) {
            const std::uint64_t frame_bytes = conn.wire_bytes_sent() - before;
            counters_.frames_sent.fetch_add(1, std::memory_order_relaxed);
            counters_.bytes_sent.fetch_add(frame_bytes, std::memory_order_relaxed);
            counters_.flushes.fetch_add(1, std::memory_order_relaxed);
            EmitEvent(q->dst, obs::EventKind::kNetFlush, batch.size(), frame_bytes);
          }
        } else {
          std::vector<std::uint8_t> wire;
          if (!FrameSocket::EncodeWire(payload, &wire)) {
            ok = false;
          } else if (d.truncate && wire.size() > 1) {
            // Partial write then sever: the receiver holds an incomplete
            // frame, sees EOF, and discards it; the batch requeues below.
            const std::size_t prefix = 1 + d.draw % (wire.size() - 1);
            conn.SendRaw(wire.data(), prefix);
            conn.Close();
            ok = false;
          } else {
            if (d.corrupt && wire.size() > 4) {
              // Post-framing bit flip (past the length prefix): the frame
              // checksum catches it at the receiver, which sheds the
              // connection — injected corruption can cost delivery, never
              // payload integrity.
              wire[4 + d.draw % (wire.size() - 4)] ^= 0x20;
            }
            if (d.reorder && held.empty()) {
              held = std::move(wire);
              parked_this_round = true;
              ok = true;
            } else {
              ok = SendWire(conn, q, wire, batch.size());
              if (ok && d.duplicate) {
                // Second copy of the same frame: receiver-side (node, split,
                // epoch, seq) dedup must absorb it. A failed dup write only
                // breaks the connection — the original already landed.
                if (!conn.SendRaw(wire.data(), wire.size())) {
                  conn.Close();
                }
              }
            }
          }
        }
      }
      // Release any parked frame once its successor went out (or on an idle
      // tick with nothing else to send). A failure here is silent loss of an
      // already-acknowledged-to-producer frame — the ledger recovers it.
      if (ok && !held.empty() && !parked_this_round && conn.valid()) {
        if (!conn.SendRaw(held.data(), held.size())) {
          conn.Close();
        }
        held.clear();
      }

      if (!ok) {
        conn.Close();
        // mu_ before q->mu would invert Send()'s q->mu -> mu_ (EmitEvent)
        // order, so check liveness first, unlocked.
        const bool gone = EndpointGone(q->dst);
        std::unique_lock<std::mutex> qlock(q->mu);
        q->sending = false;
        if (gone || q->dead) {
          // Peer really gone: everything queued for it is undeliverable.
          // Mark dead so producers get peer-gone instead of blocking
          // forever; the ledger's retry/redelivery machinery owns recovery.
          counters_.peer_gone_drops.fetch_add(batch.size() + q->msgs.size(),
                                              std::memory_order_relaxed);
          q->msgs.clear();
          q->dead = true;
          q->not_full.notify_all();
          q->not_empty.notify_all();
          q->drained.notify_all();
          return;
        }
        // Still registered: requeue the batch in order and reconnect after a
        // jittered capped backoff (cut short if the queue is stopped). The
        // policy is unlimited — only real endpoint closure ends the loop.
        counters_.send_retries.fetch_add(1, std::memory_order_relaxed);
        for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
          q->msgs.push_front(std::move(*it));
        }
        if (!retry) {
          retry.emplace(common::BackoffUse::kSendRetry, send_retry_policy_,
                        static_cast<std::uint64_t>(q->dst + 2));
        }
        double delay_ms = 1.0;
        retry->Next(&delay_ms);
        q->not_empty.wait_for(qlock,
                              std::chrono::duration<double, std::milli>(delay_ms),
                              [q] { return q->dead; });
        continue;
      }
      retry.reset();

      std::unique_lock<std::mutex> qlock(q->mu);
      q->sending = false;
      if (q->msgs.empty()) {
        q->drained.notify_all();
      }
    }
  }

  // Receiver thread: accept + poll every connection, feed FrameReaders,
  // dispatch decoded messages to the endpoint handler.
  void ReceiveLoop(Receiver* rx) {
    struct Conn {
      int fd;
      FrameReader reader;
    };
    std::vector<Conn> conns;
    std::uint8_t chunk[64 * 1024];
    while (!rx->stop.load(std::memory_order_acquire)) {
      std::vector<pollfd> fds;
      fds.push_back({rx->listen_fd, POLLIN, 0});
      for (const Conn& c : conns) {
        fds.push_back({c.fd, POLLIN, 0});
      }
      const int n = ::poll(fds.data(), fds.size(), /*timeout_ms=*/10);
      if (n <= 0) {
        continue;
      }
      // Only walk connections that have a pollfd from this round: a
      // connection accepted below lands past |polled| and is picked up on
      // the next poll (indexing it against the pre-accept fds would read
      // one past the end).
      std::size_t polled = conns.size();
      if (fds[0].revents & POLLIN) {
        const int fd = ::accept(rx->listen_fd, nullptr, nullptr);
        if (fd >= 0) {
          conns.push_back(Conn{fd, FrameReader{}});
        }
      }
      for (std::size_t i = 0; i < polled;) {
        const short revents = fds[i + 1].revents;
        bool drop = false;
        if (revents & (POLLIN | POLLHUP | POLLERR)) {
          const ssize_t r = ::recv(conns[i].fd, chunk, sizeof(chunk), 0);
          if (r <= 0) {
            drop = !(r < 0 && errno == EINTR);
          } else {
            counters_.bytes_received.fetch_add(static_cast<std::uint64_t>(r),
                                               std::memory_order_relaxed);
            conns[i].reader.Feed(chunk, static_cast<std::size_t>(r));
            try {
              common::ByteBuffer frame;
              while (conns[i].reader.Next(&frame)) {
                counters_.frames_received.fetch_add(1, std::memory_order_relaxed);
                frame.ResetCursor();
                while (!frame.AtEnd()) {
                  Message msg = DecodeMessage(&frame);
                  counters_.msgs_received.fetch_add(1, std::memory_order_relaxed);
                  rx->handler(std::move(msg));
                }
                frame.Clear();
              }
            } catch (const std::exception& e) {
              // Corrupt frame: the stream is unrecoverable — drop the
              // connection and let sender-side retries re-establish it.
              counters_.checksum_failures.fetch_add(1, std::memory_order_relaxed);
              LOG_WARN() << "net: dropping connection to endpoint " << rx->endpoint
                         << " on corrupt frame: " << e.what();
              drop = true;
            }
          }
        }
        if (drop) {
          ::close(conns[i].fd);
          conns.erase(conns.begin() + static_cast<std::ptrdiff_t>(i));
          fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i) + 1);
          --polled;
        } else {
          ++i;
        }
      }
    }
    for (const Conn& c : conns) {
      ::close(c.fd);
    }
  }

  const NetConfig config_;
  const std::uint64_t serial_;
  std::unique_ptr<NetFaultEngine> faults_;  // Null when the plan is inactive.
  mutable std::mutex mu_;
  std::map<int, std::unique_ptr<Receiver>> receivers_;
  std::map<int, std::shared_ptr<SendQueue>> senders_;
  std::set<int> closed_;
  bool shutdown_ = false;
  EventSink sink_;
  StatCounters counters_;
  obs::Histogram depth_hist_;
  common::BackoffPolicy send_retry_policy_;
};

}  // namespace

std::unique_ptr<Transport> MakeTransport(const NetConfig& config) {
  if (config.kind == TransportKind::kInproc) {
    return std::make_unique<InprocTransport>();
  }
  return std::make_unique<SocketTransport>(config);
}

}  // namespace itask::net
