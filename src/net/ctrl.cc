#include "net/ctrl.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "net/metrics_wire.h"
#include "obs/span.h"

namespace itask::net {

namespace {

// Session-resume dial ladder: 25 ms doubling to 1 s, at most 20 attempts
// within 15 s.
constexpr common::BackoffPolicy kCtrlReconnectPolicy{
    /*base_ms=*/25.0, /*cap_ms=*/1000.0, /*multiplier=*/2.0, /*jitter=*/0.25,
    /*max_attempts=*/20, /*deadline_ms=*/15000.0};
// Telemetry shipping cadence on the heartbeat thread.
constexpr int kMetricsShipMs = 250;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool SendMessageFrame(FrameSocket& sock, const Message& msg) {
  common::ByteBuffer wire;
  EncodeMessage(msg, &wire);
  return sock.SendFrame(wire);
}

bool RecvMessageFrame(FrameSocket& sock, Message* out) {
  common::ByteBuffer frame;
  if (!sock.RecvFrame(&frame)) {
    return false;
  }
  frame.ResetCursor();
  *out = DecodeMessage(&frame);
  return true;
}

// One end of a control-plane hop. Unstamped messages (span == 0: heartbeats,
// metrics ships, everything from a build that didn't trace) emit nothing, so
// the trace only carries hops somebody asked to follow.
void EmitFlow(obs::Tracer* tracer, obs::EventKind kind, std::uint16_t lane,
              const Message& msg, int peer) {
  if (tracer == nullptr || msg.span == 0) {
    return;
  }
  tracer->Emit(kind, lane, msg.span, msg.payload.size(),
               obs::FlowAux(peer, static_cast<std::uint8_t>(msg.kind)));
}

}  // namespace

// ---------------------------------------------------------------------------
// CtrlServer
// ---------------------------------------------------------------------------

CtrlServer::CtrlServer(int port, const std::string& bind_host) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("ctrl: socket() failed");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, bind_host.c_str(), &addr.sin_addr) != 1) {
    LOG_WARN() << "ctrl: bad bind host '" << bind_host
               << "'; binding loopback";
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("ctrl: bind/listen failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

CtrlServer::~CtrlServer() { Shutdown(); }

void CtrlServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int n = ::poll(&pfd, 1, /*timeout_ms=*/50);
    if (n <= 0 || !(pfd.revents & POLLIN)) {
      continue;
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // Bound the join handshake so a silent connection can't wedge the
    // accept loop (and with it, Shutdown).
    timeval join_timeout{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &join_timeout, sizeof(join_timeout));
    auto sock = std::make_unique<FrameSocket>(fd);
    Message join;
    try {
      if (!RecvMessageFrame(*sock, &join) || join.kind != MsgKind::kJoin) {
        continue;  // Not a daemon; drop the connection.
      }
    } catch (const std::exception& e) {
      LOG_WARN() << "ctrl: rejecting connection on corrupt join: " << e.what();
      continue;
    }
    timeval no_timeout{0, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &no_timeout, sizeof(no_timeout));

    if (join.b > 0) {
      // Session resume: the daemon claims its previous id instead of asking
      // for a new slot, so a transient ctrl cut never inflates the cluster.
      ResumePeer(join, std::move(sock));
      continue;
    }

    auto peer = std::make_unique<Peer>();
    Peer* raw = peer.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      peer->info.id = static_cast<int>(peers_.size());
      peer->info.name = join.text;
      peer->info.heap_capacity = join.a;
      peer->info.last_beat_ns = NowNs();
      peer->info.connected = true;
      peer->sock = std::move(sock);
      peer->write_mu = std::make_unique<std::mutex>();
      peers_.push_back(std::move(peer));
    }
    Message ack;
    ack.kind = MsgKind::kJoinAck;
    ack.src = kDriverEndpoint;
    ack.dst = raw->info.id;
    ack.a = static_cast<std::uint64_t>(raw->info.id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ack.b = peers_.size();
    }
    // Clock anchor for trace alignment: the daemon subtracts its own steady
    // clock at receipt to learn the server-local offset (DESIGN.md §15.1).
    ack.c = NowNs();
    SendTo(*raw, ack);
    raw->reader = std::thread([this, raw] { ReadLoop(raw); });
    cv_.notify_all();
  }
}

CtrlServer::Peer* CtrlServer::ResumePeer(const Message& join,
                                         std::unique_ptr<FrameSocket> sock) {
  const int id = static_cast<int>(join.b) - 1;
  Peer* peer = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id < 0 || id >= static_cast<int>(peers_.size())) {
      LOG_WARN() << "ctrl: rejecting session resume for unknown node id " << id;
      return nullptr;
    }
    peer = peers_[static_cast<std::size_t>(id)].get();
  }
  // Retire the old connection first: shutting the socket down wakes the old
  // reader, which must be joined before the slot's socket is replaced (and
  // the old descriptor closed with it). This thread is the only writer of
  // peer->sock, so reading it here needs no lock.
  peer->sock->Shutdown();
  if (peer->reader.joinable()) {
    peer->reader.join();
  }
  std::uint64_t down_ns = 0;
  {
    std::lock_guard<std::mutex> wlock(*peer->write_mu);
    std::lock_guard<std::mutex> lock(mu_);
    if (peer->disconnected_at_ns != 0) {
      const std::uint64_t now = NowNs();
      down_ns = now > peer->disconnected_at_ns ? now - peer->disconnected_at_ns : 0;
    }
    peer->sock = std::move(sock);
    peer->info.name = join.text;
    peer->info.heap_capacity = join.a;
    peer->info.last_beat_ns = NowNs();
    peer->info.connected = true;
    peer->disconnected_at_ns = 0;
  }
  ctrl_reconnects_.fetch_add(1, std::memory_order_relaxed);
  LOG_INFO() << "ctrl: node " << id << " resumed its session after "
             << down_ns / 1'000'000 << "ms disconnected";
  Message ack;
  ack.kind = MsgKind::kJoinAck;
  ack.src = kDriverEndpoint;
  ack.dst = id;
  ack.a = static_cast<std::uint64_t>(id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ack.b = peers_.size();
  }
  ack.c = NowNs();
  SendTo(*peer, ack);
  peer->reader = std::thread([this, peer] { ReadLoop(peer); });
  cv_.notify_all();
  return peer;
}

void CtrlServer::DropPeer(int node) {
  // Shutting the socket down makes the reader exit, which marks the peer
  // disconnected; the slot (and its joinable reader handle) stays behind
  // for the daemon's session resume, which also closes the descriptor.
  // peer->sock is read under mu_ because ResumePeer swaps it under mu_.
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= static_cast<int>(peers_.size())) {
    return;
  }
  peers_[static_cast<std::size_t>(node)]->sock->Shutdown();
}

void CtrlServer::ReadLoop(Peer* peer) {
  Message msg;
  for (;;) {
    try {
      if (!RecvMessageFrame(*peer->sock, &msg)) {
        break;
      }
    } catch (const std::exception& e) {
      LOG_WARN() << "ctrl: dropping node " << peer->info.id
                 << " on corrupt frame: " << e.what();
      break;
    }
    std::lock_guard<std::mutex> lock(mu_);
    switch (msg.kind) {
      case MsgKind::kHeartbeat:
        peer->info.heap_used = msg.a;
        peer->info.heap_capacity = msg.b;
        peer->info.last_beat_ns = NowNs();
        break;
      case MsgKind::kResult: {
        // |c| packs (seq << 1) | success; re-shipped results from a session
        // resume re-use their original seq and are dropped here.
        const std::uint64_t seq = msg.c >> 1;
        if (seq < peer->next_result_seq) {
          break;
        }
        peer->next_result_seq = seq + 1;
        EmitFlow(tracer_, obs::EventKind::kMsgRecv,
                 static_cast<std::uint16_t>(peer->info.id), msg, peer->info.id);
        peer->results.push_back(JobResultMsg{msg.a, msg.b, (msg.c & 1) != 0});
        cv_.notify_all();
        break;
      }
      case MsgKind::kMetrics:
        try {
          msg.payload.ResetCursor();
          peer->metrics = DecodeRunMetrics(&msg.payload);
          peer->has_metrics = true;
        } catch (const std::exception& e) {
          LOG_WARN() << "ctrl: ignoring bad metrics snapshot from node "
                     << peer->info.id << ": " << e.what();
        }
        break;
      case MsgKind::kBye:
        peer->info.connected = false;
        peer->disconnected_at_ns = NowNs();
        cv_.notify_all();  // Wake WaitResult/WaitForNodes blocked on this peer.
        return;
      default:
        break;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  peer->info.connected = false;
  peer->disconnected_at_ns = NowNs();
  cv_.notify_all();
}

bool CtrlServer::SendTo(Peer& peer, const Message& msg) {
  std::lock_guard<std::mutex> lock(*peer.write_mu);
  return SendMessageFrame(*peer.sock, msg);
}

bool CtrlServer::WaitForNodes(int n, int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                      [this, n] { return static_cast<int>(peers_.size()) >= n; });
}

int CtrlServer::num_nodes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(peers_.size());
}

CtrlNodeInfo CtrlServer::node(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (id < 0 || id >= static_cast<int>(peers_.size())) {
    return CtrlNodeInfo{};
  }
  return peers_[static_cast<std::size_t>(id)]->info;
}

bool CtrlServer::Dispatch(int node, const std::string& app,
                          const common::ByteBuffer& config, std::uint64_t trace_id) {
  Peer* peer = nullptr;
  std::uint64_t dispatch_seq = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (node < 0 || node >= static_cast<int>(peers_.size()) ||
        !peers_[static_cast<std::size_t>(node)]->info.connected) {
      return false;
    }
    peer = peers_[static_cast<std::size_t>(node)].get();
    dispatch_seq = peer->dispatches++;
  }
  Message msg;
  msg.kind = MsgKind::kDispatch;
  msg.src = kDriverEndpoint;
  msg.dst = node;
  msg.text = app;
  msg.payload = config;
  if (trace_id != 0) {
    msg.trace = trace_id;
    msg.span = obs::SpanId(trace_id, static_cast<std::uint8_t>(MsgKind::kDispatch),
                           kDriverEndpoint, node, /*split=*/-1, /*epoch=*/0,
                           dispatch_seq);
    EmitFlow(tracer_, obs::EventKind::kMsgSend, static_cast<std::uint16_t>(node),
             msg, node);
  }
  return SendTo(*peer, msg);
}

bool CtrlServer::NodeMetrics(int node, common::RunMetrics* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (node < 0 || node >= static_cast<int>(peers_.size()) ||
      !peers_[static_cast<std::size_t>(node)]->has_metrics) {
    return false;
  }
  *out = peers_[static_cast<std::size_t>(node)]->metrics;
  return true;
}

common::RunMetrics CtrlServer::ClusterMetrics(int* nodes_reporting) const {
  std::lock_guard<std::mutex> lock(mu_);
  common::RunMetrics rollup;
  rollup.succeeded = true;  // Identity for the AND in Merge.
  int reporting = 0;
  for (const auto& peer : peers_) {
    if (peer->has_metrics) {
      rollup.Merge(peer->metrics);
      ++reporting;
    }
  }
  if (nodes_reporting != nullptr) {
    *nodes_reporting = reporting;
  }
  if (reporting == 0) {
    rollup.succeeded = false;  // "No data", not "all good".
  }
  return rollup;
}

bool CtrlServer::WaitResult(int node, int timeout_ms, JobResultMsg* out) {
  std::unique_lock<std::mutex> lock(mu_);
  if (node < 0 || node >= static_cast<int>(peers_.size())) {
    return false;
  }
  Peer* peer = peers_[static_cast<std::size_t>(node)].get();
  const bool got = cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [peer] {
    return !peer->results.empty() || !peer->info.connected;
  });
  if (!got || peer->results.empty()) {
    return false;
  }
  *out = peer->results.front();
  peer->results.erase(peer->results.begin());
  return true;
}

void CtrlServer::Shutdown() {
  if (stop_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  // Join the accept loop first so the peer set is final below.
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  std::vector<Peer*> peers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& p : peers_) {
      peers.push_back(p.get());
    }
  }
  Message bye;
  bye.kind = MsgKind::kBye;
  bye.src = kDriverEndpoint;
  for (Peer* p : peers) {
    bool connected = false;
    {
      std::lock_guard<std::mutex> lock(mu_);  // ReadLoop writes it under mu_.
      connected = p->info.connected;
    }
    if (connected) {
      SendTo(*p, bye);
    }
    p->sock->Shutdown();  // Wakes the reader's recv().
    if (p->reader.joinable()) {
      p->reader.join();
    }
    p->sock->Close();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// CtrlClient
// ---------------------------------------------------------------------------

CtrlClient::~CtrlClient() {
  stop_beats_.store(true, std::memory_order_release);
  if (beat_thread_.joinable()) {
    beat_thread_.join();
  }
}

int CtrlClient::Join(const std::string& host, int port, const std::string& name,
                     std::uint64_t heap_capacity) {
  host_ = host;
  port_ = port;
  name_ = name;
  heap_capacity_ = heap_capacity;
  return ConnectAndJoin(/*resume=*/false);
}

int CtrlClient::ConnectAndJoin(bool resume) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  if (!ConnectWithTimeout(fd, &addr, sizeof(addr), kConnectTimeoutMs)) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto sock = std::make_shared<FrameSocket>(fd);

  Message join;
  join.kind = MsgKind::kJoin;
  join.text = name_;
  join.a = heap_capacity_;
  // A resume claims the previous node id so the server re-attaches the
  // existing peer slot instead of growing the cluster.
  join.b = resume ? static_cast<std::uint64_t>(node_id_) + 1 : 0;
  if (!SendMessageFrame(*sock, join)) {
    return -1;
  }
  // Bound the wait for the ack, as the server bounds its wait for the join:
  // once a driver shuts down, its port can be reused by a listener that
  // never answers, and a resume blocked here would wedge ~CtrlClient.
  timeval ack_timeout{kConnectTimeoutMs / 1000, (kConnectTimeoutMs % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &ack_timeout, sizeof(ack_timeout));
  Message ack;
  try {
    if (!RecvMessageFrame(*sock, &ack) || ack.kind != MsgKind::kJoinAck) {
      return -1;
    }
  } catch (const std::exception&) {
    return -1;
  }
  timeval no_timeout{0, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &no_timeout, sizeof(no_timeout));
  const int id = static_cast<int>(ack.a);
  if (resume) {
    // The heartbeat and serve threads read node_id_ and the clock offset
    // without a lock, so a resume only checks them.
    if (id != node_id_) {
      LOG_WARN() << "ctrl: session resume handed back id " << id
                 << " instead of " << node_id_ << "; rejecting";
      return -1;
    }
  } else {
    node_id_ = id;
    // The ack carries the server's steady clock at send time; sampling ours
    // at receipt gives the offset that maps local timestamps onto the
    // driver's timeline (off by about half the join RTT, which loopback
    // makes negligible).
    if (ack.c != 0) {
      clock_offset_ns_ = static_cast<std::int64_t>(ack.c) -
                         static_cast<std::int64_t>(NowNs());
    }
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    sock_ = std::move(sock);
  }
  return node_id_;
}

std::shared_ptr<FrameSocket> CtrlClient::CurrentSock() {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return sock_;
}

bool CtrlClient::EnsureConnected(std::uint64_t failed_gen) {
  std::lock_guard<std::mutex> lock(reconnect_mu_);
  if (conn_gen_.load(std::memory_order_acquire) != failed_gen) {
    // Another thread already resumed past the generation the caller saw
    // fail; its socket is ready to use.
    return CurrentSock() != nullptr;
  }
  if (node_id_ < 0) {
    return false;  // Never joined; there is no session to resume.
  }
  if (auto sock = CurrentSock()) {
    // Wake anything still blocked on the dead socket. Its descriptor closes
    // when the last holder drops the socket, never under a blocked reader.
    sock->Shutdown();
  }
  common::Backoff backoff(common::BackoffUse::kCtrlReconnect, kCtrlReconnectPolicy,
                          static_cast<std::uint64_t>(node_id_) + 2);
  for (;;) {
    if (stop_beats_.load(std::memory_order_acquire)) {
      return false;
    }
    if (ConnectAndJoin(/*resume=*/true) >= 0) {
      break;
    }
    if (!backoff.SleepNext()) {
      LOG_WARN() << "ctrl: node " << node_id_
                 << " gave up resuming its ctrl session after "
                 << backoff.attempts() << " attempts";
      return false;
    }
  }
  // State resync: re-ship recent results (the server dedups by seq), then a
  // fresh heartbeat and metrics snapshot so the driver's view of this node
  // heals immediately instead of waiting a beat interval.
  std::uint64_t reshipped = 0;
  {
    std::lock_guard<std::mutex> rlock(results_mu_);
    for (const Message& r : recent_results_) {
      if (SendMsg(r)) {
        ++reshipped;
      }
    }
  }
  if (stats_fn_) {
    const auto [used, cap] = stats_fn_();
    Message hb;
    hb.kind = MsgKind::kHeartbeat;
    hb.src = node_id_;
    hb.dst = kDriverEndpoint;
    hb.a = used;
    hb.b = cap;
    SendMsg(hb);
  }
  if (metrics_source_) {
    common::RunMetrics snapshot;
    if (metrics_source_(&snapshot)) {
      Message ship;
      ship.kind = MsgKind::kMetrics;
      ship.src = node_id_;
      ship.dst = kDriverEndpoint;
      EncodeRunMetrics(snapshot, &ship.payload);
      SendMsg(ship);
    }
  }
  reconnects_.fetch_add(1, std::memory_order_relaxed);
  conn_gen_.fetch_add(1, std::memory_order_acq_rel);
  if (tracer_ != nullptr) {
    tracer_->Emit(obs::EventKind::kCtrlReconnect, /*node=*/0,
                  static_cast<std::uint64_t>(backoff.attempts()), reshipped,
                  static_cast<std::uint32_t>(node_id_ + 2));
  }
  LOG_INFO() << "ctrl: node " << node_id_ << " resumed its ctrl session ("
             << backoff.attempts() << " dial attempts, " << reshipped
             << " results re-shipped)";
  return true;
}

void CtrlClient::SetMetricsSource(std::function<bool(common::RunMetrics*)> source) {
  metrics_source_ = std::move(source);
}

void CtrlClient::StartHeartbeats(
    int interval_ms, std::function<std::pair<std::uint64_t, std::uint64_t>()> stats) {
  stats_fn_ = stats;  // Also shipped as part of a session-resume resync.
  beat_thread_ = std::thread([this, interval_ms, stats = std::move(stats)] {
    // Telemetry ships ride the heartbeat thread on their own (coarser)
    // cadence, so a dead driver tears down both with one failed send.
    const std::uint64_t ship_interval_ns =
        static_cast<std::uint64_t>(kMetricsShipMs) * 1'000'000;
    std::uint64_t last_ship_ns = 0;
    while (!stop_beats_.load(std::memory_order_acquire)) {
      const std::uint64_t gen = conn_gen_.load(std::memory_order_acquire);
      const auto [used, cap] = stats();
      Message hb;
      hb.kind = MsgKind::kHeartbeat;
      hb.src = node_id_;
      hb.dst = kDriverEndpoint;
      hb.a = used;
      hb.b = cap;
      if (!SendMsg(hb)) {
        // Ctrl socket died: try a session resume before giving up — a
        // transient cut must not silence heartbeats for good.
        if (!EnsureConnected(gen)) {
          return;  // Driver really gone; the serve loop will notice too.
        }
        continue;  // The resync already shipped a beat + snapshot.
      }
      if (metrics_source_) {
        const std::uint64_t now = NowNs();
        if (now - last_ship_ns >= ship_interval_ns) {
          last_ship_ns = now;
          common::RunMetrics snapshot;
          // A false return means "nothing to report yet" — ship nothing
          // rather than a default-constructed (failed-looking) record.
          if (metrics_source_(&snapshot)) {
            Message ship;
            ship.kind = MsgKind::kMetrics;
            ship.src = node_id_;
            ship.dst = kDriverEndpoint;
            EncodeRunMetrics(snapshot, &ship.payload);
            if (!SendMsg(ship) && !EnsureConnected(gen)) {
              return;
            }
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  });
}

void CtrlClient::Serve(const std::function<JobResultMsg(const std::string&,
                                                        common::ByteBuffer&)>& run_job) {
  Message msg;
  for (;;) {
    const std::uint64_t gen = conn_gen_.load(std::memory_order_acquire);
    auto sock = CurrentSock();
    if (sock == nullptr) {
      return;
    }
    bool ok = false;
    try {
      ok = RecvMessageFrame(*sock, &msg);
    } catch (const std::exception& e) {
      LOG_WARN() << "ctrl: corrupt ctrl frame on daemon: " << e.what();
      ok = false;
    }
    if (!ok) {
      // Socket loss is not necessarily the driver's goodbye: try a session
      // resume (the driver may just be on the far side of a partition).
      if (!EnsureConnected(gen)) {
        return;
      }
      continue;
    }
    if (msg.kind == MsgKind::kBye) {
      return;
    }
    if (msg.kind != MsgKind::kDispatch) {
      continue;
    }
    // Receipt end of the dispatch hop: echo the span the driver stamped, and
    // adopt its trace id for everything this job sends back.
    trace_id_ = msg.trace;
    EmitFlow(tracer_, obs::EventKind::kMsgRecv, /*lane=*/0, msg, kDriverEndpoint);
    JobResultMsg result = run_job(msg.text, msg.payload);
    Message reply;
    reply.kind = MsgKind::kResult;
    reply.src = node_id_;
    reply.dst = kDriverEndpoint;
    reply.a = result.checksum;
    reply.b = result.records;
    const std::uint64_t seq = result_seq_++;
    reply.c = (seq << 1) | (result.success ? 1u : 0u);
    if (trace_id_ != 0) {
      reply.trace = trace_id_;
      reply.span = obs::SpanId(trace_id_, static_cast<std::uint8_t>(MsgKind::kResult),
                               node_id_, kDriverEndpoint, /*split=*/-1, /*epoch=*/0,
                               seq);
      EmitFlow(tracer_, obs::EventKind::kMsgSend, /*lane=*/0, reply, kDriverEndpoint);
    }
    {
      // Remember the reply for resume resync: a result sent just before a
      // cut may never have been processed, so the ring is re-shipped whole
      // and the server drops what it already saw (by seq).
      std::lock_guard<std::mutex> rlock(results_mu_);
      recent_results_.push_back(reply);
      while (recent_results_.size() > 16) {
        recent_results_.pop_front();
      }
    }
    const std::uint64_t send_gen = conn_gen_.load(std::memory_order_acquire);
    if (!SendMsg(reply)) {
      if (!EnsureConnected(send_gen)) {
        return;
      }
      // The resume's resync re-shipped the reply from the ring.
    }
  }
}

bool CtrlClient::SendMsg(const Message& msg) {
  std::lock_guard<std::mutex> lock(write_mu_);
  auto sock = CurrentSock();
  if (sock == nullptr) {
    return false;
  }
  return SendMessageFrame(*sock, msg);
}

}  // namespace itask::net
