// Control plane for multi-process nodes (DESIGN.md §13).
//
// CtrlServer runs in the driver process: it accepts node_daemon connections,
// assigns node ids at kJoin, tracks heartbeat-carried heap stats, dispatches
// jobs (kDispatch: app name + serialized config) and collects their result
// fingerprints (kResult). CtrlClient is the daemon side: join, heartbeat
// thread, and a serve loop that runs each dispatched job through a callback.
//
// The dispatch unit is a whole job: a daemon executes the named app on its
// own local cluster and reports the order-independent result fingerprint,
// which is topology-independent — the driver verifies daemons against a
// local reference run. (Task-level distribution — one JobState spanning
// processes — is future work; core::JobState counters are shared atomics.)
//
// Control messages ride the same Message/FrameSocket stack as the shuffle
// fabric: one message per checksummed frame.
//
// Session resume: a daemon whose ctrl socket dies reconnects with capped
// jittered backoff (ITASK_CTRL_RECONNECT_{BASE_MS,CAP_MS,ATTEMPTS,
// DEADLINE_MS}) and re-joins under its original node id (kJoin.b = old id
// + 1). The server swaps the socket under the existing peer slot — results,
// metrics and dispatch ordinals survive — and the client re-ships its
// recent results (deduplicated server-side by the seq packed into
// kResult.c), a fresh heartbeat, and a metrics snapshot so the driver's
// view heals without any job re-execution.
#ifndef ITASK_NET_CTRL_H_
#define ITASK_NET_CTRL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/backoff.h"
#include "common/byte_buffer.h"
#include "common/metrics.h"
#include "net/frame_socket.h"
#include "net/message.h"
#include "obs/tracer.h"

namespace itask::net {

struct CtrlNodeInfo {
  int id = -1;
  std::string name;
  std::uint64_t heap_capacity = 0;
  std::uint64_t heap_used = 0;       // From the last heartbeat.
  std::uint64_t last_beat_ns = 0;    // steady_clock ns of the last heartbeat.
  bool connected = false;
};

struct JobResultMsg {
  std::uint64_t checksum = 0;
  std::uint64_t records = 0;
  bool success = false;
};

class CtrlServer {
 public:
  // Listens on TCP |port| (0 = ephemeral; read back via port()) bound to
  // ITASK_NET_BIND_HOST (default loopback).
  explicit CtrlServer(int port = 0);
  ~CtrlServer();

  CtrlServer(const CtrlServer&) = delete;
  CtrlServer& operator=(const CtrlServer&) = delete;

  int port() const { return port_; }

  // Blocks until |n| daemons have joined (or the timeout elapses).
  bool WaitForNodes(int n, int timeout_ms);

  int num_nodes() const;
  CtrlNodeInfo node(int id) const;

  // Causal tracing for the control plane: when set, every dispatch/result hop
  // emits paired kMsgSend/kMsgRecv events on |tracer| (driver side), with the
  // peer's node id as the event's lane. Set before the first Dispatch.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Sends a job to |node|; the daemon replies with one kResult. |trace_id|
  // (non-zero) stamps the dispatch and everything the daemon derives from it
  // with a causal trace identity; pass obs::TraceIdFromSeed(spec.seed) so a
  // re-run with the same seed reproduces the same span ids.
  bool Dispatch(int node, const std::string& app, const common::ByteBuffer& config,
                std::uint64_t trace_id = 0);

  // Blocks for |node|'s next result.
  bool WaitResult(int node, int timeout_ms, JobResultMsg* out);

  // Latest kMetrics snapshot shipped by |node|; false if none arrived yet.
  bool NodeMetrics(int node, common::RunMetrics* out) const;

  // Cluster rollup: Merge over the latest snapshot from every peer
  // that shipped one. |nodes_reporting| (optional) says how many that was —
  // callers should treat 0 as "telemetry off", not "cluster idle".
  common::RunMetrics ClusterMetrics(int* nodes_reporting = nullptr) const;

  // Fault-injection hook: severs |node|'s ctrl socket server-side without
  // forgetting the peer, as a network cut would. The daemon is expected to
  // notice and resume its session via a re-join; until then the peer reads
  // as disconnected.
  void DropPeer(int node);

  // Sessions resumed via re-join since startup.
  std::uint64_t ctrl_reconnects() const {
    return ctrl_reconnects_.load(std::memory_order_relaxed);
  }

  // Sends kBye to every connected daemon and stops accepting.
  void Shutdown();

 private:
  struct Peer {
    CtrlNodeInfo info;
    std::unique_ptr<FrameSocket> sock;
    std::unique_ptr<std::mutex> write_mu;
    std::thread reader;
    std::vector<JobResultMsg> results;  // FIFO of unclaimed results.
    common::RunMetrics metrics;         // Latest shipped snapshot.
    bool has_metrics = false;
    std::uint64_t dispatches = 0;  // Dispatch ordinal; seeds dispatch span ids.
    // Next kResult seq expected from this peer; anything older is a re-ship
    // duplicate from a session resume and is dropped.
    std::uint64_t next_result_seq = 0;
    std::uint64_t disconnected_at_ns = 0;  // 0 while connected.
  };

  void AcceptLoop();
  void ReadLoop(Peer* peer);
  bool SendTo(Peer& peer, const Message& msg);
  // Re-attaches a resumed session to its existing peer slot; returns the
  // peer (with |sock| installed and a fresh reader started) or nullptr when
  // the claimed id is bogus.
  Peer* ResumePeer(const Message& join, std::unique_ptr<FrameSocket> sock);

  int listen_fd_ = -1;
  int port_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::thread accept_thread_;
  std::atomic<bool> stop_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Peer>> peers_;
  std::atomic<std::uint64_t> ctrl_reconnects_{0};
};

class CtrlClient {
 public:
  CtrlClient() = default;
  ~CtrlClient();

  CtrlClient(const CtrlClient&) = delete;
  CtrlClient& operator=(const CtrlClient&) = delete;

  // Connects to the driver and joins; returns the assigned node id (< 0 on
  // failure). The endpoint is remembered so a later ctrl-socket loss can be
  // healed by an automatic session resume (EnsureConnected).
  int Join(const std::string& host, int port, const std::string& name,
           std::uint64_t heap_capacity);

  // Starts a heartbeat thread reporting (used, capacity) every |interval_ms|.
  void StartHeartbeats(int interval_ms,
                       std::function<std::pair<std::uint64_t, std::uint64_t>()> stats);

  // Telemetry shipping: when set before StartHeartbeats, the heartbeat thread
  // also serializes a snapshot into a kMetrics message every ITASK_OBS_SHIP_MS
  // milliseconds (default 250). |source| fills the snapshot and returns true,
  // or returns false while it has nothing to report (no job finished yet).
  // Snapshots are cumulative, so a dropped ship only delays the server's view.
  void SetMetricsSource(std::function<bool(common::RunMetrics*)> source);

  // Causal tracing for the daemon side of the control plane: dispatch
  // receipts and result sends are emitted on |tracer| (lane 0).
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }

  // Serves dispatches until kBye or disconnect. |run_job| executes the named
  // app with the serialized config and returns the result fingerprint.
  void Serve(const std::function<JobResultMsg(const std::string& app,
                                              common::ByteBuffer& config)>& run_job);

  int node_id() const { return node_id_; }

  // Sessions resumed after a ctrl-socket loss.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }

  // server_steady_now - local_steady_now, sampled at the join ack. Adding it
  // to a local steady-clock reading expresses that instant on the driver's
  // timeline; trace files use it to compute their epoch_us alignment header.
  // One-shot sample (no RTT averaging): good to roughly half the join RTT,
  // which on loopback is microseconds — well under event durations of
  // interest.
  std::int64_t clock_offset_ns() const { return clock_offset_ns_; }

 private:
  bool SendMsg(const Message& msg);
  // Snapshot of the live socket; swapped atomically (under conn_mu_) by a
  // session resume so readers never see a half-installed socket.
  std::shared_ptr<FrameSocket> CurrentSock();
  // Dial + join handshake. |resume| claims the previous node id in kJoin.b.
  // Returns the assigned id (< 0 on failure) and installs the new socket.
  int ConnectAndJoin(bool resume);
  // Heals a dead ctrl session: re-dials with capped jittered backoff
  // (kCtrlReconnect policy), re-joins under the original id, then re-ships
  // recent results, a heartbeat, and a metrics snapshot. |failed_gen| is the
  // connection generation the caller observed the failure on — if another
  // thread already resumed past it, returns true immediately. False when the
  // policy's attempts/deadline are exhausted (the session is over).
  bool EnsureConnected(std::uint64_t failed_gen);

  std::mutex write_mu_;           // Serializes frame writes on the socket.
  std::mutex reconnect_mu_;       // At most one thread resumes at a time.
  mutable std::mutex conn_mu_;    // Guards sock_ (innermost).
  std::shared_ptr<FrameSocket> sock_;
  std::atomic<std::uint64_t> conn_gen_{0};
  std::atomic<std::uint64_t> reconnects_{0};
  int node_id_ = -1;
  std::int64_t clock_offset_ns_ = 0;
  obs::Tracer* tracer_ = nullptr;
  std::uint64_t trace_id_ = 0;   // From the most recent dispatch.
  std::uint64_t result_seq_ = 0; // Result ordinal; seeds result span ids.
  std::function<bool(common::RunMetrics*)> metrics_source_;
  std::function<std::pair<std::uint64_t, std::uint64_t>()> stats_fn_;
  std::thread beat_thread_;
  std::atomic<bool> stop_beats_{false};
  // Join endpoint, remembered for resumes.
  std::string host_;
  int port_ = 0;
  std::string name_;
  std::uint64_t heap_capacity_ = 0;
  common::BackoffPolicy reconnect_policy_;
  // Recent kResult replies (bounded ring) re-shipped after a resume; the
  // server drops duplicates by the seq packed into |c|.
  std::mutex results_mu_;
  std::deque<Message> recent_results_;
};

}  // namespace itask::net

#endif  // ITASK_NET_CTRL_H_
