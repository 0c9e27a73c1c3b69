// bench_net: transport microbenchmark for the src/net/ stack (DESIGN.md §13).
//
// Two layers:
//   raw  — one-way message pump through each transport backend (inproc, tcp,
//          uds) across payload sizes: throughput, frame-batching efficiency
//          (messages per frame, wire bytes per frame), and the send-side
//          latency distribution, whose p99 is the send-stall headline number
//          (a stalled Send blocks on the bounded queue until the sender
//          drains it).
//   app  — WordCount under fault tolerance on inproc vs tcp, so the wire
//          cost shows up against a real shuffle (wall time + net counters).
//
// Emits BENCH_net.json in the working directory for the ci.sh gate.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "apps/hyracks_apps.h"
#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "net/transport.h"
#include "obs/histogram.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Send-latency ladder: an unbatched loopback send is a few µs; a send that
// stalls on a full queue waits for a flush cycle (hundreds of µs up).
std::vector<std::uint64_t> SendLatencyBoundsNs() {
  return {1'000,     2'500,     5'000,      10'000,     25'000,     50'000,
          100'000,   250'000,   500'000,    1'000'000,  5'000'000,  10'000'000,
          50'000'000};
}

struct RawRow {
  std::string kind;
  std::uint64_t payload_bytes = 0;
  std::uint64_t msgs = 0;
  double wall_ms = 0.0;
  double msgs_per_sec = 0.0;
  double mb_per_sec = 0.0;
  std::uint64_t frames = 0;
  double msgs_per_frame = 0.0;
  double avg_frame_bytes = 0.0;
  std::uint64_t send_stalls = 0;
  double stall_ms = 0.0;
  double send_p50_us = 0.0;
  double send_p99_us = 0.0;
  bool ok = false;
};

RawRow PumpOneWay(itask::net::TransportKind kind, std::uint64_t payload_bytes,
                  std::uint64_t msgs) {
  RawRow row;
  row.kind = itask::net::TransportKindName(kind);
  row.payload_bytes = payload_bytes;
  row.msgs = msgs;

  itask::net::NetConfig config;
  config.kind = kind;
  auto transport = itask::net::MakeTransport(config);

  std::atomic<std::uint64_t> received{0};
  transport->RegisterEndpoint(
      1, [&received](itask::net::Message&&) {
        received.fetch_add(1, std::memory_order_relaxed);
      });

  itask::common::ByteBuffer payload;
  payload.bytes().assign(payload_bytes, 0x5a);

  itask::obs::Histogram send_lat(SendLatencyBoundsNs());
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < msgs; ++i) {
    itask::net::Message msg;
    msg.kind = itask::net::MsgKind::kShuffleData;
    msg.src = itask::net::kDriverEndpoint;
    msg.dst = 1;
    msg.seq = i;
    msg.payload = payload;
    const auto s0 = Clock::now();
    if (!transport->Send(std::move(msg))) {
      std::fprintf(stderr, "bench_net: %s send %llu failed\n", row.kind.c_str(),
                   static_cast<unsigned long long>(i));
      return row;
    }
    send_lat.Observe(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - s0)
            .count()));
  }
  transport->Flush();
  const double deadline_ms = 30000.0;
  while (received.load(std::memory_order_relaxed) < msgs) {
    if (MsSince(t0) > deadline_ms) {
      std::fprintf(stderr, "bench_net: %s delivered %llu/%llu before timeout\n",
                   row.kind.c_str(),
                   static_cast<unsigned long long>(received.load()),
                   static_cast<unsigned long long>(msgs));
      return row;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  row.wall_ms = MsSince(t0);

  const itask::net::TransportStats stats = transport->Stats();
  const auto lat = send_lat.snapshot();
  row.msgs_per_sec = static_cast<double>(msgs) * 1e3 / row.wall_ms;
  row.mb_per_sec =
      static_cast<double>(msgs * payload_bytes) / (1024.0 * 1024.0) * 1e3 / row.wall_ms;
  row.frames = stats.frames_sent;
  row.msgs_per_frame = stats.frames_sent == 0
                           ? 0.0
                           : static_cast<double>(stats.msgs_sent) /
                                 static_cast<double>(stats.frames_sent);
  row.avg_frame_bytes = stats.frames_sent == 0
                            ? 0.0
                            : static_cast<double>(stats.bytes_sent) /
                                  static_cast<double>(stats.frames_sent);
  row.send_stalls = stats.send_stalls;
  row.stall_ms = static_cast<double>(stats.stall_ns) / 1e6;
  row.send_p50_us = lat.Quantile(0.50) / 1e3;
  row.send_p99_us = lat.Quantile(0.99) / 1e3;
  row.ok = true;
  return row;
}

struct AppRow {
  std::string transport;
  double wall_ms = 0.0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_frames = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t send_stalls = 0;
  double queue_depth_p99 = 0.0;
  std::uint64_t checksum = 0;
  bool ok = false;
};

AppRow RunWcOver(itask::net::TransportKind kind) {
  AppRow row;
  row.transport = itask::net::TransportKindName(kind);
  itask::cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 64ull << 20;
  cc.heap.real_pauses = false;
  cc.net.kind = kind;
  itask::cluster::Cluster cluster(cc);
  itask::apps::AppConfig ac;
  ac.dataset_bytes = static_cast<std::uint64_t>(512.0 * itask::bench::BenchScale()) << 10;
  ac.granularity_bytes = 16 << 10;
  ac.max_workers = 4;
  ac.deadline_ms = 60000.0;
  ac.fault_tolerance = true;
  const auto t0 = Clock::now();
  const auto result =
      itask::apps::RunHyracksApp("WC", cluster, ac, itask::apps::Mode::kITask);
  row.wall_ms = MsSince(t0);
  row.net_msgs = result.metrics.net_msgs_sent;
  row.net_frames = result.metrics.net_frames_sent;
  row.net_bytes = result.metrics.net_bytes_sent;
  row.send_stalls = result.metrics.net_send_stalls;
  row.queue_depth_p99 = result.metrics.net_queue_depth_hist.Quantile(0.99);
  row.checksum = result.checksum;
  row.ok = result.metrics.succeeded;
  return row;
}

}  // namespace

int main() {
  const double scale = itask::bench::BenchScale();
  const std::vector<itask::net::TransportKind> kinds = {
      itask::net::TransportKind::kInproc, itask::net::TransportKind::kTcp,
      itask::net::TransportKind::kUds};
  // (payload bytes, message count) pairs; counts scale with ITASK_BENCH_SCALE.
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> sweeps = {
      {256, static_cast<std::uint64_t>(20000 * scale)},
      {4096, static_cast<std::uint64_t>(8000 * scale)},
      {64 << 10, static_cast<std::uint64_t>(1000 * scale)},
  };

  bool ok = true;
  std::string raw_json;
  for (const auto kind : kinds) {
    for (const auto& [payload, msgs] : sweeps) {
      const RawRow row = PumpOneWay(kind, payload, msgs < 64 ? 64 : msgs);
      ok = ok && row.ok;
      std::printf(
          "[net] %-6s payload=%6lluB msgs=%6llu  %8.0f msg/s %7.1f MB/s  "
          "%5.1f msg/frame  stalls=%llu  send p99=%.1fus\n",
          row.kind.c_str(), static_cast<unsigned long long>(row.payload_bytes),
          static_cast<unsigned long long>(row.msgs), row.msgs_per_sec, row.mb_per_sec,
          row.msgs_per_frame, static_cast<unsigned long long>(row.send_stalls),
          row.send_p99_us);
      char buf[512];
      std::snprintf(
          buf, sizeof(buf),
          "%s{\"kind\":\"%s\",\"payload_bytes\":%llu,\"msgs\":%llu,"
          "\"wall_ms\":%.3f,\"msgs_per_sec\":%.1f,\"mb_per_sec\":%.2f,"
          "\"frames\":%llu,\"msgs_per_frame\":%.2f,\"avg_frame_bytes\":%.1f,"
          "\"send_stalls\":%llu,\"stall_ms\":%.3f,"
          "\"send_p50_us\":%.2f,\"send_stall_p99_us\":%.2f,\"ok\":%s}",
          raw_json.empty() ? "" : ",", row.kind.c_str(),
          static_cast<unsigned long long>(row.payload_bytes),
          static_cast<unsigned long long>(row.msgs), row.wall_ms, row.msgs_per_sec,
          row.mb_per_sec, static_cast<unsigned long long>(row.frames),
          row.msgs_per_frame, row.avg_frame_bytes,
          static_cast<unsigned long long>(row.send_stalls), row.stall_ms,
          row.send_p50_us, row.send_p99_us, row.ok ? "true" : "false");
      raw_json += buf;
    }
  }

  // App layer: the same WC job over the direct path and over TCP loopback.
  // Fingerprints must agree — the wire changes cost, never results.
  std::string app_json;
  std::uint64_t reference_checksum = 0;
  for (const auto kind :
       {itask::net::TransportKind::kInproc, itask::net::TransportKind::kTcp}) {
    const AppRow row = RunWcOver(kind);
    ok = ok && row.ok;
    if (kind == itask::net::TransportKind::kInproc) {
      reference_checksum = row.checksum;
    } else if (row.checksum != reference_checksum) {
      std::fprintf(stderr, "bench_net: WC fingerprint diverged over %s\n",
                   row.transport.c_str());
      ok = false;
    }
    std::printf("[net] WC over %-6s wall=%7.1fms msgs=%llu frames=%llu wire=%lluB\n",
                row.transport.c_str(), row.wall_ms,
                static_cast<unsigned long long>(row.net_msgs),
                static_cast<unsigned long long>(row.net_frames),
                static_cast<unsigned long long>(row.net_bytes));
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"transport\":\"%s\",\"wall_ms\":%.3f,\"net_msgs\":%llu,"
                  "\"net_frames\":%llu,\"net_bytes\":%llu,\"send_stalls\":%llu,"
                  "\"queue_depth_p99\":%.1f,\"ok\":%s}",
                  app_json.empty() ? "" : ",", row.transport.c_str(), row.wall_ms,
                  static_cast<unsigned long long>(row.net_msgs),
                  static_cast<unsigned long long>(row.net_frames),
                  static_cast<unsigned long long>(row.net_bytes),
                  static_cast<unsigned long long>(row.send_stalls),
                  row.queue_depth_p99, row.ok ? "true" : "false");
    app_json += buf;
  }

  const std::string path = "BENCH_net.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_net: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\"bench\":\"net\",\"scale\":%.3f,\"raw\":[%s],\"apps\":[%s],\"ok\":%s}\n",
               scale, raw_json.c_str(), app_json.c_str(), ok ? "true" : "false");
  std::fclose(out);
  std::printf("bench_net: wrote %s (%s)\n", path.c_str(), ok ? "ok" : "FAILURES");
  return ok ? 0 : 1;
}
