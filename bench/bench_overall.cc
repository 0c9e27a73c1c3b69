// bench_overall: the unified per-PR perf artifact (DESIGN.md §15.4).
//
// One harness that touches every headline axis the telemetry plane tracks —
// wall time, interrupt-latency p99, spill volume, GC share, and the
// net/migration counters — across three representative configurations:
//
//   WC/inproc   pressured WordCount on the paper cluster (interrupt + spill
//               + GC numbers, no wire)
//   HS/inproc   pressured HeapSort (the sort-heavy counterpoint)
//   WC/tcp+ft   WordCount under fault tolerance over TCP loopback (wire +
//               recovery counters)
//
// Emits BENCH_overall.json in the working directory: one JSON row per line
// inside the envelope, so tools/perf_gate can diff a candidate against the
// committed baseline line-by-line. Every row runs with tracing active so the
// events_dropped column is live, not vacuously zero.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "apps/hyracks_apps.h"
#include "bench/bench_util.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "net/transport.h"

namespace {

using Clock = std::chrono::steady_clock;

struct OverallRow {
  std::string app;
  std::string transport;
  bool ft = false;
  double wall_ms = 0.0;
  double gc_ms = 0.0;
  double gc_share = 0.0;  // gc_ms / wall_ms, clamped to [0, 1].
  std::uint64_t interrupts = 0;
  double interrupt_p99_us = 0.0;
  std::uint64_t spilled_bytes = 0;
  std::uint64_t net_msgs = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t partitions_migrated = 0;
  std::uint64_t migrated_bytes = 0;
  std::uint64_t events_dropped = 0;
  bool ok = false;
};

OverallRow RunOne(const std::string& app, itask::net::TransportKind kind, bool ft,
                  std::uint64_t dataset_bytes, std::uint64_t heap_bytes) {
  OverallRow row;
  row.app = app;
  row.transport = itask::net::TransportKindName(kind);
  row.ft = ft;

  itask::cluster::ClusterConfig cc = itask::bench::PaperCluster(heap_bytes);
  cc.net.kind = kind;
  itask::cluster::Cluster cluster(cc);

  itask::apps::AppConfig ac;
  ac.dataset_bytes = dataset_bytes;
  ac.deadline_ms = 120000.0;
  ac.fault_tolerance = ft;
  ac.trace_active = true;  // events_dropped must measure a real trace.
  const auto t0 = Clock::now();
  const auto r = itask::apps::RunHyracksApp(app, cluster, ac, itask::apps::Mode::kITask);
  row.wall_ms = std::chrono::duration<double, std::milli>(Clock::now() - t0).count();

  const itask::common::RunMetrics& m = r.metrics;
  row.gc_ms = m.gc_ms;
  row.gc_share = row.wall_ms <= 0.0 ? 0.0 : std::min(m.gc_ms / row.wall_ms, 1.0);
  row.interrupts = m.interrupts;
  row.interrupt_p99_us = m.interrupt_latency_hist.Quantile(0.99) / 1e3;
  row.spilled_bytes = m.spilled_bytes;
  row.net_msgs = m.net_msgs_sent;
  row.net_bytes = m.net_bytes_sent;
  row.partitions_migrated = m.partitions_migrated;
  row.migrated_bytes = m.migrated_bytes;
  row.events_dropped = m.events_dropped;
  row.ok = m.succeeded;
  return row;
}

std::string RowJson(const OverallRow& row) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"app\":\"%s\",\"transport\":\"%s\",\"ft\":%s,\"wall_ms\":%.3f,"
      "\"gc_ms\":%.3f,\"gc_share\":%.4f,\"interrupts\":%llu,"
      "\"interrupt_p99_us\":%.2f,\"spilled_bytes\":%llu,\"net_msgs\":%llu,"
      "\"net_bytes\":%llu,\"partitions_migrated\":%llu,\"migrated_bytes\":%llu,"
      "\"events_dropped\":%llu,\"ok\":%s}",
      row.app.c_str(), row.transport.c_str(), row.ft ? "true" : "false", row.wall_ms,
      row.gc_ms, row.gc_share, static_cast<unsigned long long>(row.interrupts),
      row.interrupt_p99_us, static_cast<unsigned long long>(row.spilled_bytes),
      static_cast<unsigned long long>(row.net_msgs),
      static_cast<unsigned long long>(row.net_bytes),
      static_cast<unsigned long long>(row.partitions_migrated),
      static_cast<unsigned long long>(row.migrated_bytes),
      static_cast<unsigned long long>(row.events_dropped), row.ok ? "true" : "false");
  return buf;
}

}  // namespace

int main() {
  const double scale = itask::bench::BenchScale();
  // Pressured inputs on the 8MB paper heaps: big enough to interrupt and
  // spill, small enough that a CI run finishes in seconds.
  const auto mb = [scale](double v) {
    return static_cast<std::uint64_t>(v * scale * 1024 * 1024);
  };

  // Heaps sized to interrupt: the inproc rows run 6MB inputs on 2MB heaps
  // (3x oversubscription, same regime as the paper's pressured tables), the
  // tcp+ft row 2MB on 1MB.
  std::vector<OverallRow> rows;
  rows.push_back(
      RunOne("WC", itask::net::TransportKind::kInproc, false, mb(6.0), 2 << 20));
  rows.push_back(
      RunOne("HS", itask::net::TransportKind::kInproc, false, mb(6.0), 2 << 20));
  rows.push_back(RunOne("WC", itask::net::TransportKind::kTcp, true, mb(2.0), 1 << 20));

  bool ok = true;
  std::string rows_json;
  for (const OverallRow& row : rows) {
    ok = ok && row.ok;
    std::printf("[overall] %-2s/%-6s%s wall=%8.1fms gc=%4.1f%% interrupts=%-4llu "
                "int_p99=%7.1fus spilled=%s migrated=%llu dropped=%llu %s\n",
                row.app.c_str(), row.transport.c_str(), row.ft ? "+ft" : "   ",
                row.wall_ms, row.gc_share * 100.0,
                static_cast<unsigned long long>(row.interrupts), row.interrupt_p99_us,
                itask::common::FormatBytes(row.spilled_bytes).c_str(),
                static_cast<unsigned long long>(row.partitions_migrated),
                static_cast<unsigned long long>(row.events_dropped),
                row.ok ? "ok" : "FAIL");
    rows_json += (rows_json.empty() ? "" : ",\n") + RowJson(row);
  }

  const std::string path = "BENCH_overall.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_overall: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\"bench\":\"overall\",\"scale\":%.3f,\"rows\":[\n%s\n],\"ok\":%s}\n",
               scale, rows_json.c_str(), ok ? "true" : "false");
  std::fclose(out);
  std::printf("bench_overall: wrote %s (%s)\n", path.c_str(), ok ? "ok" : "FAILURES");
  return ok ? 0 : 1;
}
