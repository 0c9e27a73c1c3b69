// node_daemon: a cluster node as its own OS process (DESIGN.md §13).
//
// Joins a net_driver's control plane, heartbeats its heap occupancy, and
// serves dispatched jobs: each kDispatch names a Hyracks app plus a serialized
// AppConfig/ClusterConfig bundle; the daemon runs it to completion on a local
// cluster (honoring ITASK_NET_TRANSPORT for the intra-job shuffle fabric) and
// replies with the order-independent result fingerprint, which the driver
// checks against its own reference run.
//
// A lost ctrl socket is not a death sentence: CtrlClient resumes the session
// under the original node id with capped jittered backoff
// (25 ms doubling to 1 s, 20 attempts within 15 s), re-shipping pending
// results, a heartbeat
// and a metrics snapshot. The daemon only exits on the driver's kBye or when
// the reconnect policy is exhausted.
//
// Usage:
//   node_daemon --port P [--host 127.0.0.1] [--name worker-0] [--heap-kb K]
//               [--trace-dir DIR]
//
// --trace-dir arms per-process telemetry: every dispatched job runs with
// tracing active and exports `<name>-job<N>.trace.json` into DIR; the ctrl
// plane's dispatch/result hops land in `<name>-ctrl.trace.json`. Each file
// carries an epoch header expressed on the driver's steady clock (local epoch
// + the join-handshake offset), so `trace_dump --merge` can align all the
// processes' timelines.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>

#include "apps/hyracks_apps.h"
#include "cluster/cluster.h"
#include "net/ctrl.h"
#include "net/job_wire.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"

namespace {

struct Options {
  std::string host = "127.0.0.1";
  int port = 0;
  std::string name = "worker";
  std::uint64_t heap_kb = 64 << 10;
  std::string trace_dir;
};

// Local tracer epoch expressed on the driver's timeline, in microseconds.
// A daemon that somehow reads as pre-dating the driver clamps to 0 rather
// than wrapping around.
std::uint64_t AlignedEpochUs(const itask::obs::Tracer& tracer,
                             std::int64_t clock_offset_ns) {
  const std::int64_t ns =
      static_cast<std::int64_t>(tracer.EpochSteadyNs()) + clock_offset_ns;
  return ns > 0 ? static_cast<std::uint64_t>(ns) / 1000 : 0;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "node_daemon: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--host") == 0) {
      opt->host = value();
    } else if (std::strcmp(argv[i], "--port") == 0) {
      opt->port = std::atoi(value());
    } else if (std::strcmp(argv[i], "--name") == 0) {
      opt->name = value();
    } else if (std::strcmp(argv[i], "--heap-kb") == 0) {
      opt->heap_kb = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      opt->trace_dir = value();
    } else {
      std::fprintf(stderr, "node_daemon: unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return opt->port > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: node_daemon --port P [--host H] [--name N] [--heap-kb K]"
                 " [--trace-dir DIR]\n");
    return 2;
  }

  itask::net::CtrlClient client;
  itask::obs::Tracer ctrl_tracer;
  if (!opt.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.trace_dir, ec);
    ctrl_tracer.set_enabled(true);
    client.set_tracer(&ctrl_tracer);
  }
  const int id = client.Join(opt.host, opt.port, opt.name, opt.heap_kb << 10);
  if (id < 0) {
    std::fprintf(stderr, "node_daemon: join %s:%d failed\n", opt.host.c_str(), opt.port);
    return 1;
  }
  std::fprintf(stderr, "node_daemon[%d]: joined %s:%d as %s\n", id, opt.host.c_str(),
               opt.port, opt.name.c_str());

  // Heartbeats carry the peak heap use of the most recent job — a daemon has
  // no resident heap between jobs, so "current occupancy" is job-scoped.
  std::atomic<std::uint64_t> last_peak{0};
  const std::uint64_t capacity = opt.heap_kb << 10;

  // Telemetry shipping: the heartbeat thread serializes this daemon's
  // cumulative job metrics onto the ctrl plane. Cumulative — successive jobs
  // are folded in with Merge — so a dropped ship only stales the
  // driver's view rather than losing a job.
  std::mutex metrics_mu;
  itask::common::RunMetrics shipped_metrics;
  bool has_metrics = false;
  client.SetMetricsSource(
      [&metrics_mu, &shipped_metrics, &has_metrics](itask::common::RunMetrics* out) {
        std::lock_guard<std::mutex> lock(metrics_mu);
        if (!has_metrics) {
          return false;
        }
        *out = shipped_metrics;
        return true;
      });
  client.StartHeartbeats(
      50, [&last_peak, capacity]() -> std::pair<std::uint64_t, std::uint64_t> {
        return {last_peak.load(std::memory_order_relaxed), capacity};
      });

  std::uint64_t job_seq = 0;
  client.Serve([&](const std::string& app,
                   itask::common::ByteBuffer& config) -> itask::net::JobResultMsg {
    itask::net::JobResultMsg result;
    try {
      const itask::net::JobSpec spec = itask::net::DecodeJobSpec(&config);
      itask::cluster::ClusterConfig cc;
      cc.num_nodes = spec.nodes;
      cc.heap.capacity_bytes = spec.heap_kb << 10;
      cc.heap.real_pauses = false;
      if (spec.skew > 1.0) {
        // Skewed-pressure topology, mirrored from the driver's reference run:
        // node 0 keeps heap_kb, every peer gets skew x that.
        cc.per_node_heap_bytes.assign(
            static_cast<std::size_t>(cc.num_nodes),
            static_cast<std::uint64_t>(static_cast<double>(spec.heap_kb << 10) *
                                       spec.skew));
        cc.per_node_heap_bytes[0] = spec.heap_kb << 10;
      }
      itask::cluster::Cluster cluster(cc);
      itask::apps::AppConfig ac;
      ac.dataset_bytes = spec.dataset_kb << 10;
      ac.tpch_scale = spec.tpch_scale;
      ac.max_workers = spec.max_workers;
      ac.granularity_bytes = spec.granularity_bytes;
      ac.seed = spec.seed;
      ac.deadline_ms = spec.deadline_ms;
      ac.fault_tolerance = spec.fault_tolerance;
      ac.trace_active = !opt.trace_dir.empty();
      const auto r =
          itask::apps::RunHyracksApp(app, cluster, ac, itask::apps::Mode::kITask);
      result.checksum = r.checksum;
      result.records = r.records;
      result.success = r.metrics.succeeded;
      last_peak.store(r.metrics.peak_heap_bytes, std::memory_order_relaxed);
      {
        std::lock_guard<std::mutex> lock(metrics_mu);
        if (!has_metrics) {
          shipped_metrics = r.metrics;
          has_metrics = true;
        } else {
          shipped_metrics.Merge(r.metrics);
        }
      }
      if (!opt.trace_dir.empty()) {
        const std::string path = opt.trace_dir + "/" + opt.name + "-job" +
                                 std::to_string(job_seq++) + ".trace.json";
        itask::obs::TraceProcessMeta meta;
        meta.name = opt.name + "/" + app;
        meta.epoch_us = AlignedEpochUs(cluster.tracer(), client.clock_offset_ns());
        meta.events_dropped = cluster.tracer().stats().dropped;
        std::ofstream out(path);
        itask::obs::WriteChromeTrace(out, r.events, meta);
      }
      std::fprintf(stderr, "node_daemon[%d]: %s checksum=%016llx records=%llu %s\n", id,
                   app.c_str(), static_cast<unsigned long long>(r.checksum),
                   static_cast<unsigned long long>(r.records),
                   result.success ? "ok" : "FAILED");
    } catch (const std::exception& e) {
      std::fprintf(stderr, "node_daemon[%d]: %s threw: %s\n", id, app.c_str(), e.what());
      result.success = false;
    }
    return result;
  });

  if (!opt.trace_dir.empty()) {
    // Serve has returned (kBye), so the ctrl tracer is quiescent: export the
    // daemon side of the dispatch/result flow pairs.
    const std::string path = opt.trace_dir + "/" + opt.name + "-ctrl.trace.json";
    itask::obs::TraceProcessMeta meta;
    meta.name = opt.name;
    meta.epoch_us = AlignedEpochUs(ctrl_tracer, client.clock_offset_ns());
    meta.events_dropped = ctrl_tracer.stats().dropped;
    std::ofstream out(path);
    itask::obs::WriteChromeTrace(out, ctrl_tracer.Snapshot(), meta);
  }

  std::fprintf(stderr, "node_daemon[%d]: bye (%llu ctrl reconnects)\n", id,
               static_cast<unsigned long long>(client.reconnects()));
  return 0;
}
