// net_driver: the driver side of multi-process execution (DESIGN.md §13).
//
// Stands up a CtrlServer, waits for node_daemon processes to join (spawning
// them itself with --spawn), runs each requested app locally once for a
// reference fingerprint, then dispatches the same job to every daemon and
// verifies the returned fingerprints match. The fingerprints are
// order-independent and topology-independent, so a daemon's local run must
// reproduce the driver's bit-for-bit even though the processes share nothing.
//
// Usage:
//   net_driver --daemons N [--spawn] [--apps WC,HS,HJ] [--port 0]
//              [--heap-kb K] [--dataset-kb K] [--nodes N] [--deadline-ms D]
//              [--daemon-bin PATH] [--join-timeout-ms MS]
//              [--ft] [--skew R] [--trace-dir DIR]
//
// --ft enables the fault-tolerance layer in both the reference run and the
// dispatched jobs; --skew R (> 1) gives peers R x node 0's heap, the
// skewed-pressure topology that exercises migration. --trace-dir arms causal
// tracing: the driver writes its ctrl-plane trace (and, with --spawn, each
// daemon writes its own per-process files) into DIR, ready for
// `trace_dump --merge`.
//
// Without --spawn, start daemons by hand:  node_daemon --port <printed port>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/hyracks_apps.h"
#include "cluster/cluster.h"
#include "net/ctrl.h"
#include "net/job_wire.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "obs/tracer.h"

namespace {

struct Options {
  int daemons = 2;
  bool spawn = false;
  std::vector<std::string> apps = {"WC", "HS", "HJ"};
  int port = 0;
  std::uint64_t heap_kb = 64 << 10;
  std::uint64_t dataset_kb = 256;
  std::uint64_t gran_kb = 0;  // 0: keep JobSpec's default granularity.
  int nodes = 2;
  double deadline_ms = 60000.0;
  std::string daemon_bin;
  int join_timeout_ms = 15000;
  int result_timeout_ms = 120000;
  bool ft = false;
  double skew = 1.0;          // > 1: peers get skew x node 0's heap.
  std::string trace_dir;      // Non-empty arms ctrl-plane causal tracing.
};

std::vector<std::string> SplitCsv(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*p);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "net_driver: %s needs a value\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--daemons") == 0) {
      opt->daemons = std::atoi(value());
    } else if (std::strcmp(argv[i], "--spawn") == 0) {
      opt->spawn = true;
    } else if (std::strcmp(argv[i], "--apps") == 0) {
      opt->apps = SplitCsv(value());
    } else if (std::strcmp(argv[i], "--port") == 0) {
      opt->port = std::atoi(value());
    } else if (std::strcmp(argv[i], "--heap-kb") == 0) {
      opt->heap_kb = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--dataset-kb") == 0) {
      opt->dataset_kb = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--gran-kb") == 0) {
      opt->gran_kb = std::strtoull(value(), nullptr, 10);
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      opt->nodes = std::atoi(value());
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      opt->deadline_ms = std::atof(value());
    } else if (std::strcmp(argv[i], "--daemon-bin") == 0) {
      opt->daemon_bin = value();
    } else if (std::strcmp(argv[i], "--join-timeout-ms") == 0) {
      opt->join_timeout_ms = std::atoi(value());
    } else if (std::strcmp(argv[i], "--result-timeout-ms") == 0) {
      opt->result_timeout_ms = std::atoi(value());
    } else if (std::strcmp(argv[i], "--ft") == 0) {
      opt->ft = true;
    } else if (std::strcmp(argv[i], "--skew") == 0) {
      opt->skew = std::atof(value());
    } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
      opt->trace_dir = value();
    } else {
      std::fprintf(stderr, "net_driver: unknown flag %s\n", argv[i]);
      return false;
    }
  }
  return opt->daemons > 0;
}

// node_daemon lives next to this binary unless --daemon-bin overrides.
std::string DaemonBin(const Options& opt, const char* argv0) {
  if (!opt.daemon_bin.empty()) {
    return opt.daemon_bin;
  }
  std::string self(argv0);
  const std::size_t slash = self.rfind('/');
  return (slash == std::string::npos ? std::string() : self.substr(0, slash + 1)) +
         "node_daemon";
}

pid_t SpawnDaemon(const std::string& bin, int port, int index, std::uint64_t heap_kb,
                  const std::string& trace_dir) {
  const pid_t pid = ::fork();
  if (pid != 0) {
    return pid;
  }
  const std::string port_s = std::to_string(port);
  const std::string name = "worker-" + std::to_string(index);
  const std::string heap_s = std::to_string(heap_kb);
  if (trace_dir.empty()) {
    ::execl(bin.c_str(), bin.c_str(), "--port", port_s.c_str(), "--name", name.c_str(),
            "--heap-kb", heap_s.c_str(), static_cast<char*>(nullptr));
  } else {
    ::execl(bin.c_str(), bin.c_str(), "--port", port_s.c_str(), "--name", name.c_str(),
            "--heap-kb", heap_s.c_str(), "--trace-dir", trace_dir.c_str(),
            static_cast<char*>(nullptr));
  }
  std::fprintf(stderr, "net_driver: exec %s failed\n", bin.c_str());
  ::_exit(127);
}

// Mirrors chaos_run's skewed-pressure topology: node 0 keeps |heap_kb|, every
// peer gets skew x that. Applied identically to the local reference run and
// (via JobSpec.skew) the daemons, so fingerprints stay comparable.
void ApplySkew(itask::cluster::ClusterConfig* cc, std::uint64_t heap_kb, double skew) {
  if (skew <= 1.0) {
    return;
  }
  cc->per_node_heap_bytes.assign(
      static_cast<std::size_t>(cc->num_nodes),
      static_cast<std::uint64_t>(static_cast<double>(heap_kb << 10) * skew));
  cc->per_node_heap_bytes[0] = heap_kb << 10;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    return 2;
  }

  // The control plane listens where the deployment's ITASK_NET_BIND_HOST
  // says, like every shuffle fabric of the local reference runs.
  const std::string bind_host = itask::cluster::ApplyEnv({}).net.bind_host;
  itask::net::CtrlServer server(opt.port, bind_host);
  std::printf("net_driver: control plane on %s:%d, waiting for %d daemon(s)\n",
              bind_host.c_str(), server.port(), opt.daemons);
  std::fflush(stdout);

  // Ctrl-plane causal tracing: dispatch/result hops on the driver side land
  // in this tracer; --trace-dir exports them with an epoch header so
  // trace_dump --merge can stitch them against the daemons' files.
  itask::obs::Tracer ctrl_tracer;
  if (!opt.trace_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opt.trace_dir, ec);
    ctrl_tracer.set_enabled(true);
    server.set_tracer(&ctrl_tracer);
  }

  std::vector<pid_t> children;
  if (opt.spawn) {
    const std::string bin = DaemonBin(opt, argv[0]);
    for (int i = 0; i < opt.daemons; ++i) {
      children.push_back(SpawnDaemon(bin, server.port(), i, opt.heap_kb, opt.trace_dir));
    }
  }

  int failures = 0;
  if (!server.WaitForNodes(opt.daemons, opt.join_timeout_ms)) {
    std::fprintf(stderr, "net_driver: only %d/%d daemons joined in %dms\n",
                 server.num_nodes(), opt.daemons, opt.join_timeout_ms);
    failures = 1;
  } else {
    itask::net::JobSpec spec;
    spec.nodes = opt.nodes;
    spec.heap_kb = opt.heap_kb;
    spec.dataset_kb = opt.dataset_kb;
    spec.deadline_ms = opt.deadline_ms;
    spec.fault_tolerance = opt.ft;
    spec.skew = opt.skew;
    if (opt.gran_kb > 0) {
      spec.granularity_bytes = opt.gran_kb << 10;
    }
    const std::uint64_t trace_id = itask::obs::TraceIdFromSeed(spec.seed);

    for (const std::string& app : opt.apps) {
      // Local reference run with the exact spec the daemons will execute.
      itask::cluster::ClusterConfig cc;
      cc.num_nodes = spec.nodes;
      cc.heap.capacity_bytes = spec.heap_kb << 10;
      cc.heap.real_pauses = false;
      ApplySkew(&cc, spec.heap_kb, spec.skew);
      itask::cluster::Cluster cluster(cc);
      itask::apps::AppConfig ac;
      ac.dataset_bytes = spec.dataset_kb << 10;
      ac.tpch_scale = spec.tpch_scale;
      ac.max_workers = spec.max_workers;
      ac.granularity_bytes = spec.granularity_bytes;
      ac.seed = spec.seed;
      ac.deadline_ms = spec.deadline_ms;
      ac.fault_tolerance = spec.fault_tolerance;
      const auto reference =
          itask::apps::RunHyracksApp(app, cluster, ac, itask::apps::Mode::kITask);
      if (!reference.metrics.succeeded) {
        std::fprintf(stderr, "net_driver: local reference for %s failed: %s\n",
                     app.c_str(), reference.metrics.Summary().c_str());
        ++failures;
        continue;
      }
      std::printf("[ref] %s checksum=%016llx records=%llu\n", app.c_str(),
                  static_cast<unsigned long long>(reference.checksum),
                  static_cast<unsigned long long>(reference.records));
      std::fflush(stdout);

      itask::common::ByteBuffer config;
      itask::net::EncodeJobSpec(spec, &config);
      for (int node = 0; node < server.num_nodes(); ++node) {
        if (!server.Dispatch(node, app, config, trace_id)) {
          std::fprintf(stderr, "[FAIL] %s: dispatch to daemon %d failed\n", app.c_str(),
                       node);
          ++failures;
        }
      }
      for (int node = 0; node < server.num_nodes(); ++node) {
        itask::net::JobResultMsg result;
        if (!server.WaitResult(node, opt.result_timeout_ms, &result)) {
          std::fprintf(stderr, "[FAIL] %s: no result from daemon %d (%s)\n", app.c_str(),
                       node, server.node(node).name.c_str());
          ++failures;
          continue;
        }
        const bool match = result.success && result.checksum == reference.checksum &&
                           result.records == reference.records;
        std::printf("[%s] %s daemon %d (%s): checksum=%016llx records=%llu\n",
                    match ? "ok" : "FAIL", app.c_str(), node,
                    server.node(node).name.c_str(),
                    static_cast<unsigned long long>(result.checksum),
                    static_cast<unsigned long long>(result.records));
        std::fflush(stdout);
        if (!match) {
          ++failures;
        }
      }
    }
  }

  // Cluster metrics rollup: daemons ship cumulative snapshots on the
  // heartbeat cadence, so give the final post-job snapshot one shipping
  // interval (plus slack) to arrive before reading.
  {
    int reporting = 0;
    itask::common::RunMetrics rollup;
    for (int attempt = 0; attempt < 20; ++attempt) {
      rollup = server.ClusterMetrics(&reporting);
      if (reporting >= server.num_nodes() && server.num_nodes() > 0) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (reporting > 0) {
      std::printf("[metrics] %d/%d daemon(s) reporting: %s events_dropped=%llu\n",
                  reporting, server.num_nodes(), rollup.Summary().c_str(),
                  static_cast<unsigned long long>(rollup.events_dropped));
      std::fflush(stdout);
    }
  }

  if (!opt.trace_dir.empty()) {
    const std::string path = opt.trace_dir + "/driver-ctrl.trace.json";
    itask::obs::TraceProcessMeta meta;
    meta.name = "driver";
    // The driver's tracer IS the cluster reference clock (daemon offsets are
    // measured against it at join), so its epoch needs no correction.
    meta.epoch_us = ctrl_tracer.EpochSteadyNs() / 1000;
    meta.events_dropped = ctrl_tracer.stats().dropped;
    std::ofstream out(path);
    itask::obs::WriteChromeTrace(out, ctrl_tracer.Snapshot(), meta);
    std::printf("net_driver: wrote ctrl trace %s\n", path.c_str());
  }

  server.Shutdown();
  for (const pid_t pid : children) {
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  if (failures > 0) {
    std::fprintf(stderr, "net_driver: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("net_driver: all %zu app(s) verified across %d daemon(s)\n",
              opt.apps.size(), opt.daemons);
  return 0;
}
