// trace_dump: inspect Chrome trace_event JSON files written by the obs
// exporters (bench_fig11_heaps, or any app run with trace_active).
//
//   trace_dump <file.trace.json>            per-event-name counts + span
//   trace_dump --timeline <file.trace.json> chronological listing
//   trace_dump --io <file.trace.json>       spill I/O view: queue depth
//                                           over time, cancelled writes, and
//                                           per-node compression ratios
//   trace_dump --demo [out.trace.json]      run a small traced WC job and
//                                           write/summarize its trace
//   trace_dump --merge out.json in1 in2...  stitch per-process trace files
//                                           (net_driver --trace-dir output)
//                                           into one cluster-wide Chrome
//                                           trace: epoch-aligned timestamps,
//                                           per-file pid lanes, flow-pair
//                                           accounting on stdout
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "apps/hyracks_apps.h"
#include "bench/bench_util.h"
#include "obs/trace_export.h"

namespace {

using namespace itask;

const char* LoadSourceName(std::uint32_t source) {
  switch (source) {
    case 0: return "pending_cache";
    case 1: return "inflight_wait";
    case 2: return "disk";
    case 3: return "prefetched";
    default: return "?";
  }
}

// Per-node rollup of the spill store's I/O events.
struct IoNodeStats {
  std::uint64_t cancelled = 0;
  std::uint64_t cancelled_bytes = 0;
  std::uint64_t codec_raw = 0;
  std::uint64_t codec_framed = 0;
  std::uint64_t stalls = 0;
  std::uint64_t stall_ns = 0;
  std::map<std::uint32_t, std::uint64_t> stalls_by_source;
  std::uint64_t peak_depth = 0;
};

int DumpIo(const std::vector<obs::ParsedEvent>& events) {
  std::map<int, IoNodeStats> nodes;
  double t_min = events.front().ts_us;
  double t_max = t_min;
  std::size_t io_events = 0;
  for (const obs::ParsedEvent& e : events) {
    t_min = std::min(t_min, e.ts_us);
    t_max = std::max(t_max, e.ts_us + e.dur_us);
    if (e.name.rfind("io_", 0) != 0) {
      continue;
    }
    ++io_events;
    IoNodeStats& n = nodes[e.pid];
    if (e.name == "io_write_cancelled") {
      ++n.cancelled;
      n.cancelled_bytes += e.a;
    } else if (e.name == "io_codec") {
      n.codec_raw += e.a;
      n.codec_framed += e.b;
    } else if (e.name == "io_read_stall") {
      ++n.stalls;
      n.stall_ns += e.a;
      ++n.stalls_by_source[e.aux];
    } else if (e.name == "io_queue_depth") {
      n.peak_depth = std::max(n.peak_depth, e.a + e.b);
    }
  }
  if (io_events == 0) {
    std::printf("no async io events in trace (run with the I/O engine enabled)\n");
    return 0;
  }
  // Queue depth over time: bucket the span and chart the max observed
  // queued+inflight depth (across all nodes) in each bucket.
  constexpr int kBuckets = 48;
  const double span = std::max(t_max - t_min, 1e-9);
  std::vector<std::uint64_t> depth(kBuckets, 0);
  std::uint64_t global_peak = 0;
  for (const obs::ParsedEvent& e : events) {
    if (e.name != "io_queue_depth") {
      continue;
    }
    int bucket = static_cast<int>((e.ts_us - t_min) / span * kBuckets);
    bucket = std::min(std::max(bucket, 0), kBuckets - 1);
    const std::uint64_t d = e.a + e.b;
    depth[static_cast<std::size_t>(bucket)] =
        std::max(depth[static_cast<std::size_t>(bucket)], d);
    global_peak = std::max(global_peak, d);
  }
  std::printf("async io: %zu events over %.3fms, %zu nodes, peak queue depth %llu\n",
              io_events, span / 1000.0, nodes.size(),
              static_cast<unsigned long long>(global_peak));
  if (global_peak > 0) {
    constexpr int kHeight = 8;
    std::printf("  queue depth over time (max per %.3fms bucket):\n", span / kBuckets / 1000.0);
    for (int row = kHeight; row >= 1; --row) {
      const double threshold = static_cast<double>(global_peak) * row / kHeight;
      std::string line = "  ";
      line += (row == kHeight) ? std::to_string(global_peak) : std::string(" ");
      while (line.size() < 6) {
        line += ' ';
      }
      line += '|';
      for (int b = 0; b < kBuckets; ++b) {
        line += static_cast<double>(depth[static_cast<std::size_t>(b)]) >= threshold ? '#' : ' ';
      }
      std::printf("%s\n", line.c_str());
    }
    std::printf("     0+%s\n", std::string(kBuckets, '-').c_str());
  }
  for (const auto& [pid, n] : nodes) {
    std::printf("  node%d: cancelled_writes=%llu (%lluB) peak_depth=%llu", pid,
                static_cast<unsigned long long>(n.cancelled),
                static_cast<unsigned long long>(n.cancelled_bytes),
                static_cast<unsigned long long>(n.peak_depth));
    if (n.codec_raw > 0) {
      std::printf(" compression=%.3f (%llu/%lluB)",
                  static_cast<double>(n.codec_framed) / static_cast<double>(n.codec_raw),
                  static_cast<unsigned long long>(n.codec_framed),
                  static_cast<unsigned long long>(n.codec_raw));
    }
    if (n.stalls > 0) {
      std::printf(" read_stalls=%llu (%.3fms:", static_cast<unsigned long long>(n.stalls),
                  static_cast<double>(n.stall_ns) / 1e6);
      bool first = true;
      for (const auto& [source, count] : n.stalls_by_source) {
        std::printf("%s%s=%llu", first ? " " : ", ", LoadSourceName(source),
                    static_cast<unsigned long long>(count));
        first = false;
      }
      std::printf(")");
    }
    std::printf("\n");
  }
  return 0;
}

int DumpFile(const std::string& path, bool timeline, bool io) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_dump: cannot open %s\n", path.c_str());
    return 1;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  obs::ParsedTrace trace;
  std::string error;
  if (!obs::ParseChromeTrace(ss.str(), &trace, &error)) {
    std::fprintf(stderr, "trace_dump: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const std::vector<obs::ParsedEvent>& events = trace.events;
  if (trace.has_meta) {
    std::printf("%s: proc=%s epoch_us=%llu events_dropped=%llu\n", path.c_str(),
                trace.process_name.empty() ? "?" : trace.process_name.c_str(),
                static_cast<unsigned long long>(trace.epoch_us),
                static_cast<unsigned long long>(trace.events_dropped));
  }
  if (events.empty()) {
    std::printf("%s: empty trace\n", path.c_str());
    return 0;
  }
  if (io) {
    return DumpIo(events);
  }
  if (timeline) {
    for (const obs::ParsedEvent& e : events) {
      if (e.dur_us > 0) {
        std::printf("%12.3fms pid=%d tid=%d %-22s dur=%.3fms\n", e.ts_us / 1000.0, e.pid, e.tid,
                    e.name.c_str(), e.dur_us / 1000.0);
      } else {
        std::printf("%12.3fms pid=%d tid=%d %-22s\n", e.ts_us / 1000.0, e.pid, e.tid,
                    e.name.c_str());
      }
    }
    return 0;
  }
  std::map<std::string, std::size_t> by_name;
  std::map<int, std::size_t> by_pid;
  double t_min = events.front().ts_us;
  double t_max = t_min;
  for (const obs::ParsedEvent& e : events) {
    ++by_name[e.name];
    ++by_pid[e.pid];
    t_min = std::min(t_min, e.ts_us);
    t_max = std::max(t_max, e.ts_us + e.dur_us);
  }
  std::printf("%s: %zu events over %.3fms, %zu nodes\n", path.c_str(), events.size(),
              (t_max - t_min) / 1000.0, by_pid.size());
  for (const auto& [name, count] : by_name) {
    std::printf("  %-22s %8zu\n", name.c_str(), count);
  }
  return 0;
}

// Stitch N per-process trace files into one Chrome trace. Prints the merge
// stats (flow pairing + ring drops) so scripts can assert on cross-process
// causality without parsing JSON.
int MergeFiles(const std::vector<std::string>& inputs, const std::string& out_path) {
  std::vector<std::string> jsons;
  jsons.reserve(inputs.size());
  for (const std::string& in_path : inputs) {
    std::ifstream in(in_path);
    if (!in) {
      std::fprintf(stderr, "trace_dump: cannot open %s\n", in_path.c_str());
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    jsons.push_back(ss.str());
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "trace_dump: cannot write %s\n", out_path.c_str());
    return 1;
  }
  obs::MergedTraceStats stats;
  std::string error;
  if (!obs::MergeChromeTraces(jsons, out, &stats, &error)) {
    std::fprintf(stderr, "trace_dump: merge failed: %s\n", error.c_str());
    return 1;
  }
  std::printf("merged %zu files -> %s: %zu events, %zu flow pairs "
              "(%zu cross-process), %zu unmatched, events_dropped=%llu\n",
              stats.files, out_path.c_str(), stats.events, stats.flow_pairs,
              stats.cross_process_pairs, stats.unmatched_flows,
              static_cast<unsigned long long>(stats.events_dropped));
  return 0;
}

int RunDemo(const std::string& out_path) {
  cluster::Cluster cl(bench::PaperCluster());
  apps::AppConfig config;
  config.dataset_bytes = 2 << 20;
  config.trace_active = true;
  const apps::AppResult r = apps::RunWordCount(cl, config, apps::Mode::kITask);
  std::printf("demo WC run: %s\n", r.metrics.Summary().c_str());
  const obs::TracerStats stats = cl.tracer().stats();
  obs::WriteTraceSummary(std::cout, r.events, &stats);
  {
    std::ofstream out(out_path);
    obs::WriteChromeTrace(out, r.events);
  }
  std::printf("wrote %zu events to %s (open in chrome://tracing)\n", r.events.size(),
              out_path.c_str());
  return r.metrics.succeeded ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool timeline = false;
  bool io = false;
  bool demo = false;
  bool merge = false;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--timeline") == 0) {
      timeline = true;
    } else if (std::strcmp(argv[i], "--io") == 0) {
      io = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--merge") == 0) {
      merge = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: trace_dump [--timeline|--io] <file.trace.json>\n"
                  "       trace_dump --demo [out.trace.json]\n"
                  "       trace_dump --merge <out.trace.json> <in1> <in2> ...\n");
      return 0;
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (merge) {
    if (paths.size() < 2) {
      std::fprintf(stderr,
                   "usage: trace_dump --merge <out.trace.json> <in1> [in2 ...]\n");
      return 1;
    }
    const std::string out_path = paths.front();
    return MergeFiles(std::vector<std::string>(paths.begin() + 1, paths.end()),
                      out_path);
  }
  if (demo) {
    return RunDemo(paths.empty() ? "demo.trace.json" : paths.front());
  }
  if (paths.empty()) {
    std::fprintf(stderr, "usage: trace_dump [--timeline|--io] <file.trace.json> (or --demo)\n");
    return 1;
  }
  return DumpFile(paths.front(), timeline, io);
}
