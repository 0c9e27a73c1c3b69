// Shared setup for the paper-reproduction bench harnesses.
//
// The paper's evaluation ran on an 11-node EC2 cluster with 12GB heaps and
// 3GB-150GB inputs. The simulated reproduction scales everything down ~1500x
// (8MB heaps, 1-24MB inputs) so each harness runs in seconds; the
// ITASK_BENCH_SCALE environment variable (default 1.0) scales dataset sizes
// up or down for longer or quicker runs.
#ifndef ITASK_BENCH_BENCH_UTIL_H_
#define ITASK_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "apps/common.h"
#include "cluster/cluster.h"
#include "common/env.h"

namespace itask::bench {

inline double BenchScale() { return common::EnvPositiveDouble("ITASK_BENCH_SCALE", 1.0); }

// Paper-equivalent cluster: the 11-node EC2 cluster, scaled down. Heaps use
// real (spun) GC pauses so GC cost appears in wall time.
inline cluster::ClusterConfig PaperCluster(std::uint64_t heap_bytes = 8 << 20,
                                           int num_nodes = 4) {
  cluster::ClusterConfig cc;
  cc.num_nodes = num_nodes;
  cc.heap.capacity_bytes = heap_bytes;
  cc.heap.real_pauses = true;
  cc.heap.gc_ns_per_byte = 0.25;  // ~2ms per full 8MB scan.
  return cc;
}

// Scaled stand-ins for the paper's dataset-size axes.
// Hyracks text/graph axis (paper Table 3: 3GB..72GB -> 1..24 "units").
inline std::vector<std::uint64_t> HyracksSizesBytes() {
  const double s = BenchScale();
  std::vector<std::uint64_t> sizes;
  for (double mb : {1.0, 3.0, 5.0, 9.0, 14.0, 24.0}) {
    sizes.push_back(static_cast<std::uint64_t>(mb * s * 1024 * 1024));
  }
  return sizes;
}

// TPC-H axis (paper Table 4: 10x..150x).
inline std::vector<double> TpchScales() {
  const double s = BenchScale();
  return {0.5 * s, 1.0 * s, 1.5 * s, 2.5 * s, 5.0 * s, 7.5 * s};
}

// Labels matching the paper's axes, aligned with the vectors above.
inline std::vector<std::string> HyracksSizeLabels() {
  return {"3GB", "10GB", "14GB", "27GB", "44GB", "72GB"};
}
inline std::vector<std::string> TpchScaleLabels() {
  return {"10x", "20x", "30x", "50x", "100x", "150x"};
}

inline std::string StatusOf(const common::RunMetrics& m) {
  if (m.succeeded) {
    return "ok";
  }
  return m.out_of_memory ? "OME" : "fail";
}

// Whether an app consumes the TPC-H axis (HJ/GR) or the bytes axis.
inline bool UsesTpch(const std::string& app) { return app == "HJ" || app == "GR"; }

inline apps::AppConfig ConfigForApp(const std::string& app, std::size_t size_index) {
  apps::AppConfig config;
  if (UsesTpch(app)) {
    config.tpch_scale = TpchScales()[size_index];
  } else {
    config.dataset_bytes = HyracksSizesBytes()[size_index];
  }
  return config;
}

inline std::string SizeLabel(const std::string& app, std::size_t size_index) {
  return UsesTpch(app) ? TpchScaleLabels()[size_index] : HyracksSizeLabels()[size_index];
}

// Appends one data point to the bench's JSON-lines file so sweeps can be
// collected and plotted. The file is bench_<bench>.bench.jsonl in the
// working directory (truncated on the harness's first row). Each row labels
// the point and carries every RunMetrics field (RunMetrics::AppendJson).
inline void AppendBenchJsonRow(const std::string& bench, const std::string& app,
                               const std::string& label, const std::string& version,
                               const common::RunMetrics& m) {
  static std::ofstream out;
  if (!out.is_open()) {
    const std::string path = "bench_" + bench + ".bench.jsonl";
    out.open(path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "bench: cannot open %s for JSON rows\n", path.c_str());
      return;
    }
  }
  std::string row = "{\"bench\":\"" + bench + "\",\"app\":\"" + app + "\",\"label\":\"" + label +
                    "\",\"version\":\"" + version + "\",\"status\":\"" + StatusOf(m) + "\",";
  m.AppendJson(&row);
  out << row << "}\n";
  out.flush();
}

}  // namespace itask::bench

#endif  // ITASK_BENCH_BENCH_UTIL_H_
