// Table 2: breakdown of the memory the staged-release mechanism reclaimed
// while the ITask versions of the five Hadoop problems ran under pressure:
//   Processed Input  — bytes of already-processed input dropped at interrupts;
//   Final Results    — bytes of final results pushed out early at interrupts;
//   Intermediate     — bytes of tagged intermediate results parked for merge;
//   Lazy Serialization — bytes the partition manager spilled to disk.
//
// Expected shape (paper §6.1): map-crashing problems (MSA, IMC, CRP) save
// mostly through final results; reduce-crashing problems (IIB, WCM) through
// intermediate results + lazy serialization.
#include <cstdio>

#include "apps/hadoop_problems.h"
#include "bench/bench_util.h"
#include "common/table_printer.h"

using namespace itask;

int main() {
  const double s = bench::BenchScale();
  const auto mb = [s](double v) { return static_cast<std::uint64_t>(v * s * 1024 * 1024); };

  struct Row {
    std::string name;
    apps::HadoopProblemConfig config;
    std::uint64_t heap;
  };
  std::vector<Row> rows;
  {
    Row r{.name = "MSA", .config = {}, .heap = 8 << 20};
    r.config.granularity_bytes = 1 << 20;  // Scaled HDFS split.
    r.config.dataset_bytes = mb(4);
    r.config.max_workers = 6;
    r.config.msa_table_bytes = 3 << 20;
    rows.push_back(r);
  }
  {
    Row r{.name = "IMC", .config = {}, .heap = 8 << 20};
    r.config.granularity_bytes = 1 << 20;  // Scaled HDFS split.
    r.config.dataset_bytes = mb(10);
    r.config.max_workers = 8;
    rows.push_back(r);
  }
  {
    Row r{.name = "IIB", .config = {}, .heap = 8 << 20};
    r.config.granularity_bytes = 1 << 20;  // Scaled HDFS split.
    r.config.dataset_bytes = mb(8);
    r.config.max_workers = 8;
    rows.push_back(r);
  }
  {
    Row r{.name = "WCM", .config = {}, .heap = 8 << 20};
    r.config.granularity_bytes = 1 << 20;  // Scaled HDFS split.
    r.config.dataset_bytes = mb(6);
    r.config.max_workers = 8;
    rows.push_back(r);
  }
  {
    Row r{.name = "CRP", .config = {}, .heap = 12 << 20};
    r.config.granularity_bytes = 1 << 20;  // Scaled HDFS split.
    r.config.dataset_bytes = mb(2);
    r.config.max_workers = 6;
    r.config.crp_amplification = 1200;
    r.config.granularity_bytes = 64 << 10;
    rows.push_back(r);
  }

  std::printf("=== Table 2: staged-release memory savings breakdown (ITask runs) ===\n\n");
  common::TablePrinter table({"Name", "Status", "ProcessedInput", "FinalResults",
                              "Intermediate", "LazySerialization", "Interrupts", "GCp95"});
  for (const Row& row : rows) {
    cluster::Cluster cl(bench::PaperCluster(row.heap, /*num_nodes=*/4));
    const apps::AppResult r = apps::RunHadoopProblem(row.name, cl, row.config, apps::Mode::kITask);
    // The breakdown columns are the per-node staged-release counters summed
    // over nodes; GCp95 comes from the merged GC-pause histogram.
    char gc_p95[32];
    std::snprintf(gc_p95, sizeof(gc_p95), "%.2fms", r.metrics.gc_pause_hist.Quantile(0.95) / 1e6);
    table.AddRow({row.name, bench::StatusOf(r.metrics),
                  common::FormatBytes(r.metrics.released_processed_input_bytes),
                  common::FormatBytes(r.metrics.released_final_result_bytes),
                  common::FormatBytes(r.metrics.parked_intermediate_bytes),
                  common::FormatBytes(r.metrics.lazy_serialized_bytes),
                  std::to_string(r.metrics.interrupts), gc_p95});
    bench::AppendBenchJsonRow("table2_breakdown", row.name,
                              common::FormatBytes(row.config.dataset_bytes), "ITask",
                              r.metrics);
  }
  table.Print();
  return 0;
}
