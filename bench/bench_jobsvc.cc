// bench_jobsvc: two-tenant job-service bench under a pressure storm.
//
// One shared small-heap cluster runs two tenants through jobsvc::JobService:
//
//   - "storm"  (low priority): repeated WordCount jobs whose working set is a
//     large multiple of their declared budget — a sustained OOM/pressure
//     storm that keeps the shared heaps in the LUGC band and makes the storm
//     tenant the arbitration victim (it is the job most over budget).
//   - "victim" (high priority): small HeapSort jobs — the latency-sensitive
//     tenant whose completion times measure how well per-job budgets isolate
//     it from the storm next door.
//
// Emits BENCH_jobsvc.json in the working directory: one object with
// aggregate throughput plus per-tenant completion-latency rows (p50/p99 of
// submit -> done, which includes admission queueing). With a handful of jobs
// per tenant the p99 is the max — honest at this scale, and stable because
// every job at this heap size interrupts, spills and reloads many times.
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "apps/hyracks_apps.h"
#include "bench/bench_util.h"
#include "common/spin.h"
#include "jobsvc/job_service.h"

namespace {

using itask::jobsvc::JobOutcome;
using itask::jobsvc::JobRecord;
using itask::jobsvc::JobState;

struct TenantSpec {
  std::string name;
  std::string app;  // Hyracks app key ("WC", "HS", ...).
  int priority = 0;
  std::uint64_t node_budget_bytes = 0;
  std::uint64_t dataset_bytes = 0;
  int jobs = 3;
};

JobOutcome RunTenantJob(const TenantSpec& spec, itask::cluster::Cluster& cluster,
                        const itask::cluster::TenantBinding& binding) {
  itask::apps::AppConfig config;
  config.dataset_bytes = spec.dataset_bytes;
  config.granularity_bytes = 16 << 10;
  config.max_workers = binding.max_workers > 0 ? binding.max_workers : 4;
  config.deadline_ms = 120000.0;
  config.tenant = binding;
  const itask::apps::AppResult result =
      itask::apps::RunHyracksApp(spec.app, cluster, config, itask::apps::Mode::kITask);
  JobOutcome outcome;
  outcome.ok = result.metrics.succeeded;
  outcome.checksum = result.checksum;
  outcome.records = result.records;
  outcome.audit_violations = result.audit_violations;
  return outcome;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto index = static_cast<std::size_t>(q * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(index, values.size() - 1)];
}

}  // namespace

int main() {
  const double scale = itask::bench::BenchScale();
  const std::uint64_t heap_bytes = 8 << 20;

  itask::cluster::ClusterConfig cc = itask::bench::PaperCluster(heap_bytes, /*num_nodes=*/2);
  cc.heap.real_pauses = false;  // Pause accounting without burning CPU.
  itask::cluster::Cluster cluster(cc);

  itask::jobsvc::JobServiceConfig svc_config;
  svc_config.max_concurrent = 2;   // The two tenants genuinely overlap.
  svc_config.worker_slots = 8;
  itask::jobsvc::JobService service(cluster, svc_config);

  // The storm tenant's working set is ~2.5x its budget (it will shed under
  // pressure); the victim fits comfortably inside its own budget.
  std::vector<TenantSpec> tenants = {
      {"storm", "WC", /*priority=*/0, /*budget=*/1 << 20,
       static_cast<std::uint64_t>(2.5 * 1048576.0 * scale), /*jobs=*/3},
      {"victim", "HS", /*priority=*/2, /*budget=*/2 << 20,
       static_cast<std::uint64_t>(0.75 * 1048576.0 * scale), /*jobs=*/3},
  };

  itask::common::Stopwatch wall;
  struct Submitted {
    const TenantSpec* tenant;
    std::uint64_t ticket;
  };
  std::vector<Submitted> submitted;
  // Interleave submissions so both tenants contend from the start.
  const int max_jobs = std::max(tenants[0].jobs, tenants[1].jobs);
  for (int round = 0; round < max_jobs; ++round) {
    for (const TenantSpec& tenant : tenants) {
      if (round >= tenant.jobs) {
        continue;
      }
      itask::jobsvc::JobSubmission submission;
      submission.name = tenant.name + "#" + std::to_string(round);
      submission.priority = tenant.priority;
      submission.node_budget_bytes = tenant.node_budget_bytes;
      const TenantSpec* spec = &tenant;
      submission.run = [spec](itask::cluster::Cluster& c,
                              const itask::cluster::TenantBinding& b) {
        return RunTenantJob(*spec, c, b);
      };
      submitted.push_back({spec, service.Submit(std::move(submission))});
    }
  }
  service.Drain();
  const double wall_ms = wall.ElapsedMs();

  // ---- Per-tenant and aggregate rollups ----
  std::string tenants_json;
  std::uint64_t total_records = 0;
  std::uint64_t total_completed = 0;
  std::uint64_t total_failed = 0;
  bool ok = true;
  for (const TenantSpec& tenant : tenants) {
    std::vector<double> completion_ms;
    std::uint64_t records = 0;
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t deferrals = 0;
    for (const Submitted& s : submitted) {
      if (s.tenant != &tenant) {
        continue;
      }
      const JobRecord record = service.Status(s.ticket);
      completion_ms.push_back(record.queued_ms + record.run_ms);
      records += record.outcome.records;
      deferrals += record.deferrals;
      if (record.state == JobState::kDone && record.outcome.audit_violations.empty()) {
        ++completed;
      } else {
        ++failed;
        ok = false;
      }
    }
    total_records += records;
    total_completed += completed;
    total_failed += failed;
    const double tenant_busy_ms =
        std::accumulate(completion_ms.begin(), completion_ms.end(), 0.0);
    char row[512];
    std::snprintf(row, sizeof(row),
                  "%s{\"name\":\"%s\",\"app\":\"%s\",\"priority\":%d,"
                  "\"node_budget_bytes\":%llu,\"jobs\":%d,\"completed\":%llu,"
                  "\"failed\":%llu,\"deferrals\":%llu,\"records\":%llu,"
                  "\"p50_completion_ms\":%.3f,\"p99_completion_ms\":%.3f,"
                  "\"records_per_sec\":%.1f}",
                  tenants_json.empty() ? "" : ",", tenant.name.c_str(), tenant.app.c_str(),
                  tenant.priority, static_cast<unsigned long long>(tenant.node_budget_bytes),
                  tenant.jobs, static_cast<unsigned long long>(completed),
                  static_cast<unsigned long long>(failed),
                  static_cast<unsigned long long>(deferrals),
                  static_cast<unsigned long long>(records), Percentile(completion_ms, 0.50),
                  Percentile(completion_ms, 0.99),
                  tenant_busy_ms > 0.0 ? static_cast<double>(records) * 1e3 / tenant_busy_ms
                                       : 0.0);
    tenants_json += row;
    std::printf("[jobsvc] tenant=%-6s jobs=%d done=%llu p50=%.0fms p99=%.0fms deferrals=%llu\n",
                tenant.name.c_str(), tenant.jobs, static_cast<unsigned long long>(completed),
                Percentile(completion_ms, 0.50), Percentile(completion_ms, 0.99),
                static_cast<unsigned long long>(deferrals));
  }

  const itask::jobsvc::JobService::Stats stats = service.stats();
  const std::string path = "BENCH_jobsvc.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bench_jobsvc: cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\"bench\":\"jobsvc\",\"nodes\":%d,\"heap_bytes\":%llu,"
               "\"max_concurrent\":%d,"
               "\"aggregate\":{\"jobs\":%llu,\"completed\":%llu,\"failed\":%llu,"
               "\"deferrals\":%llu,\"wall_ms\":%.3f,\"records\":%llu,"
               "\"records_per_sec\":%.1f},"
               "\"tenants\":[%s],\"ok\":%s}\n",
               cluster.size(), static_cast<unsigned long long>(heap_bytes),
               service.config().max_concurrent,
               static_cast<unsigned long long>(stats.submitted),
               static_cast<unsigned long long>(total_completed),
               static_cast<unsigned long long>(total_failed),
               static_cast<unsigned long long>(stats.deferrals), wall_ms,
               static_cast<unsigned long long>(total_records),
               wall_ms > 0.0 ? static_cast<double>(total_records) * 1e3 / wall_ms : 0.0,
               tenants_json.c_str(), ok ? "true" : "false");
  std::fclose(out);
  std::printf("[jobsvc] aggregate: %llu jobs, %.0f ms wall, %llu records -> %s\n",
              static_cast<unsigned long long>(stats.submitted), wall_ms,
              static_cast<unsigned long long>(total_records), path.c_str());
  return ok ? 0 : 1;
}
