// JobService: a driver-side multi-tenant job service for one shared Cluster.
//
// Callers Submit() workload factories with a declared priority and memory
// demand; the service resolves each job's per-node budget (the declared
// value, or a fair default), admits jobs against the cluster's
// heap capacity through the AdmissionController, and runs every admitted job
// on its own driver thread under a memsim::JobScope — so all of the job's
// allocations land in its per-job heap account and the IRS monitors can
// arbitrate pressure *between* jobs (see ManagedHeap::PressureVictimRank).
//
// Scheduling is fair-share + priority: concurrency slots admit in strict
// priority order (FIFO within a priority, head-of-line bypass on budget
// misses), and each admitted job receives a priority-weighted share of the
// cluster's per-node worker slots via TenantBinding::max_workers.
#ifndef ITASK_JOBSVC_JOB_SERVICE_H_
#define ITASK_JOBSVC_JOB_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/itask_job.h"
#include "jobsvc/admission.h"

namespace itask::jobsvc {

// What a tenant's run reports back, independent of which engine ran it.
struct JobOutcome {
  bool ok = false;
  std::uint64_t checksum = 0;  // Order-independent result fingerprint.
  std::uint64_t records = 0;
  std::vector<std::string> audit_violations;  // Chaos-audit findings, if any.
};

struct JobSubmission {
  std::string name;
  int priority = 0;
  // Declared per-node memory demand; 0 = an equal slice of the admissible
  // window per concurrency slot.
  std::uint64_t node_budget_bytes = 0;
  // Runs the workload on the shared cluster. The binding carries the job's
  // account id, budget, and fair-share worker cap; the callee must pass it
  // through to ItaskJob (apps: AppConfig::tenant). Invoked on a dedicated
  // service thread that already holds the job's JobScope.
  std::function<JobOutcome(cluster::Cluster&, const cluster::TenantBinding&)> run;
};

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning,
  kDone,
  kFailed,
};

struct JobRecord {
  std::uint64_t ticket = 0;
  std::string name;
  int priority = 0;
  std::uint64_t node_budget_bytes = 0;
  memsim::JobId account = memsim::kNoJob;  // Heap account while running.
  int max_workers = 0;                     // Fair share granted at admission.
  JobState state = JobState::kQueued;
  double queued_ms = 0.0;  // Submit -> admission.
  double run_ms = 0.0;     // Admission -> completion.
  std::uint64_t deferrals = 0;  // Admission passes that skipped this job.
  JobOutcome outcome;
};

struct JobServiceConfig {
  int max_concurrent = 4;  // Concurrency slots (capped at the account space).
  double headroom_fraction = 0.15;
  int worker_slots = 8;  // Per-node worker slots split across running jobs.
};

class JobService {
 public:
  JobService(cluster::Cluster& cluster, JobServiceConfig config);
  ~JobService();

  JobService(const JobService&) = delete;
  JobService& operator=(const JobService&) = delete;

  // Queues a submission and kicks admission. Returns the job's ticket.
  std::uint64_t Submit(JobSubmission submission);

  // Blocks until every submitted job has completed (and joins their threads).
  void Drain();

  // Snapshot of a job's record (any state). Unknown tickets return a default
  // record with ticket == 0.
  JobRecord Status(std::uint64_t ticket) const;
  // All records, submission order.
  std::vector<JobRecord> Records() const;

  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t deferrals = 0;  // Total deferral observations, not jobs.
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
  };
  Stats stats() const;

  const JobServiceConfig& config() const { return config_; }

 private:
  std::uint64_t ResolveBudget(const JobSubmission& submission);
  void PumpLocked();
  void RunJob(std::uint64_t ticket, JobSubmission submission);

  cluster::Cluster& cluster_;
  JobServiceConfig config_;

  mutable std::mutex mu_;
  std::condition_variable idle_cv_;
  AdmissionController admission_;
  std::map<std::uint64_t, JobRecord> records_;
  std::map<std::uint64_t, JobSubmission> pending_;  // Queued, not yet running.
  std::vector<memsim::JobId> free_accounts_;        // LIFO of [1, kMaxJobAccounts).
  std::vector<std::thread> threads_;
  std::map<std::uint64_t, std::chrono::steady_clock::time_point> submit_time_;
  std::uint64_t next_ticket_ = 1;
  int running_ = 0;
  Stats stats_;
};

}  // namespace itask::jobsvc

#endif  // ITASK_JOBSVC_JOB_SERVICE_H_
