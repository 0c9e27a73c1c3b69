#include "jobsvc/job_service.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/event.h"

namespace itask::jobsvc {

namespace {

double ElapsedMs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

JobService::JobService(cluster::Cluster& cluster, JobServiceConfig config)
    : cluster_(cluster),
      config_(config),
      admission_(
          BudgetConfig{cluster.config().heap.capacity_bytes, config.headroom_fraction},
          // One heap account per concurrent job, and account 0 is reserved
          // for unattributed bytes — cap concurrency at the account space.
          std::min(config.max_concurrent, static_cast<int>(memsim::kMaxJobAccounts) - 1)) {
  config_.max_concurrent = admission_.max_concurrent();
  config_.worker_slots = std::max(config_.worker_slots, 1);
  for (memsim::JobId id = static_cast<memsim::JobId>(memsim::kMaxJobAccounts) - 1; id >= 1;
       --id) {
    free_accounts_.push_back(id);  // LIFO: account 1 is handed out first.
  }
}

JobService::~JobService() { Drain(); }

std::uint64_t JobService::ResolveBudget(const JobSubmission& submission) {
  if (submission.node_budget_bytes > 0) {
    return submission.node_budget_bytes;
  }
  // Fair default: an equal slice of the admissible window per slot.
  return std::max<std::uint64_t>(
      admission_.ledger().admissible_bytes() /
          static_cast<std::uint64_t>(config_.max_concurrent),
      1);
}

std::uint64_t JobService::Submit(JobSubmission submission) {
  const std::uint64_t budget = ResolveBudget(submission);

  std::lock_guard lock(mu_);
  const std::uint64_t ticket = next_ticket_++;
  JobRecord record;
  record.ticket = ticket;
  record.name = submission.name;
  record.priority = submission.priority;
  record.node_budget_bytes = budget;
  records_[ticket] = record;
  submit_time_[ticket] = std::chrono::steady_clock::now();
  pending_[ticket] = std::move(submission);
  admission_.Enqueue({ticket, record.name, record.priority, budget});
  ++stats_.submitted;
  PumpLocked();
  return ticket;
}

void JobService::PumpLocked() {
  std::vector<Deferral> deferred;
  std::vector<JobRequest> admitted = admission_.AdmitRunnable(running_, &deferred);
  for (const Deferral& d : deferred) {
    JobRecord& record = records_[d.ticket];
    ++record.deferrals;
    ++stats_.deferrals;
    cluster_.tracer().Emit(obs::EventKind::kJobDeferred, 0, d.shortfall_bytes,
                           admission_.queued(), static_cast<std::uint32_t>(d.ticket));
  }
  // Priority-weighted fair share of the per-node worker slots, computed over
  // the jobs that will be running once this batch starts. Shares are granted
  // at admission (an IRS worker pool is sized at job start), so a job keeps
  // its grant for life — later admissions split what the config allows, not
  // what earlier jobs left behind.
  for (JobRequest& request : admitted) {
    JobRecord& record = records_[request.ticket];
    record.account = free_accounts_.back();  // Non-empty: slots <= accounts.
    free_accounts_.pop_back();
    const int weight = std::max(record.priority, 0) + 1;
    int weight_sum = 0;
    for (const auto& [ticket, r] : records_) {
      if (r.state == JobState::kRunning || ticket == request.ticket) {
        weight_sum += std::max(r.priority, 0) + 1;
      }
    }
    record.max_workers =
        std::max((config_.worker_slots * weight) / std::max(weight_sum, 1), 1);
    record.state = JobState::kRunning;
    record.queued_ms = ElapsedMs(submit_time_[request.ticket]);
    ++running_;
    ++stats_.admitted;
    cluster_.tracer().Emit(obs::EventKind::kJobAdmitted, 0, record.node_budget_bytes,
                           static_cast<std::uint64_t>(record.priority),
                           static_cast<std::uint32_t>(request.ticket));
    auto it = pending_.find(request.ticket);
    JobSubmission submission = std::move(it->second);
    pending_.erase(it);
    threads_.emplace_back(&JobService::RunJob, this, request.ticket, std::move(submission));
  }
}

void JobService::RunJob(std::uint64_t ticket, JobSubmission submission) {
  cluster::TenantBinding binding;
  {
    std::lock_guard lock(mu_);
    const JobRecord& record = records_[ticket];
    binding.job_id = record.account;
    binding.name = record.name;
    binding.priority = record.priority;
    binding.node_budget_bytes = record.node_budget_bytes;
    binding.max_workers = record.max_workers;
  }
  // The scope covers the whole run: input feeding from this thread, the
  // coordinator loop, everything allocated on it lands in the job's account.
  // (Worker and monitor threads scope themselves from NodeServices::job_id.)
  memsim::JobScope scope(binding.job_id);
  const auto started = std::chrono::steady_clock::now();

  JobOutcome outcome;
  try {
    outcome = submission.run(cluster_, binding);
  } catch (const std::exception& e) {
    LOG_ERROR() << "jobsvc: job '" << binding.name << "' threw: " << e.what();
    outcome.ok = false;
  }

  // The tenant's ItaskJob normally resets its heap accounts on destruction;
  // reset here as well so a run() that never built one cannot leak a stale
  // account into the next tenant that reuses this id.
  for (int i = 0; i < cluster_.size(); ++i) {
    cluster_.node(i).heap().ResetJobAccount(binding.job_id);
  }

  std::lock_guard lock(mu_);
  JobRecord& record = records_[ticket];
  record.run_ms = ElapsedMs(started);
  record.state = outcome.ok ? JobState::kDone : JobState::kFailed;
  record.outcome = std::move(outcome);
  record.account = memsim::kNoJob;
  free_accounts_.push_back(binding.job_id);
  admission_.OnJobFinished(record.node_budget_bytes);
  --running_;
  if (record.state == JobState::kDone) {
    ++stats_.completed;
  } else {
    ++stats_.failed;
  }
  cluster_.tracer().Emit(obs::EventKind::kJobCompleted, 0,
                         static_cast<std::uint64_t>(record.run_ms * 1e6),
                         record.state == JobState::kFailed ? 1 : 0,
                         static_cast<std::uint32_t>(ticket));
  PumpLocked();
  idle_cv_.notify_all();
}

void JobService::Drain() {
  std::unique_lock lock(mu_);
  idle_cv_.wait(lock, [&] { return running_ == 0 && admission_.queued() == 0; });
  std::vector<std::thread> done;
  done.swap(threads_);
  lock.unlock();
  for (std::thread& t : done) {
    if (t.joinable()) {
      t.join();
    }
  }
}

JobRecord JobService::Status(std::uint64_t ticket) const {
  std::lock_guard lock(mu_);
  const auto it = records_.find(ticket);
  return it == records_.end() ? JobRecord{} : it->second;
}

std::vector<JobRecord> JobService::Records() const {
  std::lock_guard lock(mu_);
  std::vector<JobRecord> out;
  out.reserve(records_.size());
  for (const auto& [ticket, record] : records_) {
    out.push_back(record);
  }
  return out;
}

JobService::Stats JobService::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace itask::jobsvc
