// Job-service tests: budget-ledger and admission-control units, elasticity
// knee derivation, per-job heap accounting and cross-tenant pressure ranks,
// concurrent WC+HS+HJ tenants reproducing their solo fingerprints, and the
// chaos isolation property (tenant A's OOM storm leaves tenant B's result
// fingerprint unchanged).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apps/hyracks_apps.h"
#include "chaos/chaos.h"
#include "cluster/cluster.h"
#include "jobsvc/admission.h"
#include "jobsvc/budget.h"
#include "jobsvc/elasticity.h"
#include "jobsvc/job_service.h"
#include "memsim/managed_heap.h"

namespace itask::jobsvc {
namespace {

// ---------------------------------------------------------------- BudgetLedger

TEST(BudgetLedgerTest, AdmissibleWindowNetsOutHeadroom) {
  BudgetLedger ledger(BudgetConfig{/*capacity=*/1000, /*headroom=*/0.2});
  EXPECT_EQ(ledger.admissible_bytes(), 800u);
  EXPECT_EQ(ledger.available_bytes(), 800u);
  EXPECT_EQ(ledger.committed_bytes(), 0u);
}

TEST(BudgetLedgerTest, ReserveAndReleaseRoundTrip) {
  BudgetLedger ledger(BudgetConfig{1000, 0.0});
  EXPECT_TRUE(ledger.TryReserve(600));
  EXPECT_EQ(ledger.available_bytes(), 400u);
  EXPECT_FALSE(ledger.TryReserve(500));  // Does not fit; no change.
  EXPECT_EQ(ledger.committed_bytes(), 600u);
  EXPECT_TRUE(ledger.TryReserve(400));
  EXPECT_EQ(ledger.available_bytes(), 0u);
  ledger.Release(600);
  EXPECT_EQ(ledger.available_bytes(), 600u);
  // Releasing more than committed clamps instead of wrapping.
  ledger.Release(10'000);
  EXPECT_EQ(ledger.committed_bytes(), 0u);
}

TEST(BudgetLedgerTest, ZeroReservationIsRejected) {
  BudgetLedger ledger(BudgetConfig{1000, 0.0});
  EXPECT_FALSE(ledger.TryReserve(0));
}

// --------------------------------------------------------- AdmissionController

JobRequest Req(std::uint64_t ticket, int priority, std::uint64_t budget) {
  return {ticket, "job" + std::to_string(ticket), priority, budget};
}

TEST(AdmissionTest, PriorityOrderFifoWithinPriority) {
  AdmissionController adm(BudgetConfig{1000, 0.0}, /*max_concurrent=*/4);
  adm.Enqueue(Req(1, 0, 100));
  adm.Enqueue(Req(2, 5, 100));
  adm.Enqueue(Req(3, 5, 100));
  adm.Enqueue(Req(4, 1, 100));
  const auto admitted = adm.AdmitRunnable(/*running=*/0);
  ASSERT_EQ(admitted.size(), 4u);
  EXPECT_EQ(admitted[0].ticket, 2u);  // Highest priority first.
  EXPECT_EQ(admitted[1].ticket, 3u);  // FIFO within priority 5.
  EXPECT_EQ(admitted[2].ticket, 4u);
  EXPECT_EQ(admitted[3].ticket, 1u);
}

TEST(AdmissionTest, ConcurrencySlotsCapAdmission) {
  AdmissionController adm(BudgetConfig{1000, 0.0}, /*max_concurrent=*/2);
  adm.Enqueue(Req(1, 0, 100));
  adm.Enqueue(Req(2, 0, 100));
  adm.Enqueue(Req(3, 0, 100));
  EXPECT_EQ(adm.AdmitRunnable(0).size(), 2u);
  EXPECT_EQ(adm.queued(), 1u);
  EXPECT_EQ(adm.AdmitRunnable(2).size(), 0u);  // House full.
  adm.OnJobFinished(100);
  EXPECT_EQ(adm.AdmitRunnable(1).size(), 1u);
}

TEST(AdmissionTest, HeadOfLineBypassWithDeferralReport) {
  AdmissionController adm(BudgetConfig{1000, 0.0}, /*max_concurrent=*/4);
  adm.Enqueue(Req(1, 9, 800));  // Admitted, takes most of the window.
  adm.Enqueue(Req(2, 9, 800));  // Deferred: only 200 left.
  adm.Enqueue(Req(3, 0, 150));  // Bypasses: fits the remainder.
  std::vector<Deferral> deferred;
  const auto admitted = adm.AdmitRunnable(0, &deferred);
  ASSERT_EQ(admitted.size(), 2u);
  EXPECT_EQ(admitted[0].ticket, 1u);
  EXPECT_EQ(admitted[1].ticket, 3u);
  ASSERT_EQ(deferred.size(), 1u);
  EXPECT_EQ(deferred[0].ticket, 2u);
  EXPECT_EQ(deferred[0].shortfall_bytes, 600u);  // Wanted 800, 200 available.
  // The deferred job is admitted once capacity frees up.
  adm.OnJobFinished(800);
  const auto later = adm.AdmitRunnable(1);
  ASSERT_EQ(later.size(), 1u);
  EXPECT_EQ(later[0].ticket, 2u);
}

// ------------------------------------------------------------------ Elasticity

TEST(ElasticityTest, KneeIsSmallestHeapWithinTolerance) {
  // Classic spill curve: flat at large heaps, climbing below the working set.
  std::vector<ElasticityPoint> points = {
      {1 << 20, 900.0, true},   // 3x best: below the knee.
      {2 << 20, 400.0, true},   // 1.33x best: within 1.4 tolerance -> knee.
      {4 << 20, 310.0, true},
      {8 << 20, 300.0, true},
  };
  const ElasticityProfile profile = ElasticityProfiler::FromPoints(points, 1.4);
  EXPECT_EQ(profile.best_runtime_ms, 300.0);
  EXPECT_EQ(profile.knee_bytes, static_cast<std::uint64_t>(2 << 20));
  EXPECT_EQ(profile.knee_runtime_ms, 400.0);
  // The recommendation pads the knee.
  EXPECT_EQ(profile.RecommendedBudget(1.25),
            static_cast<std::uint64_t>((2 << 20) * 1.25));
}

TEST(ElasticityTest, FailedPointsAreExcluded) {
  std::vector<ElasticityPoint> points = {
      {1 << 20, 0.0, false},  // OMEd at this size.
      {4 << 20, 500.0, true},
  };
  const ElasticityProfile profile = ElasticityProfiler::FromPoints(points, 1.3);
  EXPECT_EQ(profile.knee_bytes, static_cast<std::uint64_t>(4 << 20));
}

TEST(ElasticityTest, AllFailedMeansNoKnee) {
  const ElasticityProfile profile =
      ElasticityProfiler::FromPoints({{1 << 20, 0.0, false}}, 1.3);
  EXPECT_EQ(profile.knee_bytes, 0u);
  EXPECT_EQ(profile.RecommendedBudget(), 0u);
}

TEST(ElasticityTest, ProfileSweepsGeometricGridAndFindsKnee) {
  const ElasticityProfiler::Config config{/*min=*/1 << 20, /*max=*/8 << 20, /*points=*/4, 1.3};
  int calls = 0;
  const ElasticityProfile profile =
      ElasticityProfiler::Profile(config, [&](std::uint64_t heap_bytes) -> double {
        ++calls;
        // Simulated curve with a working set of 2MB.
        return heap_bytes >= (2u << 20) ? 100.0 : 100.0 * (2u << 20) / heap_bytes;
      });
  EXPECT_EQ(calls, 4);
  EXPECT_GT(profile.knee_bytes, 0u);
  EXPECT_LE(profile.knee_bytes, static_cast<std::uint64_t>(2 << 20));
  EXPECT_LE(profile.knee_runtime_ms, 130.0);
}

// ---------------------------------------------- Per-job heap accounts & ranks

memsim::HeapConfig TinyHeap(std::uint64_t capacity) {
  memsim::HeapConfig config;
  config.capacity_bytes = capacity;
  config.real_pauses = false;
  return config;
}

TEST(JobAccountingTest, JobScopeNestsAndRestores) {
  EXPECT_EQ(memsim::CurrentJobId(), memsim::kNoJob);
  {
    memsim::JobScope outer(3);
    EXPECT_EQ(memsim::CurrentJobId(), 3u);
    {
      memsim::JobScope inner(7);
      EXPECT_EQ(memsim::CurrentJobId(), 7u);
    }
    EXPECT_EQ(memsim::CurrentJobId(), 3u);
  }
  EXPECT_EQ(memsim::CurrentJobId(), memsim::kNoJob);
}

TEST(JobAccountingTest, AllocationsAttributeToTheScopedJob) {
  memsim::ManagedHeap heap(TinyHeap(1 << 20));
  {
    memsim::JobScope scope(1);
    heap.Allocate(100 << 10);
  }
  {
    memsim::JobScope scope(2);
    heap.Allocate(50 << 10);
  }
  heap.Allocate(10 << 10);  // Unscoped: attributed to nobody.
  EXPECT_EQ(heap.job_live_bytes(1), static_cast<std::uint64_t>(100 << 10));
  EXPECT_EQ(heap.job_live_bytes(2), static_cast<std::uint64_t>(50 << 10));
  {
    memsim::JobScope scope(1);
    heap.Free(60 << 10);
  }
  EXPECT_EQ(heap.job_live_bytes(1), static_cast<std::uint64_t>(40 << 10));
  // Frees clamp at the account balance (attribution skew must not wrap).
  {
    memsim::JobScope scope(2);
    heap.Free(200 << 10);
  }
  EXPECT_EQ(heap.job_live_bytes(2), 0u);
}

TEST(JobAccountingTest, OverageAndResetSemantics) {
  memsim::ManagedHeap heap(TinyHeap(1 << 20));
  memsim::JobScope scope(1);
  heap.Allocate(100 << 10);
  EXPECT_EQ(heap.JobOverage(1), 0u);  // Unbudgeted: overage undefined -> 0.
  heap.SetJobBudget(1, 60 << 10);
  EXPECT_EQ(heap.JobOverage(1), static_cast<std::uint64_t>(40 << 10));
  heap.ResetJobAccount(1);
  EXPECT_EQ(heap.job_live_bytes(1), 0u);
  EXPECT_EQ(heap.job_budget_bytes(1), 0u);
}

TEST(JobAccountingTest, PressureRanksArbitrateBetweenTenants) {
  memsim::ManagedHeap heap(TinyHeap(4 << 20));
  // Job 1: 100KB over budget. Job 2: 300KB over. Job 3: under budget.
  heap.SetJobBudget(1, 100 << 10);
  heap.SetJobBudget(2, 100 << 10);
  heap.SetJobBudget(3, 500 << 10);
  {
    memsim::JobScope scope(1);
    heap.Allocate(200 << 10);
  }
  {
    memsim::JobScope scope(2);
    heap.Allocate(400 << 10);
  }
  {
    memsim::JobScope scope(3);
    heap.Allocate(100 << 10);
  }
  EXPECT_EQ(heap.PressureVictimRank(2), memsim::PressureRank::kFullReduce);
  EXPECT_EQ(heap.PressureVictimRank(1), memsim::PressureRank::kSpillOnly);
  EXPECT_EQ(heap.PressureVictimRank(3), memsim::PressureRank::kProtected);
  // Unbudgeted / unknown jobs never arbitrate: legacy full REDUCE.
  EXPECT_EQ(heap.PressureVictimRank(memsim::kNoJob), memsim::PressureRank::kFullReduce);
  EXPECT_EQ(heap.PressureVictimRank(9), memsim::PressureRank::kFullReduce);
}

TEST(JobAccountingTest, NoOverageAnywhereMeansSharedResponse) {
  memsim::ManagedHeap heap(TinyHeap(4 << 20));
  heap.SetJobBudget(1, 1 << 20);
  {
    memsim::JobScope scope(1);
    heap.Allocate(100 << 10);
  }
  // Within budget and nobody over: pressure is structural, everyone reduces.
  EXPECT_EQ(heap.PressureVictimRank(1), memsim::PressureRank::kFullReduce);
}

// ------------------------------------------------------------------ JobService

apps::AppConfig TenantAppConfig(const cluster::TenantBinding& binding,
                                std::uint64_t dataset_bytes, double tpch_scale = 0.2) {
  apps::AppConfig config;
  config.dataset_bytes = dataset_bytes;
  config.tpch_scale = tpch_scale;
  config.granularity_bytes = 16 << 10;
  config.max_workers = binding.max_workers > 0 ? binding.max_workers : 4;
  config.deadline_ms = 120'000.0;
  config.tenant = binding;
  return config;
}

JobSubmission MakeAppSubmission(const std::string& app, const std::string& name, int priority,
                                std::uint64_t budget, std::uint64_t dataset_bytes,
                                double tpch_scale = 0.2) {
  JobSubmission submission;
  submission.name = name;
  submission.priority = priority;
  submission.node_budget_bytes = budget;
  submission.run = [app, dataset_bytes, tpch_scale](
                       cluster::Cluster& cluster,
                       const cluster::TenantBinding& binding) -> JobOutcome {
    const apps::AppResult result = apps::RunHyracksApp(
        app, cluster, TenantAppConfig(binding, dataset_bytes, tpch_scale),
        apps::Mode::kITask);
    JobOutcome outcome;
    outcome.ok = result.metrics.succeeded;
    outcome.checksum = result.checksum;
    outcome.records = result.records;
    outcome.audit_violations = result.audit_violations;
    return outcome;
  };
  return submission;
}

// Solo fingerprint oracle: the same app/dataset on its own roomy cluster.
apps::AppResult RunSolo(const std::string& app, std::uint64_t dataset_bytes,
                        double tpch_scale = 0.2) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 64 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);
  cluster::TenantBinding solo;
  return apps::RunHyracksApp(app, cl, TenantAppConfig(solo, dataset_bytes, tpch_scale),
                             apps::Mode::kITask);
}

TEST(JobServiceTest, DefaultBudgetIsAFairSliceAndFairShareWorkers) {
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 8 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);
  JobServiceConfig config;
  config.max_concurrent = 2;
  config.headroom_fraction = 0.0;
  config.worker_slots = 8;
  JobService service(cl, config);

  const std::uint64_t ticket =
      service.Submit(MakeAppSubmission("WC", "wc", /*priority=*/1, /*budget=*/0, 128 << 10));
  service.Drain();
  const JobRecord record = service.Status(ticket);
  EXPECT_EQ(record.state, JobState::kDone);
  EXPECT_EQ(record.node_budget_bytes, static_cast<std::uint64_t>(4 << 20));  // 8MB / 2 slots.
  EXPECT_EQ(record.max_workers, 8);  // Alone: the whole worker allotment.
  EXPECT_GT(record.outcome.records, 0u);
}

TEST(JobServiceTest, ConcurrentTenantsReproduceSoloFingerprints) {
  chaos::SetAuditEnabled(true);
  const std::uint64_t wc_bytes = 384 << 10;
  const std::uint64_t hs_bytes = 256 << 10;
  const apps::AppResult solo_wc = RunSolo("WC", wc_bytes);
  const apps::AppResult solo_hs = RunSolo("HS", hs_bytes);
  const apps::AppResult solo_hj = RunSolo("HJ", 0);
  ASSERT_TRUE(solo_wc.metrics.succeeded);
  ASSERT_TRUE(solo_hs.metrics.succeeded);
  ASSERT_TRUE(solo_hj.metrics.succeeded);

  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 8 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);
  JobServiceConfig config;
  config.max_concurrent = 3;  // All three tenants genuinely overlap.
  config.worker_slots = 9;
  JobService service(cl, config);

  const std::uint64_t wc =
      service.Submit(MakeAppSubmission("WC", "wc", 2, 1 << 20, wc_bytes));
  const std::uint64_t hs =
      service.Submit(MakeAppSubmission("HS", "hs", 1, 1 << 20, hs_bytes));
  const std::uint64_t hj = service.Submit(MakeAppSubmission("HJ", "hj", 0, 1 << 20, 0));
  service.Drain();

  const JobRecord wc_rec = service.Status(wc);
  const JobRecord hs_rec = service.Status(hs);
  const JobRecord hj_rec = service.Status(hj);
  ASSERT_EQ(wc_rec.state, JobState::kDone);
  ASSERT_EQ(hs_rec.state, JobState::kDone);
  ASSERT_EQ(hj_rec.state, JobState::kDone);
  EXPECT_TRUE(wc_rec.outcome.audit_violations.empty());
  EXPECT_TRUE(hs_rec.outcome.audit_violations.empty());
  EXPECT_TRUE(hj_rec.outcome.audit_violations.empty());
  // Per-tenant fingerprints match the solo oracles: sharing the cluster (and
  // its pressure) changed nothing about any tenant's result.
  EXPECT_EQ(wc_rec.outcome.checksum, solo_wc.checksum);
  EXPECT_EQ(wc_rec.outcome.records, solo_wc.records);
  EXPECT_EQ(hs_rec.outcome.checksum, solo_hs.checksum);
  EXPECT_EQ(hs_rec.outcome.records, solo_hs.records);
  EXPECT_EQ(hj_rec.outcome.checksum, solo_hj.checksum);
  EXPECT_EQ(hj_rec.outcome.records, solo_hj.records);
  const auto in_path = chaos::DrainViolations();
  EXPECT_TRUE(in_path.empty()) << in_path.front();

  const JobService::Stats stats = service.stats();
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.failed, 0u);
}

TEST(JobServiceTest, ChaosIsolationStormTenantCannotPerturbVictim) {
  chaos::SetAuditEnabled(true);
  const std::uint64_t victim_bytes = 256 << 10;
  const apps::AppResult solo = RunSolo("HS", victim_bytes);
  ASSERT_TRUE(solo.metrics.succeeded);

  // Small shared heap; the storm tenant's working set is ~2.5x its budget, so
  // it spends the run shedding under cross-tenant arbitration while the
  // victim stays inside its own budget.
  cluster::ClusterConfig cc;
  cc.num_nodes = 2;
  cc.heap.capacity_bytes = 6 << 20;
  cc.heap.real_pauses = false;
  cluster::Cluster cl(cc);
  JobServiceConfig config;
  config.max_concurrent = 2;
  config.worker_slots = 8;
  JobService service(cl, config);

  const std::uint64_t storm = service.Submit(
      MakeAppSubmission("WC", "storm", /*priority=*/0, /*budget=*/1 << 20, 2 << 20));
  const std::uint64_t victim = service.Submit(
      MakeAppSubmission("HS", "victim", /*priority=*/2, /*budget=*/2 << 20, victim_bytes));
  service.Drain();

  const JobRecord victim_rec = service.Status(victim);
  ASSERT_EQ(victim_rec.state, JobState::kDone)
      << "victim did not survive the storm";
  EXPECT_TRUE(victim_rec.outcome.audit_violations.empty())
      << victim_rec.outcome.audit_violations.front();
  // The isolation property: the storm next door changed nothing about the
  // victim's result.
  EXPECT_EQ(victim_rec.outcome.checksum, solo.checksum);
  EXPECT_EQ(victim_rec.outcome.records, solo.records);

  const JobRecord storm_rec = service.Status(storm);
  EXPECT_EQ(storm_rec.state, JobState::kDone);  // Slow, not dead.
  const auto in_path = chaos::DrainViolations();
  EXPECT_TRUE(in_path.empty()) << in_path.front();
}

}  // namespace
}  // namespace itask::jobsvc
