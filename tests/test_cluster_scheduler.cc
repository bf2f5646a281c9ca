#include "scheduler/cluster_scheduler.h"

#include <gtest/gtest.h>

#include <memory>

#include "obs/observability.h"
#include "service/service.h"
#include "trace/google_trace.h"

namespace ckpt {
namespace {

// The paper's S3.3.3 two-job scenario: a low-priority job runs for 30 s on a
// single node before a high-priority job of the same shape arrives and
// triggers preemption.
struct TwoJobResult {
  double high_response = 0;  // seconds
  double low_response = 0;
  SimulationResult sim;
};

TwoJobResult RunTwoJobScenario(PreemptionPolicy policy,
                               StorageMedium medium,
                               double threshold = 1.0,
                               Observability* obs = nullptr) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(1, Resources{4.0, GiB(16)}, medium);

  SchedulerConfig config;
  config.policy = policy;
  config.medium = medium;
  config.adaptive_threshold = threshold;
  config.obs = obs;

  Workload workload;
  {
    JobSpec low;
    low.id = JobId(0);
    low.submit_time = 0;
    low.priority = 1;
    TaskSpec task;
    task.id = TaskId(0);
    task.job = low.id;
    task.duration = Seconds(60);
    task.demand = Resources{4.0, GiB(5)};
    task.priority = 1;
    task.memory_write_rate = 0.02;
    low.tasks.push_back(task);
    workload.jobs.push_back(low);

    JobSpec high = low;
    high.id = JobId(1);
    high.submit_time = Seconds(30);
    high.priority = 9;
    high.tasks[0].id = TaskId(1);
    high.tasks[0].job = high.id;
    high.tasks[0].priority = 9;
    workload.jobs.push_back(high);
  }

  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  TwoJobResult out;
  out.sim = scheduler.Run();
  out.low_response =
      out.sim
          .job_response_by_band[static_cast<size_t>(PriorityBand::kFree)]
          .Mean();
  out.high_response =
      out.sim
          .job_response_by_band[static_cast<size_t>(PriorityBand::kProduction)]
          .Mean();
  return out;
}

TEST(TwoJobScenario, WaitPolicyNeverPreempts) {
  const TwoJobResult r = RunTwoJobScenario(PreemptionPolicy::kWait,
                                           StorageMedium::Nvm());
  EXPECT_EQ(r.sim.preemptions, 0);
  EXPECT_EQ(r.sim.jobs_completed, 2);
  // High-priority waits the low job's remaining 30 s, then runs 60 s.
  EXPECT_NEAR(r.high_response, 90.0, 1.0);
  EXPECT_NEAR(r.low_response, 60.0, 1.0);
  EXPECT_NEAR(r.sim.wasted_core_hours, 0.0, 1e-6);
}

TEST(TwoJobScenario, KillGivesHighPriorityBestResponse) {
  const TwoJobResult r = RunTwoJobScenario(PreemptionPolicy::kKill,
                                           StorageMedium::Nvm());
  EXPECT_EQ(r.sim.kills, 1);
  EXPECT_EQ(r.sim.checkpoints, 0);
  // High starts immediately at 30 s.
  EXPECT_NEAR(r.high_response, 60.0, 1.0);
  // Low re-runs from scratch after high finishes: 90 + 60 = 150 s response.
  EXPECT_NEAR(r.low_response, 150.0, 1.5);
  // Lost work: 30 s on 4 cores.
  EXPECT_NEAR(r.sim.lost_work_core_hours, 30.0 * 4 / 3600, 0.002);
}

TEST(TwoJobScenario, CheckpointOnNvmBeatsKillForLowPriority) {
  const TwoJobResult kill = RunTwoJobScenario(PreemptionPolicy::kKill,
                                              StorageMedium::Nvm());
  const TwoJobResult chk = RunTwoJobScenario(PreemptionPolicy::kCheckpoint,
                                             StorageMedium::Nvm());
  EXPECT_EQ(chk.sim.checkpoints, 1);
  EXPECT_EQ(chk.sim.local_restores + chk.sim.remote_restores, 1);
  // Dump takes ~3 s, so the high job's response is only slightly worse.
  EXPECT_LT(chk.high_response, kill.high_response + 6.0);
  // The low job resumes instead of rerunning: clearly better than kill.
  EXPECT_LT(chk.low_response, kill.low_response - 15.0);
  EXPECT_LT(chk.sim.wasted_core_hours, kill.sim.wasted_core_hours);
}

TEST(TwoJobScenario, CheckpointOnHddHurtsHighPriority) {
  const TwoJobResult chk = RunTwoJobScenario(PreemptionPolicy::kCheckpoint,
                                             StorageMedium::Hdd());
  // A 5 GiB dump at ~32 MB/s stalls the high job for minutes: worse than
  // simply waiting the 30 s (response 90 s).
  EXPECT_GT(chk.high_response, 150.0);
}

TEST(TwoJobScenario, AdaptiveKillsOnSlowStorage) {
  const TwoJobResult adaptive = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                                  StorageMedium::Hdd());
  // Overhead (~minutes) exceeds the 30 s of progress: Algorithm 1 kills.
  EXPECT_EQ(adaptive.sim.kills, 1);
  EXPECT_EQ(adaptive.sim.checkpoints, 0);
  const TwoJobResult kill = RunTwoJobScenario(PreemptionPolicy::kKill,
                                              StorageMedium::Hdd());
  EXPECT_NEAR(adaptive.high_response, kill.high_response, 1.0);
}

TEST(TwoJobScenario, AdaptiveCheckpointsOnFastStorage) {
  const TwoJobResult adaptive = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                                  StorageMedium::Nvm());
  // ~5 s overhead < 30 s progress: Algorithm 1 checkpoints.
  EXPECT_EQ(adaptive.sim.checkpoints, 1);
  EXPECT_EQ(adaptive.sim.kills, 0);
}

TEST(TwoJobScenario, AdaptiveTracksBetterOfKillAndCheckpoint) {
  for (const StorageMedium& medium :
       {StorageMedium::Hdd(), StorageMedium::Ssd(), StorageMedium::Nvm()}) {
    const TwoJobResult kill =
        RunTwoJobScenario(PreemptionPolicy::kKill, medium);
    const TwoJobResult chk =
        RunTwoJobScenario(PreemptionPolicy::kCheckpoint, medium);
    const TwoJobResult adaptive =
        RunTwoJobScenario(PreemptionPolicy::kAdaptive, medium);
    const double best_low = std::min(kill.low_response, chk.low_response);
    const double best_high = std::min(kill.high_response, chk.high_response);
    EXPECT_LE(adaptive.low_response, best_low * 1.05 + 1.0) << medium.name;
    EXPECT_LE(adaptive.high_response, best_high * 1.05 + 1.0) << medium.name;
  }
}

TEST(TwoJobScenario, ThresholdKnobFlipsAdaptiveDecision) {
  // On NVM the stock threshold checkpoints; an absurdly high threshold
  // forces the kill path instead.
  const TwoJobResult strict = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                                StorageMedium::Nvm(), 50.0);
  EXPECT_EQ(strict.sim.kills, 1);
  EXPECT_EQ(strict.sim.checkpoints, 0);
}

TEST(TwoJobScenario, EnergyOrderingMatchesFig4c) {
  const TwoJobResult wait =
      RunTwoJobScenario(PreemptionPolicy::kWait, StorageMedium::Nvm());
  const TwoJobResult kill =
      RunTwoJobScenario(PreemptionPolicy::kKill, StorageMedium::Nvm());
  // Wait wastes no cycles; kill repeats 30 s of work.
  EXPECT_LT(wait.sim.energy_kwh, kill.sim.energy_kwh);
}

TEST(TwoJobScenario, ObservabilityRecordsVictimDecision) {
  Observability obs;
  const TwoJobResult r = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                           StorageMedium::Nvm(), 1.0, &obs);
  ASSERT_GE(r.sim.preemptions, 1);
  // Every victim decision produced a counter tick and a trace instant with
  // Algorithm 1's terms.
  std::int64_t decisions = 0;
  for (const char* action :
       {"kill", "checkpoint_full", "checkpoint_incremental"}) {
    decisions += obs.metrics()
                     .GetCounter("policy.decisions",
                                 {{"policy", "Adaptive"}, {"action", action}})
                     ->value();
  }
  EXPECT_EQ(decisions, r.sim.preemptions);
  std::int64_t instants = 0;
  bool has_terms = false;
  for (const TraceRecord& event : obs.tracer().SortedEvents()) {
    if (event.name != "policy.decision") continue;
    instants++;
    for (const TraceArg& arg : event.args) {
      if (arg.key == "unsaved_progress_s") has_terms = true;
    }
  }
  EXPECT_EQ(instants, r.sim.preemptions);
  EXPECT_TRUE(has_terms);
}

TEST(TwoJobScenario, ObservabilityDoesNotPerturbResults) {
  Observability obs;
  const TwoJobResult with_obs = RunTwoJobScenario(
      PreemptionPolicy::kCheckpoint, StorageMedium::Ssd(), 1.0, &obs);
  const TwoJobResult without = RunTwoJobScenario(PreemptionPolicy::kCheckpoint,
                                                 StorageMedium::Ssd());
  EXPECT_EQ(with_obs.sim.preemptions, without.sim.preemptions);
  EXPECT_EQ(with_obs.sim.checkpoints, without.sim.checkpoints);
  EXPECT_DOUBLE_EQ(with_obs.high_response, without.high_response);
  EXPECT_DOUBLE_EQ(with_obs.low_response, without.low_response);
  EXPECT_DOUBLE_EQ(with_obs.sim.wasted_core_hours, without.sim.wasted_core_hours);
}

TEST(TwoJobScenario, DeterministicAcrossRuns) {
  const TwoJobResult a = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                           StorageMedium::Ssd());
  const TwoJobResult b = RunTwoJobScenario(PreemptionPolicy::kAdaptive,
                                           StorageMedium::Ssd());
  EXPECT_DOUBLE_EQ(a.high_response, b.high_response);
  EXPECT_DOUBLE_EQ(a.low_response, b.low_response);
  EXPECT_EQ(a.sim.makespan, b.sim.makespan);
}

// A task preempted twice should dump incrementally the second time.
TEST(ClusterScheduler, SecondPreemptionIsIncremental) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(1, Resources{4.0, GiB(16)}, StorageMedium::Nvm());

  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Nvm();

  Workload workload;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  TaskSpec task;
  task.id = TaskId(0);
  task.job = low.id;
  task.duration = Seconds(300);
  task.demand = Resources{4.0, GiB(4)};
  task.priority = 1;
  task.memory_write_rate = 0.02;
  low.tasks.push_back(task);
  workload.jobs.push_back(low);

  for (int i = 0; i < 2; ++i) {
    JobSpec high;
    high.id = JobId(1 + i);
    high.submit_time = Seconds(30 + 120 * i);
    high.priority = 9;
    TaskSpec ht = task;
    ht.id = TaskId(1 + i);
    ht.job = high.id;
    ht.duration = Seconds(20);
    ht.priority = 9;
    high.tasks.push_back(ht);
    workload.jobs.push_back(high);
  }

  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  const SimulationResult result = scheduler.Run();
  EXPECT_EQ(result.jobs_completed, 3);
  EXPECT_EQ(result.checkpoints, 2);
  EXPECT_EQ(result.incremental_checkpoints, 1);
  // The incremental layer is far smaller than a second full image.
  EXPECT_LT(result.total_checkpoint_bytes_written,
            2 * (GiB(4) + MiB(1)));
}

TEST(ClusterScheduler, LocalOnlyCheckpointsPinRestore) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Ssd());

  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Ssd();
  config.checkpoint_to_dfs = false;  // stock CRIU

  Workload workload;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  for (int i = 0; i < 2; ++i) {
    TaskSpec task;
    task.id = TaskId(i);
    task.job = low.id;
    task.duration = Seconds(120);
    task.demand = Resources{4.0, GiB(2)};
    task.priority = 1;
    low.tasks.push_back(task);
  }
  workload.jobs.push_back(low);

  JobSpec high;
  high.id = JobId(1);
  high.submit_time = Seconds(30);
  high.priority = 9;
  for (int i = 0; i < 2; ++i) {
    TaskSpec task;
    task.id = TaskId(2 + i);
    task.job = high.id;
    task.duration = Seconds(30);
    task.demand = Resources{4.0, GiB(2)};
    task.priority = 9;
    high.tasks.push_back(task);
  }
  workload.jobs.push_back(high);

  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(workload);
  const SimulationResult result = scheduler.Run();
  EXPECT_EQ(result.jobs_completed, 2);
  EXPECT_EQ(result.remote_restores, 0);  // images are local-only
  EXPECT_EQ(result.local_restores, result.checkpoints);
}

TEST(ClusterScheduler, AllTasksCompleteUnderChurn) {
  // Heavier mixed workload on a small cluster: conservation check.
  GoogleTraceConfig tconfig;
  tconfig.sample_jobs = 120;
  tconfig.seed = 99;
  Workload workload = GoogleTraceGenerator(tconfig).GenerateWorkloadSample();
  // Compress arrivals into one hour to force contention.
  for (JobSpec& job : workload.jobs) job.submit_time /= 24;

  for (PreemptionPolicy policy :
       {PreemptionPolicy::kKill, PreemptionPolicy::kCheckpoint,
        PreemptionPolicy::kAdaptive}) {
    Simulator sim;
    Cluster cluster(&sim);
    cluster.AddNodes(8, Resources{16.0, GiB(64)}, StorageMedium::Ssd());
    SchedulerConfig config;
    config.policy = policy;
    config.medium = StorageMedium::Ssd();
    ClusterScheduler scheduler(&sim, &cluster, config);
    scheduler.Submit(workload);
    const SimulationResult result = scheduler.Run();
    EXPECT_EQ(result.tasks_completed, workload.TotalTasks())
        << PolicyName(policy);
    EXPECT_EQ(result.jobs_completed,
              static_cast<std::int64_t>(workload.jobs.size()))
        << PolicyName(policy);
    EXPECT_GE(result.wasted_core_hours, 0.0);
    EXPECT_GT(result.energy_kwh, 0.0);
    if (policy == PreemptionPolicy::kKill) {
      EXPECT_EQ(result.checkpoints, 0);
    }
  }
}

// --- Service replicas -------------------------------------------------------

// One service (id 1000) whose replicas live for the first two hours, beside
// the given batch jobs on a single 8-core node.
struct ServiceRun {
  SimulationResult result;
  double ledger_fault_lost = 0;
  double ledger_reconcilable = 0;
};

ServiceRun RunWithService(PreemptionPolicy policy, int replicas,
                          double replica_cpus, const Workload& batch,
                          SimTime fail_at) {
  Observability obs;
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(1, Resources{8.0, GiB(32)}, StorageMedium::Nvm());
  SchedulerConfig config;
  config.policy = policy;
  config.medium = StorageMedium::Nvm();
  config.obs = &obs;
  ClusterScheduler scheduler(&sim, &cluster, config);
  ServiceSpec service;
  service.id = 1000;
  service.name = "svc";
  service.replicas = replicas;
  service.demand = Resources{replica_cpus, GiB(4)};
  service.end = Hours(2);
  scheduler.Submit(batch);
  scheduler.SubmitServices({service});
  if (fail_at >= 0) scheduler.InjectNodeFailure(NodeId(0), fail_at, Minutes(5));
  ServiceRun out;
  out.result = scheduler.Run();
  out.ledger_fault_lost = obs.waste().Total(WasteCause::kFaultLostWork);
  out.ledger_reconcilable = obs.waste().ReconcilableCoreHours();
  return out;
}

Workload OneTaskJob(int priority, SimTime submit, SimDuration duration,
                    double cpus) {
  Workload w;
  JobSpec job;
  job.id = JobId(1);
  job.submit_time = submit;
  job.priority = priority;
  TaskSpec task;
  task.id = TaskId(1);
  task.job = job.id;
  task.duration = duration;
  task.demand = Resources{cpus, GiB(4)};
  task.priority = priority;
  job.tasks.push_back(task);
  w.jobs.push_back(job);
  return w;
}

// A node crash interrupts two replicas and one batch task after 30 minutes
// of running. Only the batch task's half hour on 4 cores is lost work; the
// replicas carry no batch progress, so charging them would add another
// 2 x 0.5 h x 2 cores.
TEST(ServiceReplicas, NodeFailureChargesNoLostWorkToReplicas) {
  const ServiceRun run =
      RunWithService(PreemptionPolicy::kAdaptive, /*replicas=*/2,
                     /*replica_cpus=*/2.0,
                     OneTaskJob(/*priority=*/1, 0, Hours(1), 4.0),
                     /*fail_at=*/Minutes(30));
  const SimulationResult& r = run.result;
  ASSERT_EQ(r.node_failures, 1);
  ASSERT_EQ(r.tasks_interrupted_by_failure, 3);
  EXPECT_DOUBLE_EQ(r.lost_work_core_hours, 0.5 * 4.0);
  EXPECT_DOUBLE_EQ(run.ledger_fault_lost, 0.5 * 4.0);
  EXPECT_NEAR(run.ledger_reconcilable, r.wasted_core_hours,
              1e-9 + 0.01 * r.wasted_core_hours);
  EXPECT_EQ(r.tasks_completed, 1);
  EXPECT_EQ(r.service_replicas_retired, 2);
}

// A high-priority task forces a checkpoint of the only replica; after the
// task finishes the replica is restored and still retires exactly at its
// service end, counted as retired rather than as a completed batch task.
TEST(ServiceReplicas, CheckpointedReplicaRetiresAtServiceEnd) {
  const ServiceRun run =
      RunWithService(PreemptionPolicy::kCheckpoint, /*replicas=*/1,
                     /*replica_cpus=*/6.0,
                     OneTaskJob(/*priority=*/9, Minutes(30), Minutes(10), 4.0),
                     /*fail_at=*/-1);
  const SimulationResult& r = run.result;
  ASSERT_EQ(r.service_preemptions, 1);
  ASSERT_EQ(r.checkpoints, 1);
  ASSERT_EQ(r.local_restores + r.remote_restores, 1);
  EXPECT_EQ(r.kills, 0);
  EXPECT_EQ(r.tasks_completed, 1);
  EXPECT_EQ(r.service_replicas_retired, 1);
  EXPECT_EQ(r.makespan, Hours(2));
}

}  // namespace
}  // namespace ckpt
