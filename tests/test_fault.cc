// Deterministic fault injection and recovery: injector streams, storage-op
// failures and cancellation, checkpoint retry/swap/corruption semantics, and
// end-to-end failure runs on the YARN and trace-scheduler layers.
#include "fault/fault.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_engine.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "scheduler/cluster_scheduler.h"
#include "sim/simulator.h"
#include "storage/storage_device.h"
#include "yarn/yarn_cluster.h"

namespace ckpt {
namespace {

// --- FaultInjector streams ------------------------------------------------

TEST(FaultInjector, SameSeedSameDrawSequence) {
  Simulator sim;
  FaultPlan plan;
  plan.storage_write_fail_prob = 0.3;
  plan.storage_read_fail_prob = 0.7;
  FaultInjector a(&sim, plan);
  FaultInjector b(&sim, plan);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.ShouldFailWrite("w"), b.ShouldFailWrite("w"));
    EXPECT_EQ(a.ShouldFailRead("r"), b.ShouldFailRead("r"));
  }
  EXPECT_EQ(a.faults_injected(), b.faults_injected());
  EXPECT_GT(a.faults_injected(), 0);
}

TEST(FaultInjector, StreamsAreDecorrelated) {
  // Interleaving read draws must not perturb the write stream: each fault
  // kind is forked from the seed independently.
  Simulator sim;
  FaultPlan plan;
  plan.storage_write_fail_prob = 0.5;
  plan.storage_read_fail_prob = 0.5;
  FaultInjector writes_only(&sim, plan);
  FaultInjector interleaved(&sim, plan);
  std::vector<bool> plain, with_reads;
  for (int i = 0; i < 100; ++i) {
    plain.push_back(writes_only.ShouldFailWrite("w"));
    interleaved.ShouldFailRead("r");
    with_reads.push_back(interleaved.ShouldFailWrite("w"));
  }
  EXPECT_EQ(plain, with_reads);
}

TEST(FaultInjector, EmptyPlanNeverFires) {
  Simulator sim;
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  FaultInjector injector(&sim, plan);
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(injector.ShouldFailWrite("w"));
    EXPECT_FALSE(injector.ShouldFailRead("r"));
    EXPECT_FALSE(injector.ShouldCorruptImage("c"));
  }
  EXPECT_EQ(injector.faults_injected(), 0);
}

TEST(FaultInjector, DegradedWindowsMultiplyAndExpire) {
  Simulator sim;
  FaultPlan plan;
  plan.degraded_windows.push_back({NodeId(0), Seconds(10), Seconds(20), 2.0});
  plan.degraded_windows.push_back({NodeId(0), Seconds(15), Seconds(30), 3.0});
  plan.degraded_windows.push_back({NodeId(1), Seconds(0), Seconds(100), 5.0});
  FaultInjector injector(&sim, plan);
  EXPECT_DOUBLE_EQ(injector.ServiceTimeFactor(NodeId(0), Seconds(5)), 1.0);
  EXPECT_DOUBLE_EQ(injector.ServiceTimeFactor(NodeId(0), Seconds(12)), 2.0);
  EXPECT_DOUBLE_EQ(injector.ServiceTimeFactor(NodeId(0), Seconds(18)), 6.0);
  EXPECT_DOUBLE_EQ(injector.ServiceTimeFactor(NodeId(0), Seconds(25)), 3.0);
  // Windows are half-open: [from, until).
  EXPECT_DOUBLE_EQ(injector.ServiceTimeFactor(NodeId(0), Seconds(30)), 1.0);
  EXPECT_DOUBLE_EQ(injector.ServiceTimeFactor(NodeId(2), Seconds(12)), 1.0);
}

// --- StorageDevice faults -------------------------------------------------

class StorageFaultTest : public ::testing::Test {
 protected:
  Simulator sim_;
  StorageDevice device_{
      &sim_, StorageMedium::WithBandwidth("t", MBps(100), GiB(10)), "dev"};
};

TEST_F(StorageFaultTest, InjectedWriteFailureCompletesWithError) {
  FaultPlan plan;
  plan.storage_write_fail_prob = 1.0;
  FaultInjector injector(&sim_, plan);
  device_.set_fault_injector(&injector, NodeId(0));
  bool ok = true;
  SimTime done_at = -1;
  device_.SubmitWrite(MiB(100), [&](bool w) {
    ok = w;
    done_at = sim_.Now();
  });
  sim_.Run();
  EXPECT_FALSE(ok);
  // A failed op still occupies the device for its full service time.
  EXPECT_NEAR(ToSeconds(done_at), 1.048, 0.01);
  EXPECT_EQ(device_.ops_failed(), 1);
  EXPECT_EQ(device_.ops_completed(), 1);
}

TEST_F(StorageFaultTest, ReadsUnaffectedByWriteFaultStream) {
  FaultPlan plan;
  plan.storage_write_fail_prob = 1.0;
  FaultInjector injector(&sim_, plan);
  device_.set_fault_injector(&injector, NodeId(0));
  bool ok = false;
  device_.SubmitRead(MiB(10), [&](bool r) { ok = r; });
  sim_.Run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(device_.ops_failed(), 0);
}

TEST_F(StorageFaultTest, CancelOpSuppressesCompletionOnly) {
  int calls = 0;
  device_.SubmitWrite(MiB(100), [&](bool) { ++calls; });
  const StorageOpId op = device_.last_op_id();
  EXPECT_TRUE(device_.CancelOp(op));
  EXPECT_FALSE(device_.CancelOp(op));  // already canceled
  sim_.Run();
  EXPECT_EQ(calls, 0);
  // Device accounting is unchanged: the op ran to completion on the device.
  EXPECT_EQ(device_.ops_completed(), 1);
  EXPECT_EQ(device_.total_bytes_written(), MiB(100));
  EXPECT_FALSE(device_.CancelOp(op));  // no longer live
}

TEST_F(StorageFaultTest, DegradedWindowStretchesServiceTime) {
  FaultPlan plan;
  plan.degraded_windows.push_back({NodeId(0), 0, Seconds(10), 2.0});
  FaultInjector injector(&sim_, plan);
  device_.set_fault_injector(&injector, NodeId(0));
  SimTime done_at = -1;
  device_.SubmitWrite(MiB(100), [&](bool) { done_at = sim_.Now(); });
  sim_.Run();
  EXPECT_NEAR(ToSeconds(done_at), 2.097, 0.02);  // 2x the nominal 1.048 s
}

// --- CheckpointEngine: swap, retry, cancellation, corruption ---------------

// Engine over a 2-node DFS store (replication=1, NVM), mirroring EngineTest,
// plus an optional fault injector attached to every layer.
class EngineFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    net_ = std::make_unique<NetworkModel>(&sim_, NetworkConfig{});
    DfsConfig config;
    config.replication = 1;
    dfs_ = std::make_unique<DfsCluster>(&sim_, net_.get(), config);
    for (int i = 0; i < 2; ++i) {
      net_->AddNode(NodeId(i));
      devices_.push_back(std::make_unique<StorageDevice>(
          &sim_, StorageMedium::Nvm(), "dn" + std::to_string(i)));
      dfs_->AddDataNode(NodeId(i), devices_.back().get());
    }
    store_ = std::make_unique<DfsStore>(dfs_.get());
    engine_ = std::make_unique<CheckpointEngine>(&sim_, store_.get());
  }

  void AttachInjector(const FaultPlan& plan) {
    injector_ = std::make_unique<FaultInjector>(&sim_, plan);
    for (int i = 0; i < 2; ++i) {
      devices_[static_cast<size_t>(i)]->set_fault_injector(injector_.get(),
                                                           NodeId(i));
    }
    engine_->set_fault_injector(injector_.get());
  }

  DumpResult DumpSync(ProcessState& proc, NodeId node, bool incremental) {
    DumpResult out;
    DumpOptions opts;
    opts.incremental = incremental;
    engine_->Dump(proc, node, opts, [&](DumpResult r) { out = r; });
    sim_.Run();
    return out;
  }

  RestoreResult RestoreSync(ProcessState& proc, NodeId node) {
    RestoreResult out;
    engine_->Restore(proc, node, [&](RestoreResult r) { out = r; });
    sim_.Run();
    return out;
  }

  Simulator sim_;
  std::unique_ptr<NetworkModel> net_;
  std::vector<std::unique_ptr<StorageDevice>> devices_;
  std::unique_ptr<DfsCluster> dfs_;
  std::unique_ptr<DfsStore> store_;
  std::unique_ptr<CheckpointEngine> engine_;
  std::unique_ptr<FaultInjector> injector_;
};

TEST_F(EngineFaultTest, FailedFullDumpKeepsOldImageRestorable) {
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), false).ok);
  const std::string old_path = proc.image_path;
  const Bytes stored_before = dfs_->current_stored();

  FaultPlan plan;
  plan.storage_write_fail_prob = 1.0;
  AttachInjector(plan);
  Rng rng(3);
  proc.memory.TouchRandomFraction(0.5, rng);
  const DumpResult failed = DumpSync(proc, NodeId(0), false);
  EXPECT_FALSE(failed.ok);

  // Write-new-then-swap: the replacement never committed, the previous image
  // was never touched, and the partial new file was rolled back.
  EXPECT_TRUE(proc.has_image);
  EXPECT_EQ(proc.image_path, old_path);
  EXPECT_TRUE(dfs_->Exists(old_path));
  EXPECT_EQ(dfs_->current_stored(), stored_before);

  // The surviving image still restores (reads are not failing in this plan).
  EXPECT_TRUE(RestoreSync(proc, NodeId(0)).ok);
}

TEST_F(EngineFaultTest, ExhaustedRetryBudgetReportsDumpFailure) {
  FaultPlan plan;
  plan.storage_write_fail_prob = 1.0;
  AttachInjector(plan);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.backoff = Millis(10);
  engine_->set_retry_policy(retry);
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  const DumpResult result = DumpSync(proc, NodeId(0), false);
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(proc.has_image);
  EXPECT_EQ(engine_->dump_retries(), 2);  // attempts 2 and 3
  EXPECT_EQ(engine_->dumps_completed(), 0);
  EXPECT_EQ(dfs_->current_stored(), 0);
}

TEST_F(EngineFaultTest, RetryBackoffIsClampedToMaxBackoff) {
  // 12 failing attempts with backoff 2 s x4 each retry would wait
  // 2 * (4^11 - 1) / 3 s (~776 hours) unclamped; with max_backoff = 5 s the
  // waits are 2 + 10 * 5 = 52 s total, so the whole budget drains in under
  // a simulated minute.
  FaultPlan plan;
  plan.storage_write_fail_prob = 1.0;
  AttachInjector(plan);
  RetryPolicy retry;
  retry.max_attempts = 12;
  retry.backoff = Seconds(2);
  retry.multiplier = 4.0;
  retry.max_backoff = Seconds(5);
  engine_->set_retry_policy(retry);
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  const DumpResult result = DumpSync(proc, NodeId(0), false);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(engine_->dump_retries(), 11);
  EXPECT_GE(sim_.Now(), Seconds(52));  // exponential ramp did happen...
  EXPECT_LT(sim_.Now(), Seconds(60));  // ...but the clamp held it at 5 s
}

TEST_F(EngineFaultTest, RetryBudgetRecoversTransientDumpFailures) {
  FaultPlan plan;
  // Deterministic given plan.seed: the first write draw fails, a later
  // retry within the budget succeeds.
  plan.storage_write_fail_prob = 0.7;
  plan.seed = 4;
  AttachInjector(plan);
  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.backoff = Millis(10);
  engine_->set_retry_policy(retry);
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  const DumpResult result = DumpSync(proc, NodeId(0), false);
  EXPECT_TRUE(result.ok);
  EXPECT_TRUE(proc.has_image);
  EXPECT_GT(engine_->dump_retries(), 0);
  EXPECT_EQ(engine_->dumps_completed(), 1);
}

TEST_F(EngineFaultTest, RetryBudgetRecoversTransientRestoreFailures) {
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), false).ok);
  FaultPlan plan;
  // Deterministic given plan.seed: the first read draw fails, a later retry
  // within the budget succeeds.
  plan.storage_read_fail_prob = 0.7;
  plan.seed = 4;
  AttachInjector(plan);
  RetryPolicy retry;
  retry.max_attempts = 10;
  retry.backoff = Millis(10);
  engine_->set_retry_policy(retry);
  const RestoreResult result = RestoreSync(proc, NodeId(0));
  EXPECT_TRUE(result.ok);
  EXPECT_GT(engine_->restore_retries(), 0);
  EXPECT_TRUE(proc.has_image);  // a transient read failure keeps the image
}

TEST_F(EngineFaultTest, DumpCompletionAfterCancelDoesNotCommit) {
  ProcessState proc(TaskId(1), MiB(256), kMiB);
  bool done_called = false;
  DumpResult out;
  DumpOptions opts;
  opts.incremental = false;
  engine_->Dump(proc, NodeId(0), opts, [&](DumpResult r) {
    out = r;
    done_called = true;
  });
  engine_->CancelInflight(proc);  // the initiator died (crash / kill)
  sim_.Run();
  ASSERT_TRUE(done_called);
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(proc.has_image);
  EXPECT_EQ(engine_->dumps_completed(), 0);
  // The orphaned new image was cleaned up, not resurrected.
  EXPECT_EQ(dfs_->current_stored(), 0);
}

TEST_F(EngineFaultTest, CanceledReplacementDumpPreservesOldImage) {
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), false).ok);
  const std::string old_path = proc.image_path;
  const Bytes stored_before = dfs_->current_stored();
  DumpOptions opts;
  opts.incremental = false;
  bool done_called = false;
  DumpResult out;
  engine_->Dump(proc, NodeId(0), opts, [&](DumpResult r) {
    out = r;
    done_called = true;
  });
  engine_->CancelInflight(proc);
  sim_.Run();
  ASSERT_TRUE(done_called);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(proc.has_image);
  EXPECT_EQ(proc.image_path, old_path);
  EXPECT_EQ(dfs_->current_stored(), stored_before);
  EXPECT_TRUE(RestoreSync(proc, NodeId(0)).ok);
}

TEST_F(EngineFaultTest, CorruptImageIsDiscardedNotRetried) {
  ProcessState proc(TaskId(1), MiB(64), kMiB);
  ASSERT_TRUE(DumpSync(proc, NodeId(0), false).ok);
  FaultPlan plan;
  plan.image_corruption_prob = 1.0;
  AttachInjector(plan);
  RetryPolicy retry;
  retry.max_attempts = 5;
  retry.backoff = Millis(10);
  engine_->set_retry_policy(retry);
  const RestoreResult result = RestoreSync(proc, NodeId(0));
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.corrupt);
  EXPECT_FALSE(proc.has_image);  // discarded: caller restarts from scratch
  EXPECT_EQ(engine_->corrupt_images_detected(), 1);
  EXPECT_EQ(engine_->restore_retries(), 0);  // corruption is not transient
  EXPECT_EQ(dfs_->current_stored(), 0);
}

// --- YARN layer under faults ----------------------------------------------

Workload TwoJobWorkload(int low_tasks, int high_tasks,
                        SimTime high_submit = Seconds(30)) {
  Workload w;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  for (int i = 0; i < low_tasks; ++i) {
    TaskSpec t;
    t.id = TaskId(i);
    t.job = low.id;
    t.duration = Seconds(60);
    t.demand = Resources{1.0, MiB(1800)};
    t.priority = 1;
    t.memory_write_rate = 0.02;
    low.tasks.push_back(t);
  }
  w.jobs.push_back(low);

  JobSpec high;
  high.id = JobId(1);
  high.submit_time = high_submit;
  high.priority = 9;
  for (int i = 0; i < high_tasks; ++i) {
    TaskSpec t;
    t.id = TaskId(100 + i);
    t.job = high.id;
    t.duration = Seconds(60);
    t.demand = Resources{1.0, MiB(1800)};
    t.priority = 9;
    t.memory_write_rate = 0.02;
    high.tasks.push_back(t);
  }
  w.jobs.push_back(high);
  return w;
}

YarnConfig FaultyYarnConfig() {
  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = 4;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Nvm();
  config.fault.storage_write_fail_prob = 0.2;
  config.fault.storage_read_fail_prob = 0.2;
  config.fault.seed = 11;
  config.fault.node_crashes.push_back({NodeId(0), Seconds(40), Seconds(45)});
  return config;
}

TEST(YarnFaults, WorkloadSurvivesCrashAndTransientIoFaults) {
  YarnCluster yarn(FaultyYarnConfig());
  const YarnResult result = yarn.RunWorkload(TwoJobWorkload(8, 8));
  EXPECT_EQ(result.jobs_completed, 2);
  EXPECT_EQ(result.tasks_completed, 16);
  EXPECT_EQ(result.node_failures, 1);
  EXPECT_GT(result.containers_lost, 0);
  EXPECT_GT(result.faults_injected, 0);
  EXPECT_GE(result.goodput_core_hours, 0.0);
  EXPECT_LE(result.goodput_core_hours, result.total_busy_core_hours);
}

TEST(YarnFaults, SameFaultSeedSameResult) {
  const Workload w = TwoJobWorkload(8, 8);
  YarnCluster a(FaultyYarnConfig());
  YarnCluster b(FaultyYarnConfig());
  const YarnResult ra = a.RunWorkload(w);
  const YarnResult rb = b.RunWorkload(w);
  EXPECT_EQ(ra.makespan, rb.makespan);
  EXPECT_EQ(ra.faults_injected, rb.faults_injected);
  EXPECT_EQ(ra.dump_failures, rb.dump_failures);
  EXPECT_EQ(ra.restore_failures, rb.restore_failures);
  EXPECT_EQ(ra.checkpoint_retries, rb.checkpoint_retries);
  EXPECT_EQ(ra.containers_lost, rb.containers_lost);
  EXPECT_EQ(ra.fallback_kills, rb.fallback_kills);
  EXPECT_DOUBLE_EQ(ra.wasted_core_hours, rb.wasted_core_hours);
  EXPECT_DOUBLE_EQ(ra.goodput_core_hours, rb.goodput_core_hours);
}

TEST(YarnFaults, CorruptImagesDegradeToRestartNotCrash) {
  // Regression for the AM aborting on !result.ok: with every image corrupt,
  // restores fail but the workload still finishes via scratch restarts.
  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = 4;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Nvm();
  config.fault.image_corruption_prob = 1.0;
  config.fault.seed = 5;
  YarnCluster yarn(config);
  const YarnResult result = yarn.RunWorkload(TwoJobWorkload(8, 8));
  EXPECT_EQ(result.tasks_completed, 16);
  EXPECT_GT(result.corrupt_images, 0);
  EXPECT_GT(result.restore_failures, 0);
}

TEST(YarnFaults, PersistentDumpFailureDegradesToKillSemantics) {
  // Regression for the AM aborting on a failed dump: the container is still
  // vacated, progress since the last image is lost, and everything finishes.
  YarnConfig config;
  config.num_nodes = 2;
  config.containers_per_node = 4;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Nvm();
  config.fault.storage_write_fail_prob = 1.0;
  config.fault.seed = 5;
  config.checkpoint_retry_attempts = 1;
  YarnCluster yarn(config);
  const YarnResult result = yarn.RunWorkload(TwoJobWorkload(8, 8));
  EXPECT_EQ(result.tasks_completed, 16);
  EXPECT_GT(result.dump_failures, 0);
  EXPECT_GT(result.fallback_kills, 0);
}

// --- Trace scheduler under a FaultPlan ------------------------------------

// Two long low-priority tasks fill both nodes; staggered high-priority
// arrivals repeatedly preempt them.
Workload RepeatedPreemptionWorkload(int high_jobs) {
  Workload w;
  JobSpec low;
  low.id = JobId(0);
  low.priority = 1;
  for (int i = 0; i < 2; ++i) {
    TaskSpec task;
    task.id = TaskId(i);
    task.job = low.id;
    task.duration = Minutes(20);
    task.demand = Resources{4.0, GiB(4)};
    task.priority = 1;
    task.memory_write_rate = 0.01;
    low.tasks.push_back(task);
  }
  w.jobs.push_back(low);

  for (int j = 0; j < high_jobs; ++j) {
    JobSpec high;
    high.id = JobId(1 + j);
    high.submit_time = Minutes(2 + 4 * j);
    high.priority = 9;
    TaskSpec ht = low.tasks[0];
    ht.id = TaskId(10 + j);
    ht.job = high.id;
    ht.duration = Minutes(2);
    ht.priority = 9;
    high.tasks.push_back(ht);
    w.jobs.push_back(high);
  }
  return w;
}

TEST(SchedulerFaults, PersistentDumpFailuresFallBackToKill) {
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Nvm());
  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Nvm();
  config.fault.storage_write_fail_prob = 1.0;
  config.max_checkpoint_failures = 1;
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(RepeatedPreemptionWorkload(3));
  const SimulationResult result = scheduler.Run();
  EXPECT_EQ(result.tasks_completed, 5);
  EXPECT_GT(result.dump_failures, 0);
  EXPECT_GT(result.checkpoint_failure_fallback_kills, 0);
  EXPECT_GT(result.faults_injected, 0);
}

TEST(SchedulerFaults, PersistentRestoreFailuresFallBackToScratchRestart) {
  // A permanently unreadable image must not livelock the restore path: after
  // max_checkpoint_failures failed loads the task gives up on the image.
  Simulator sim;
  Cluster cluster(&sim);
  cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Nvm());
  SchedulerConfig config;
  config.policy = PreemptionPolicy::kCheckpoint;
  config.medium = StorageMedium::Nvm();
  config.fault.storage_read_fail_prob = 1.0;
  ClusterScheduler scheduler(&sim, &cluster, config);
  scheduler.Submit(RepeatedPreemptionWorkload(1));
  const SimulationResult result = scheduler.Run();
  EXPECT_EQ(result.tasks_completed, 3);
  EXPECT_GE(result.restore_failures, config.max_checkpoint_failures);
  EXPECT_GT(result.restarts_from_scratch, 0);
}

TEST(SchedulerFaults, PlanScriptedCrashMatchesManualInjection) {
  const Workload w = RepeatedPreemptionWorkload(1);
  SimulationResult scripted, manual;
  {
    Simulator sim;
    Cluster cluster(&sim);
    cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Nvm());
    SchedulerConfig config;
    config.policy = PreemptionPolicy::kCheckpoint;
    config.medium = StorageMedium::Nvm();
    config.fault.node_crashes.push_back({NodeId(0), Minutes(3), Minutes(2)});
    ClusterScheduler scheduler(&sim, &cluster, config);
    scheduler.Submit(w);
    scripted = scheduler.Run();
  }
  {
    Simulator sim;
    Cluster cluster(&sim);
    cluster.AddNodes(2, Resources{4.0, GiB(16)}, StorageMedium::Nvm());
    SchedulerConfig config;
    config.policy = PreemptionPolicy::kCheckpoint;
    config.medium = StorageMedium::Nvm();
    ClusterScheduler scheduler(&sim, &cluster, config);
    scheduler.Submit(w);
    scheduler.InjectNodeFailure(NodeId(0), Minutes(3), Minutes(2));
    manual = scheduler.Run();
  }
  EXPECT_EQ(scripted.node_failures, 1);
  EXPECT_EQ(scripted.tasks_completed, manual.tasks_completed);
  EXPECT_EQ(scripted.node_failures, manual.node_failures);
  EXPECT_EQ(scripted.makespan, manual.makespan);
  EXPECT_DOUBLE_EQ(scripted.lost_work_core_hours,
                   manual.lost_work_core_hours);
  EXPECT_DOUBLE_EQ(scripted.wasted_core_hours, manual.wasted_core_hours);
}

}  // namespace
}  // namespace ckpt
