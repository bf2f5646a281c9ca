// Capacity-scheduling mode of the ResourceManager (paper S3.1): two queues
// with guaranteed shares, work-conserving borrowing, and reclaim-by-
// preemption that never digs into a queue's own guarantee.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "yarn/resource_manager.h"
#include "yarn/yarn_cluster.h"

namespace ckpt {
namespace {

class RecordingAm : public AppClient {
 public:
  void OnContainerAllocated(const Container& container) override {
    allocated.push_back(container);
  }
  void OnPreemptContainer(ContainerId id) override { preempted.push_back(id); }
  std::vector<Container> allocated;
  std::vector<ContainerId> preempted;
};

class CapacityRmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_nodes = 2;
    config_.containers_per_node = 4;  // 8 slots
    config_.scheduling_mode = SchedulingMode::kCapacity;
    config_.production_guarantee = 0.5;  // 4 production / 4 batch
    config_.policy = PreemptionPolicy::kAdaptive;
    cluster_ = std::make_unique<Cluster>(&sim_);
    cluster_->AddNodes(config_.num_nodes, Resources{4.0, GiB(8)},
                       config_.medium);
    std::vector<NodeManager*> nms;
    for (Node* node : cluster_->nodes()) {
      node_managers_.push_back(std::make_unique<NodeManager>(node));
      nms.push_back(node_managers_.back().get());
    }
    rm_ = std::make_unique<ResourceManager>(&sim_, nms, config_);
  }

  Simulator sim_;
  YarnConfig config_;
  std::unique_ptr<Cluster> cluster_;
  std::vector<std::unique_ptr<NodeManager>> node_managers_;
  std::unique_ptr<ResourceManager> rm_;
};

TEST_F(CapacityRmTest, IdleCapacityIsBorrowable) {
  RecordingAm batch;
  const AppId app = rm_->RegisterApp(&batch, 1);
  rm_->RequestContainers(app, 8);  // beyond the 4-slot batch guarantee
  sim_.Run();
  EXPECT_EQ(batch.allocated.size(), 8u);  // work conservation
}

TEST_F(CapacityRmTest, ProductionReclaimsItsGuaranteeViaPreemption) {
  RecordingAm batch;
  const AppId batch_app = rm_->RegisterApp(&batch, 1);
  rm_->RequestContainers(batch_app, 8);
  sim_.Run();
  ASSERT_EQ(batch.allocated.size(), 8u);

  RecordingAm production;
  const AppId prod_app = rm_->RegisterApp(&production, 10);
  rm_->RequestContainers(prod_app, 4);
  sim_.Run();
  // Production's guarantee is 4: exactly 4 batch containers are asked to
  // vacate (the batch queue keeps its own 4 guaranteed slots).
  EXPECT_EQ(batch.preempted.size(), 4u);

  for (ContainerId id : batch.preempted) rm_->ReleaseContainer(id);
  sim_.Run();
  EXPECT_EQ(production.allocated.size(), 4u);
}

TEST_F(CapacityRmTest, BatchGuaranteeIsNeverPreempted) {
  RecordingAm batch;
  const AppId batch_app = rm_->RegisterApp(&batch, 1);
  rm_->RequestContainers(batch_app, 4);  // exactly the batch guarantee
  sim_.Run();
  ASSERT_EQ(batch.allocated.size(), 4u);

  RecordingAm production;
  const AppId prod_app = rm_->RegisterApp(&production, 10);
  rm_->RequestContainers(prod_app, 8);  // wants more than its guarantee
  sim_.Run();
  // Production fills the 4 free slots; the batch queue is within its own
  // guarantee, so nothing is preempted even though production wants more.
  EXPECT_EQ(production.allocated.size(), 4u);
  EXPECT_TRUE(batch.preempted.empty());
}

TEST_F(CapacityRmTest, BatchCanReclaimFromProductionToo) {
  RecordingAm production;
  const AppId prod_app = rm_->RegisterApp(&production, 10);
  rm_->RequestContainers(prod_app, 8);
  sim_.Run();
  ASSERT_EQ(production.allocated.size(), 8u);

  RecordingAm batch;
  const AppId batch_app = rm_->RegisterApp(&batch, 1);
  rm_->RequestContainers(batch_app, 2);
  sim_.Run();
  // Production holds 4 beyond its guarantee; batch reclaims its share.
  EXPECT_EQ(production.preempted.size(), 2u);
}

TEST_F(CapacityRmTest, DeficitQueueAllocatesFirstOnRelease) {
  RecordingAm batch;
  const AppId batch_app = rm_->RegisterApp(&batch, 1);
  rm_->RequestContainers(batch_app, 8);
  sim_.Run();
  RecordingAm production;
  const AppId prod_app = rm_->RegisterApp(&production, 10);
  rm_->RequestContainers(prod_app, 2);
  // Also queue more batch asks behind production's.
  rm_->RequestContainers(batch_app, 2);
  sim_.Run();
  ASSERT_GE(batch.preempted.size(), 1u);
  for (ContainerId id : batch.preempted) rm_->ReleaseContainer(id);
  sim_.Run();
  // The freed slots go to the under-guarantee production queue, not to the
  // earlier-queued batch asks.
  EXPECT_EQ(production.allocated.size(), 2u);
}

TEST_F(CapacityRmTest, SaturatedQueueBacklogDoesNotBlockTheOtherQueue) {
  RecordingAm batch;
  const AppId batch_app = rm_->RegisterApp(&batch, 1);
  rm_->RequestContainers(batch_app, 4);
  sim_.Run();
  RecordingAm production;
  const AppId prod_app = rm_->RegisterApp(&production, 10);
  rm_->RequestContainers(prod_app, 100);  // guarantee of 4 plus a backlog
  sim_.Run();
  ASSERT_EQ(production.allocated.size(), 4u);
  ASSERT_EQ(rm_->pending_asks(), 96);

  // Batch frees two of its slots and asks for two more in the same round:
  // production is at its guarantee, so its 96 queued asks (ahead of batch
  // in priority order) must not take batch's share.
  rm_->RequestContainers(batch_app, 2);
  rm_->ReleaseContainer(batch.allocated[0].id);
  rm_->ReleaseContainer(batch.allocated[1].id);
  sim_.Run();
  EXPECT_EQ(batch.allocated.size(), 6u);
  EXPECT_EQ(production.allocated.size(), 4u);
  EXPECT_EQ(rm_->pending_asks(), 96);
  EXPECT_TRUE(batch.preempted.empty());
  EXPECT_TRUE(production.preempted.empty());
}

// End-to-end: capacity mode avoids the batch starvation that strict
// priority inflicts when production floods the cluster.
TEST(CapacityEndToEnd, BatchKeepsProgressUnderProductionFlood) {
  auto run = [](SchedulingMode mode) {
    YarnConfig config;
    config.num_nodes = 2;
    config.containers_per_node = 4;
    config.scheduling_mode = mode;
    config.production_guarantee = 0.5;
    config.policy = PreemptionPolicy::kCheckpoint;
    config.medium = StorageMedium::Nvm();
    YarnCluster yarn(config);

    Workload w;
    JobSpec batch;
    batch.id = JobId(0);
    batch.priority = 1;
    for (int i = 0; i < 8; ++i) {
      TaskSpec task;
      task.id = TaskId(i);
      task.job = batch.id;
      task.duration = Seconds(120);
      task.demand = Resources{1.0, MiB(1800)};
      task.priority = 1;
      task.memory_write_rate = 0.02;
      batch.tasks.push_back(task);
    }
    w.jobs.push_back(batch);
    // A stream of production jobs that could occupy the whole cluster
    // indefinitely under strict priority.
    for (int burst = 0; burst < 6; ++burst) {
      JobSpec prod;
      prod.id = JobId(1 + burst);
      prod.submit_time = Seconds(30 + 60 * burst);
      prod.priority = 10;
      for (int i = 0; i < 8; ++i) {
        TaskSpec task;
        task.id = TaskId(100 + burst * 10 + i);
        task.job = prod.id;
        task.duration = Seconds(55);
        task.demand = Resources{1.0, MiB(1800)};
        task.priority = 10;
        prod.tasks.push_back(task);
      }
      w.jobs.push_back(prod);
    }
    const YarnResult result = yarn.RunWorkload(w);
    EXPECT_EQ(result.jobs_completed, 7);
    return result.low_priority_job_responses.Mean();
  };

  const double priority_mode = run(SchedulingMode::kPriority);
  const double capacity_mode = run(SchedulingMode::kCapacity);
  // With a guaranteed share the batch job finishes well before the
  // production flood ends.
  EXPECT_LT(capacity_mode, priority_mode * 0.8);
}

}  // namespace
}  // namespace ckpt
