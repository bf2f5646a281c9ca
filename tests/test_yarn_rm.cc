#include "yarn/resource_manager.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cluster/cluster.h"

namespace ckpt {
namespace {

// Scripted AM: records allocations and preemption events.
class FakeAm : public AppClient {
 public:
  void OnContainerAllocated(const Container& container) override {
    allocated.push_back(container);
  }
  void OnPreemptContainer(ContainerId id) override {
    preempted.push_back(id);
  }
  std::vector<Container> allocated;
  std::vector<ContainerId> preempted;
};

class RmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    config_.num_nodes = 2;
    config_.containers_per_node = 4;
    config_.policy = PreemptionPolicy::kAdaptive;  // monitor enabled
    cluster_ = std::make_unique<Cluster>(&sim_);
    cluster_->AddNodes(config_.num_nodes,
                       Resources{4.0, GiB(8)}, config_.medium);
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

TEST_F(RmTest, AllocatesUpToCapacity) {
  FakeAm am;
  const AppId app = rm_->RegisterApp(&am, 1);
  rm_->RequestContainers(app, 10);
  sim_.Run();
  // 2 nodes x 4 slots.
  EXPECT_EQ(am.allocated.size(), 8u);
  EXPECT_EQ(rm_->live_containers(), 8);
  EXPECT_EQ(rm_->pending_asks(), 2);
}

TEST_F(RmTest, HigherPriorityAskServedFirst) {
  FakeAm low, high;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  const AppId high_app = rm_->RegisterApp(&high, 9);
  // Fill the cluster minus one slot with filler, then race two asks.
  FakeAm filler;
  const AppId filler_app = rm_->RegisterApp(&filler, 5);
  rm_->RequestContainers(filler_app, 7);
  sim_.Run();
  rm_->RequestContainers(low_app, 1);
  rm_->RequestContainers(high_app, 1);
  sim_.Run();
  EXPECT_EQ(high.allocated.size(), 1u);
  EXPECT_EQ(low.allocated.size(), 0u);
}

TEST_F(RmTest, PreferredNodeHonoredWhenFree) {
  FakeAm am;
  const AppId app = rm_->RegisterApp(&am, 1);
  rm_->RequestContainers(app, 1, NodeId(1));
  sim_.Run();
  ASSERT_EQ(am.allocated.size(), 1u);
  EXPECT_EQ(am.allocated[0].node, NodeId(1));
}

TEST_F(RmTest, PreferredNodeFallsBackWhenFull) {
  FakeAm am;
  const AppId app = rm_->RegisterApp(&am, 1);
  rm_->RequestContainers(app, 4, NodeId(1));  // fill node 1
  sim_.Run();
  rm_->RequestContainers(app, 1, NodeId(1));
  sim_.Run();
  ASSERT_EQ(am.allocated.size(), 5u);
  EXPECT_EQ(am.allocated.back().node, NodeId(0));
}

TEST_F(RmTest, ReleaseRecyclesSlot) {
  FakeAm am;
  const AppId app = rm_->RegisterApp(&am, 1);
  rm_->RequestContainers(app, 8);
  sim_.Run();
  ASSERT_EQ(am.allocated.size(), 8u);
  rm_->ReleaseContainer(am.allocated[0].id);
  rm_->RequestContainers(app, 1);
  sim_.Run();
  EXPECT_EQ(am.allocated.size(), 9u);
}

TEST_F(RmTest, MonitorPreemptsLowerPriorityWhenFull) {
  FakeAm low;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  rm_->RequestContainers(low_app, 8);
  sim_.Run();
  ASSERT_EQ(low.allocated.size(), 8u);

  FakeAm high;
  const AppId high_app = rm_->RegisterApp(&high, 9);
  rm_->RequestContainers(high_app, 3);
  sim_.Run();
  // Three ContainerPreemptEvents dispatched to the low-priority AM.
  EXPECT_EQ(low.preempted.size(), 3u);
  EXPECT_EQ(rm_->preempt_events_sent(), 3);
  EXPECT_TRUE(high.allocated.empty());  // AM has not released yet

  // AM complies: slots free, high app gets them.
  for (ContainerId id : low.preempted) rm_->ReleaseContainer(id);
  sim_.Run();
  EXPECT_EQ(high.allocated.size(), 3u);
}

TEST_F(RmTest, MonitorDoesNotDuplicateEventsWhilePending) {
  FakeAm low;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  rm_->RequestContainers(low_app, 8);
  sim_.Run();
  FakeAm high;
  const AppId high_app = rm_->RegisterApp(&high, 9);
  rm_->RequestContainers(high_app, 2);
  sim_.Run();
  EXPECT_EQ(low.preempted.size(), 2u);
  // More traffic does not re-preempt the same containers.
  rm_->RequestContainers(high_app, 0);
  sim_.Run();
  EXPECT_EQ(low.preempted.size(), 2u);
}

TEST_F(RmTest, NoPreemptionAgainstEqualOrHigherPriority) {
  FakeAm a;
  const AppId app_a = rm_->RegisterApp(&a, 9);
  rm_->RequestContainers(app_a, 8);
  sim_.Run();
  FakeAm b;
  const AppId app_b = rm_->RegisterApp(&b, 9);
  rm_->RequestContainers(app_b, 2);
  sim_.Run();
  EXPECT_TRUE(a.preempted.empty());
  EXPECT_TRUE(b.allocated.empty());
}

TEST_F(RmTest, WaitPolicyDisablesMonitor) {
  config_.policy = PreemptionPolicy::kWait;
  std::vector<NodeManager*> nms;
  for (auto& nm : node_managers_) nms.push_back(nm.get());
  ResourceManager rm(&sim_, nms, config_);
  FakeAm low;
  const AppId low_app = rm.RegisterApp(&low, 1);
  rm.RequestContainers(low_app, 8);
  sim_.Run();
  FakeAm high;
  const AppId high_app = rm.RegisterApp(&high, 9);
  rm.RequestContainers(high_app, 1);
  sim_.Run();
  EXPECT_TRUE(low.preempted.empty());
  EXPECT_EQ(rm.preempt_events_sent(), 0);
}

TEST_F(RmTest, CostAwareVictimsPreferIdleStorageNodes) {
  FakeAm low;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  rm_->RequestContainers(low_app, 8);
  sim_.Run();
  // Back up node 0's device so its victims look expensive.
  cluster_->node(NodeId(0)).storage().SubmitWrite(GiB(20), nullptr);

  FakeAm high;
  const AppId high_app = rm_->RegisterApp(&high, 9);
  rm_->RequestContainers(high_app, 2);
  sim_.Run();
  ASSERT_EQ(low.preempted.size(), 2u);
  for (ContainerId id : low.preempted) {
    const Container* c = rm_->FindContainer(id);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->node, NodeId(1)) << "victim picked on the congested node";
  }
}

// Preempt events from several AMs, in the order the RM dispatched them.
class LoggingAm : public FakeAm {
 public:
  explicit LoggingAm(std::vector<ContainerId>* log) : log_(log) {}
  void OnPreemptContainer(ContainerId id) override {
    FakeAm::OnPreemptContainer(id);
    log_->push_back(id);
  }

 private:
  std::vector<ContainerId>* log_;
};

class RmVictimTest : public RmTest {
 protected:
  // Rebuild the RM over the same nodes with `policy` and `order`.
  void Reset(PreemptionPolicy policy, VictimOrder order) {
    config_.policy = policy;
    config_.victim_order = order;
    std::vector<NodeManager*> nms;
    for (auto& nm : node_managers_) nms.push_back(nm.get());
    rm_ = std::make_unique<ResourceManager>(&sim_, nms, config_);
  }
};

TEST_F(RmVictimTest, LowestPriorityOrderPreemptsOnlyLowerBucketsLowestFirst) {
  // Kill policy: no per-node vacating cap, so the ranking alone decides.
  Reset(PreemptionPolicy::kKill, VictimOrder::kLowestPriority);
  std::vector<ContainerId> log;
  LoggingAm p1(&log), p5(&log), p9(&log);
  const AppId app1 = rm_->RegisterApp(&p1, 1);
  const AppId app5 = rm_->RegisterApp(&p5, 5);
  const AppId app9 = rm_->RegisterApp(&p9, 9);
  rm_->RequestContainers(app1, 3);
  rm_->RequestContainers(app5, 3);
  rm_->RequestContainers(app9, 2);
  sim_.Run();
  ASSERT_EQ(rm_->live_containers(), 8);

  LoggingAm top(&log);
  const AppId top_app = rm_->RegisterApp(&top, 9);
  rm_->RequestContainers(top_app, 8);
  sim_.Run();
  // Every container below priority 9 is a victim, priority 1 first; the
  // priority-9 containers are never asked to vacate.
  ASSERT_EQ(log.size(), 6u);
  for (size_t i = 0; i < log.size(); ++i) {
    const Container* victim = rm_->FindContainer(log[i]);
    ASSERT_NE(victim, nullptr);
    EXPECT_EQ(victim->priority, i < 3 ? 1 : 5) << "event " << i;
  }
  EXPECT_EQ(p1.preempted.size(), 3u);
  EXPECT_EQ(p5.preempted.size(), 3u);
  EXPECT_TRUE(p9.preempted.empty());
}

TEST_F(RmVictimTest, UnregisteredAppsAsksLeaveTheMonitorsCount) {
  Reset(PreemptionPolicy::kAdaptive, VictimOrder::kCostAware);
  FakeAm low;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  rm_->RequestContainers(low_app, 8);
  sim_.Run();
  FakeAm first;
  const AppId first_app = rm_->RegisterApp(&first, 9);
  rm_->RequestContainers(first_app, 3);
  sim_.Run();
  ASSERT_EQ(low.preempted.size(), 3u);

  // The first app leaves with its 3 asks outstanding; its preempts are
  // still in flight. One more ask is covered by them.
  rm_->UnregisterApp(first_app);
  EXPECT_EQ(rm_->pending_asks(), 0);
  FakeAm second;
  const AppId second_app = rm_->RegisterApp(&second, 9);
  rm_->RequestContainers(second_app, 1);
  sim_.Run();
  EXPECT_EQ(low.preempted.size(), 3u);
  EXPECT_EQ(rm_->preempt_events_sent(), 3);
}

TEST_F(RmVictimTest, ContainersLostToNodeFailureAreNeverVictims) {
  Reset(PreemptionPolicy::kKill, VictimOrder::kCostAware);
  FakeAm low;
  const AppId low_app = rm_->RegisterApp(&low, 1);
  rm_->RequestContainers(low_app, 8);
  sim_.Run();
  ASSERT_EQ(low.allocated.size(), 8u);
  rm_->OnNodeFailure(NodeId(0));
  sim_.Run();
  ASSERT_EQ(rm_->live_containers(), 4);

  FakeAm high;
  const AppId high_app = rm_->RegisterApp(&high, 9);
  rm_->RequestContainers(high_app, 8);
  sim_.Run();
  // Only node 1's four survivors can be asked to vacate.
  ASSERT_EQ(low.preempted.size(), 4u);
  for (ContainerId id : low.preempted) {
    const Container* victim = rm_->FindContainer(id);
    ASSERT_NE(victim, nullptr) << "lost container " << id.value();
    EXPECT_EQ(victim->node, NodeId(1));
  }
  for (ContainerId id : low.preempted) rm_->ReleaseContainer(id);
  sim_.Run();
  EXPECT_EQ(high.allocated.size(), 4u);
  EXPECT_EQ(rm_->preempt_events_sent(), 4);
}

}  // namespace
}  // namespace ckpt
