#include "scheduler/policy.h"

#include <gtest/gtest.h>

namespace ckpt {
namespace {

TEST(Algorithm1, OverheadFormulaMatchesPaper) {
  // overhead = size/bw_write + size/bw_read + queue_time (Algorithm 1).
  CheckpointCost cost;
  cost.dump_bytes = GiB(1);
  cost.restore_bytes = GiB(1);
  cost.write_bw = MBps(100);
  cost.read_bw = MBps(200);
  cost.dump_queue_time = Seconds(2);
  const SimDuration overhead = EstimateCheckpointOverhead(cost);
  const double expected =
      ToGiB(GiB(1)) * 1073741824.0 / 100e6 +  // dump
      ToGiB(GiB(1)) * 1073741824.0 / 200e6 +  // restore
      2.0;
  EXPECT_NEAR(ToSeconds(overhead), expected, 0.01);
}

TEST(Algorithm1, KillWhenProgressBelowOverhead) {
  EXPECT_EQ(DecidePreemption(Seconds(10), Seconds(60), false),
            PreemptAction::kKill);
}

TEST(Algorithm1, CheckpointWhenProgressExceedsOverhead) {
  EXPECT_EQ(DecidePreemption(Seconds(120), Seconds(60), false),
            PreemptAction::kCheckpointFull);
}

TEST(Algorithm1, IncrementalWhenPriorImageExists) {
  EXPECT_EQ(DecidePreemption(Seconds(120), Seconds(60), true),
            PreemptAction::kCheckpointIncremental);
}

TEST(Algorithm1, BoundaryGoesToKill) {
  // progress == overhead: the paper checkpoints only when progress exceeds.
  EXPECT_EQ(DecidePreemption(Seconds(60), Seconds(60), false),
            PreemptAction::kKill);
}

TEST(Algorithm1, ThresholdScalesDecision) {
  // progress 90s, overhead 60s: checkpoint at k=1, kill at k=2.
  EXPECT_EQ(DecidePreemption(Seconds(90), Seconds(60), false, 1.0),
            PreemptAction::kCheckpointFull);
  EXPECT_EQ(DecidePreemption(Seconds(90), Seconds(60), false, 2.0),
            PreemptAction::kKill);
  EXPECT_EQ(DecidePreemption(Seconds(31), Seconds(60), false, 0.5),
            PreemptAction::kCheckpointFull);
}

TEST(Algorithm2, RestartWithoutImage) {
  EXPECT_EQ(DecideRestore(false, Seconds(1), Seconds(100)),
            RestoreChoice::kRestart);
}

TEST(Algorithm2, LocalWhenCheaper) {
  EXPECT_EQ(DecideRestore(true, Seconds(5), Seconds(8)), RestoreChoice::kLocal);
}

TEST(Algorithm2, RemoteWhenLocalQueued) {
  // Local restore stuck behind a long checkpoint queue loses to remote.
  RestoreCost cost;
  cost.image_bytes = GiB(2);
  cost.read_bw = MBps(100);
  cost.net_bw = GBps(1);
  cost.local_queue_time = Seconds(60);
  cost.remote_queue_time = 0;
  const SimDuration local = EstimateLocalRestore(cost);
  const SimDuration remote = EstimateRemoteRestore(cost);
  EXPECT_LT(remote, local);
  EXPECT_EQ(DecideRestore(true, local, remote), RestoreChoice::kRemote);
}

TEST(Algorithm2, TieGoesLocal) {
  EXPECT_EQ(DecideRestore(true, Seconds(5), Seconds(5)), RestoreChoice::kLocal);
}

TEST(Algorithm2, RemoteAddsNetworkTerm) {
  RestoreCost cost;
  cost.image_bytes = GiB(1);
  cost.read_bw = MBps(100);
  cost.net_bw = GBps(1);
  EXPECT_EQ(EstimateRemoteRestore(cost) - EstimateLocalRestore(cost),
            TransferTime(GiB(1), GBps(1)));
}

TEST(PolicyNames, AllDistinct) {
  EXPECT_STREQ(PolicyName(PreemptionPolicy::kWait), "Wait");
  EXPECT_STREQ(PolicyName(PreemptionPolicy::kKill), "Kill");
  EXPECT_STREQ(PolicyName(PreemptionPolicy::kCheckpoint), "Checkpoint");
  EXPECT_STREQ(PolicyName(PreemptionPolicy::kAdaptive), "Adaptive");
}

// The audit log, the policy.decision trace and the policy.decisions counter
// all spell actions with this vocabulary.
TEST(PolicyNames, ActionNamesAreTheAuditVocabulary) {
  EXPECT_STREQ(ActionName(PreemptAction::kKill), "kill");
  EXPECT_STREQ(ActionName(PreemptAction::kCheckpointFull), "checkpoint_full");
  EXPECT_STREQ(ActionName(PreemptAction::kCheckpointIncremental),
               "checkpoint_incremental");
}

// Property sweep: the adaptive decision is monotone in progress — once the
// progress is large enough to checkpoint, more progress never flips back to
// kill.
class AdaptiveMonotoneTest : public ::testing::TestWithParam<double> {};

TEST_P(AdaptiveMonotoneTest, MonotoneInProgress) {
  const SimDuration overhead = Seconds(GetParam());
  bool seen_checkpoint = false;
  for (int s = 0; s <= 300; s += 5) {
    const PreemptAction action =
        DecidePreemption(Seconds(s), overhead, false);
    if (action != PreemptAction::kKill) seen_checkpoint = true;
    if (seen_checkpoint) {
      EXPECT_NE(action, PreemptAction::kKill) << "flipped back at s=" << s;
    }
  }
  EXPECT_TRUE(seen_checkpoint);
}

INSTANTIATE_TEST_SUITE_P(OverheadSweep, AdaptiveMonotoneTest,
                         ::testing::Values(1.0, 10.0, 60.0, 240.0));

}  // namespace
}  // namespace ckpt
