// Preemption policy vocabulary and the paper's Algorithms 1 and 2 as pure,
// independently testable decision functions.
//
// Algorithm 1 (adaptive preemption): estimate the total checkpoint overhead
//   overhead = size/bw_write + size/bw_read + queue_time_dump
// and checkpoint the victim only when its (unsaved) progress exceeds the
// overhead; otherwise kill it. Victims with an earlier image are dumped
// incrementally.
//
// Algorithm 2 (adaptive resumption): tasks without an image restart from
// scratch; otherwise restore locally or remotely, whichever overhead is
// smaller:
//   overhead_local  = size/bw_read + queue_time_local
//   overhead_remote = size/bw_net + size/bw_read + queue_time_remote
#pragma once

#include "common/units.h"

namespace ckpt {

enum class PreemptionPolicy {
  kWait,        // never preempt: arrivals queue behind running work
  kKill,        // stock YARN/Google behaviour: kill victims
  kCheckpoint,  // "basic": always checkpoint victims
  kAdaptive,    // Algorithm 1
};

const char* PolicyName(PreemptionPolicy policy);

enum class RestorePolicy {
  kAlwaysLocal,   // ablation: resume only on the checkpointing node
  kAlwaysRemote,  // ablation: always move the image
  kAdaptive,      // Algorithm 2
};

enum class VictimOrder {
  kCostAware,       // lowest checkpoint cost first (paper S5.2.2)
  kLowestPriority,  // priority, then most recently started
  kRandom,          // ablation baseline
};

// --- Algorithm 1 -----------------------------------------------------------

struct CheckpointCost {
  Bytes dump_bytes = 0;     // what the next dump would write
  Bytes restore_bytes = 0;  // what a later restore would read
  Bandwidth write_bw = 0;
  Bandwidth read_bw = 0;
  SimDuration dump_queue_time = 0;  // wait behind other checkpoint ops
  // Interference-aware terms (defaults are neutral / byte-identical).
  // Fair-share slowdown the dump would see on the shared ingest domain
  // (>= 1; stretches the write term).
  double write_contention = 1.0;
  // Expected wait for a cooperative dump-scheduler admission slot.
  SimDuration admit_delay = 0;
};

// Total suspend-resume overhead as Algorithm 1 estimates it.
SimDuration EstimateCheckpointOverhead(const CheckpointCost& cost);

enum class PreemptAction { kKill, kCheckpointFull, kCheckpointIncremental };

// Audit/trace vocabulary: "kill", "checkpoint_full", "checkpoint_incremental".
const char* ActionName(PreemptAction action);

// The fixed policies' action: kKill kills, kCheckpoint checkpoints
// (incrementally if possible). kWait never preempts and kAdaptive needs its
// decision (ChoosePreemptAction), so both fail a CHECK.
PreemptAction FixedPreemptAction(PreemptionPolicy policy, bool can_increment);

// Every front-end's policy -> action mapping. `adaptive()` runs only under
// kAdaptive, so the adaptive inputs (overhead probes, dirty-page RNG draws)
// are computed only when Algorithm 1 consults them.
template <typename AdaptiveDecision>
PreemptAction ChoosePreemptAction(PreemptionPolicy policy, bool can_increment,
                                  AdaptiveDecision&& adaptive) {
  if (policy == PreemptionPolicy::kAdaptive) return adaptive();
  return FixedPreemptAction(policy, can_increment);
}

// Decide kill vs (incremental) checkpoint for one victim.
//  `unsaved_progress` — work that dies with the task if killed;
//  `overhead`         — EstimateCheckpointOverhead result;
//  `has_prior_image`  — enables the incremental path;
//  `threshold`        — scaling knob on the progress>overhead comparison
//                       (1.0 reproduces the paper; swept by the ablation).
PreemptAction DecidePreemption(SimDuration unsaved_progress,
                               SimDuration overhead, bool has_prior_image,
                               double threshold = 1.0);

// --- Service extension of Algorithm 1 --------------------------------------
// For a long-running service replica, killing loses no batch work — the
// costs are SLO-violation seconds (capacity missing while the replica is
// down or frozen) plus the cores a checkpoint burns. Kill restarts the
// replica cold (warmup at reduced capacity); checkpoint freezes it for the
// dump but resumes it warm.

struct ServicePreemptCost {
  // Estimated SLO damage of a kill: replica down until rescheduled, then a
  // cold warmup at reduced capacity.
  double kill_violation_s = 0;
  // Estimated SLO damage of a checkpoint: replica frozen for the dump (and
  // the later restore read-back).
  double ckpt_violation_s = 0;
  // Frozen-core time the checkpoint burns (EstimateCheckpointOverhead).
  SimDuration ckpt_overhead = 0;
};

// Kill iff the kill's violation cost is no worse than `threshold` times the
// checkpoint's total cost (violation seconds plus frozen-core seconds). In
// a traffic trough both violation terms are ~0 and the checkpoint still
// pays its overhead, so troughs kill; near a peak the cold-restart damage
// dominates the short freeze, so peaks checkpoint.
PreemptAction DecideServicePreemption(const ServicePreemptCost& cost,
                                      bool has_prior_image,
                                      double threshold = 1.0);

// --- Algorithm 2 -----------------------------------------------------------

struct RestoreCost {
  Bytes image_bytes = 0;
  Bandwidth read_bw = 0;
  Bandwidth net_bw = 0;
  SimDuration local_queue_time = 0;
  SimDuration remote_queue_time = 0;
};

SimDuration EstimateLocalRestore(const RestoreCost& cost);
SimDuration EstimateRemoteRestore(const RestoreCost& cost);

enum class RestoreChoice { kRestart, kLocal, kRemote };

RestoreChoice DecideRestore(bool has_image, SimDuration local_overhead,
                            SimDuration remote_overhead);

}  // namespace ckpt
