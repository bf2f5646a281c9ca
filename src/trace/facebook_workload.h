// Facebook-derived YARN workload (S5.3): 40 jobs / ~7,000 tasks split into
// low and high priority, co-located on an 8-node cluster. Tasks model the
// k-means learner used in the paper: ~1 minute of work with a ~1.8 GiB
// memory footprint. Periodically a large production job arrives and
// preempts all low-priority work ("a large production job would arrive
// every 500 seconds and kill all low priority map tasks"), including one job
// larger than the whole cluster.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "trace/workload.h"

namespace ckpt {

struct FacebookWorkloadConfig {
  std::uint64_t seed = 600;
  int total_jobs = 40;
  int total_tasks = 7000;
  int cluster_containers = 192;  // 8 nodes x 24 containers
  SimDuration production_period = Seconds(500);
  // Production (high-priority) task length; the paper's foreground bursts
  // are short parallel waves.
  SimDuration task_duration = Seconds(60);
  // Low-priority batch tasks are heavy-tailed (SWIM-style Facebook mix) and
  // long enough that an eviction loses minutes of progress.
  SimDuration low_duration_median = Seconds(75);
  double low_duration_sigma = 1.0;  // lognormal sigma
  SimDuration low_duration_cap = Minutes(20);
  Bytes task_memory = MiB(1800);
  double task_cpus = 1.0;
  int low_priority = 1;   // "low" band
  int high_priority = 9;  // production band
};

Workload GenerateFacebookWorkload(const FacebookWorkloadConfig& config = {});

}  // namespace ckpt
