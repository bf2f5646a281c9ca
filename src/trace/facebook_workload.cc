#include "trace/facebook_workload.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"

namespace ckpt {
namespace {

// Sequential job generator behind GenerateFacebookWorkload. Jobs
// 0..high_jobs-1 are the periodic production bursts, the rest the
// low-priority batch tail; the RNG draw order matches the original two-loop
// construction exactly (high loop first, then low loop, with `tasks_left`
// carried across).
struct FacebookJobGen {
  FacebookWorkloadConfig config;
  Rng rng;
  int high_jobs = 0;
  int tasks_left = 0;
  std::int64_t next_task = 0;
  int idx = 0;

  explicit FacebookJobGen(const FacebookWorkloadConfig& cfg)
      : config(cfg),
        rng(cfg.seed),
        high_jobs(std::max(cfg.total_jobs / 8, 2)),
        tasks_left(cfg.total_tasks) {
    CKPT_CHECK_GE(config.total_jobs, 4);
  }

  bool Done() const { return idx >= config.total_jobs; }

  JobSpec Next() {
    int priority;
    int num_tasks;
    SimTime submit;
    if (idx < high_jobs) {
      // High-priority production jobs arrive periodically; the first is
      // sized beyond the entire cluster so scheduling it preempts
      // everything below it.
      const int j = idx;
      submit = config.production_period * (j + 1) +
               Seconds(rng.Uniform(0.0, 30.0));
      num_tasks = j == 0 ? static_cast<int>(config.cluster_containers * 1.2)
                         : static_cast<int>(config.cluster_containers *
                                            rng.Uniform(0.35, 0.8));
      priority = config.high_priority;
    } else {
      // Low-priority batch jobs: sizes log-normal, arrivals spread across
      // the experiment window, submitted early enough to occupy the cluster
      // before the production bursts land.
      const int j = idx - high_jobs;
      const int low_jobs = config.total_jobs - high_jobs;
      const SimDuration window = config.production_period * (high_jobs + 2);
      submit = static_cast<SimTime>(rng.Uniform(0.0, ToSeconds(window) * 0.8) *
                                    static_cast<double>(kSecond));
      const int remaining_jobs = low_jobs - j;
      const int fair_share =
          std::max(tasks_left / std::max(remaining_jobs, 1), 8);
      num_tasks = static_cast<int>(std::clamp(
          rng.LogNormal(std::log(static_cast<double>(fair_share)), 0.6), 4.0,
          static_cast<double>(2 * fair_share)));
      priority = config.low_priority;
    }

    num_tasks = std::max(1, std::min(num_tasks, tasks_left));
    tasks_left -= num_tasks;
    JobSpec job;
    job.id = JobId(idx);
    job.submit_time = submit;
    job.priority = priority;
    job.tasks.reserve(static_cast<size_t>(num_tasks));
    const bool production = priority >= config.high_priority;
    for (int t = 0; t < num_tasks; ++t) {
      TaskSpec task;
      task.id = TaskId(next_task++);
      task.job = job.id;
      task.priority = priority;
      task.latency_class = production ? 2 : 0;
      if (production) {
        task.duration = static_cast<SimDuration>(
            static_cast<double>(config.task_duration) *
            rng.Uniform(0.85, 1.25));
      } else {
        // Heavy-tailed batch tasks: the long ones are what repeated
        // kill-based preemption wastes (they lose minutes of progress per
        // eviction).
        const double median = ToSeconds(config.low_duration_median);
        const double secs =
            std::min(rng.LogNormal(std::log(median), config.low_duration_sigma),
                     ToSeconds(config.low_duration_cap));
        task.duration = Seconds(std::max(secs, 5.0));
      }
      task.demand = Resources{config.task_cpus, config.task_memory};
      // k-means rewrites its centroid/assignment buffers each iteration:
      // a moderate, steady dirtying rate.
      task.memory_write_rate = rng.Uniform(0.01, 0.04);
      job.tasks.push_back(task);
    }
    ++idx;
    return job;
  }
};

}  // namespace

Workload GenerateFacebookWorkload(const FacebookWorkloadConfig& config) {
  FacebookJobGen gen(config);
  Workload workload;
  workload.jobs.reserve(static_cast<size_t>(config.total_jobs));
  while (!gen.Done()) {
    workload.jobs.push_back(gen.Next());
  }
  workload.SortBySubmitTime();
  return workload;
}

}  // namespace ckpt
