#include "trace/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "trace/facebook_workload.h"
#include "trace/google_trace.h"

namespace ckpt {
namespace {

TEST(Bands, BoundariesMatchTable1) {
  EXPECT_EQ(BandOf(0), PriorityBand::kFree);
  EXPECT_EQ(BandOf(1), PriorityBand::kFree);
  EXPECT_EQ(BandOf(2), PriorityBand::kMiddle);
  EXPECT_EQ(BandOf(8), PriorityBand::kMiddle);
  EXPECT_EQ(BandOf(9), PriorityBand::kProduction);
  EXPECT_EQ(BandOf(11), PriorityBand::kProduction);
}

TEST(Workload, SortBySubmitTimeIsStable) {
  Workload w;
  for (int i = 0; i < 5; ++i) {
    JobSpec job;
    job.id = JobId(i);
    job.submit_time = (5 - i) * kSecond;
    w.jobs.push_back(job);
  }
  w.SortBySubmitTime();
  for (size_t i = 1; i < w.jobs.size(); ++i) {
    EXPECT_LE(w.jobs[i - 1].submit_time, w.jobs[i].submit_time);
  }
}

bool SortedBySubmitTime(const Workload& w) {
  return std::is_sorted(w.jobs.begin(), w.jobs.end(),
                        [](const JobSpec& a, const JobSpec& b) {
                          return a.submit_time < b.submit_time;
                        });
}

// Every task carries its job's id, and no task id repeats in the workload.
void ExpectTasksOwnedByTheirJobsWithUniqueIds(const Workload& w) {
  std::set<std::int64_t> task_ids;
  for (const JobSpec& job : w.jobs) {
    for (const TaskSpec& task : job.tasks) {
      EXPECT_EQ(task.job.value(), job.id.value());
      EXPECT_TRUE(task_ids.insert(task.id.value()).second)
          << "duplicate task id " << task.id.value();
    }
  }
  EXPECT_EQ(static_cast<std::int64_t>(task_ids.size()), w.TotalTasks());
}

// Field-by-field equality; doubles must match bit for bit.
void ExpectWorkloadEq(const Workload& a, const Workload& b) {
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t j = 0; j < a.jobs.size(); ++j) {
    SCOPED_TRACE("job " + std::to_string(j));
    EXPECT_EQ(a.jobs[j].id.value(), b.jobs[j].id.value());
    EXPECT_EQ(a.jobs[j].submit_time, b.jobs[j].submit_time);
    EXPECT_EQ(a.jobs[j].priority, b.jobs[j].priority);
    ASSERT_EQ(a.jobs[j].tasks.size(), b.jobs[j].tasks.size());
    for (size_t t = 0; t < a.jobs[j].tasks.size(); ++t) {
      const TaskSpec& x = a.jobs[j].tasks[t];
      const TaskSpec& y = b.jobs[j].tasks[t];
      EXPECT_EQ(x.id.value(), y.id.value());
      EXPECT_EQ(x.duration, y.duration);
      EXPECT_EQ(x.demand.cpus, y.demand.cpus);
      EXPECT_EQ(x.demand.memory, y.demand.memory);
      EXPECT_EQ(x.priority, y.priority);
      EXPECT_EQ(x.latency_class, y.latency_class);
      EXPECT_EQ(x.memory_write_rate, y.memory_write_rate);
    }
  }
}

class GoogleSampleTest : public ::testing::Test {
 protected:
  static Workload& workload() {
    static Workload w = [] {
      GoogleTraceConfig config;
      config.sample_jobs = 3000;
      return GoogleTraceGenerator(config).GenerateWorkloadSample();
    }();
    return w;
  }
};

TEST_F(GoogleSampleTest, JobCountMatchesConfig) {
  EXPECT_EQ(workload().jobs.size(), 3000u);
}

TEST_F(GoogleSampleTest, JobsAreSortedBySubmitTime) {
  EXPECT_TRUE(SortedBySubmitTime(workload()));
}

TEST_F(GoogleSampleTest, TasksPerJobIsHeavyTailed) {
  const double mean = static_cast<double>(workload().TotalTasks()) /
                      static_cast<double>(workload().jobs.size());
  // The paper's one-day slice: ~15k jobs / ~600k tasks => ~40 tasks/job.
  EXPECT_GT(mean, 15.0);
  EXPECT_LT(mean, 80.0);
  size_t singles = 0, big = 0;
  for (const JobSpec& job : workload().jobs) {
    if (job.tasks.size() == 1) ++singles;
    if (job.tasks.size() >= 500) ++big;
  }
  EXPECT_GT(singles, workload().jobs.size() / 10);
  EXPECT_GT(big, 0u);
}

TEST_F(GoogleSampleTest, PriorityMixMatchesTable1) {
  std::int64_t free = 0, middle = 0, production = 0, total = 0;
  for (const JobSpec& job : workload().jobs) {
    for (const TaskSpec& task : job.tasks) {
      ++total;
      switch (BandOf(task.priority)) {
        case PriorityBand::kFree: ++free; break;
        case PriorityBand::kMiddle: ++middle; break;
        case PriorityBand::kProduction: ++production; break;
      }
    }
  }
  // Table 1: 59.9% / 36.5% / 3.6% of tasks. Job-level sampling adds
  // variance, so allow slack.
  EXPECT_NEAR(static_cast<double>(free) / total, 0.60, 0.15);
  EXPECT_NEAR(static_cast<double>(middle) / total, 0.365, 0.15);
  EXPECT_LT(static_cast<double>(production) / total, 0.12);
}

TEST_F(GoogleSampleTest, SubmitTimesSpanTheDay) {
  SimTime min_t = kDay, max_t = 0;
  for (const JobSpec& job : workload().jobs) {
    min_t = std::min(min_t, job.submit_time);
    max_t = std::max(max_t, job.submit_time);
  }
  EXPECT_LT(min_t, kHour);
  EXPECT_GT(max_t, 20 * kHour);
  EXPECT_LE(max_t, kDay);
}

TEST_F(GoogleSampleTest, DemandsAreSane) {
  for (const JobSpec& job : workload().jobs) {
    for (const TaskSpec& task : job.tasks) {
      EXPECT_GT(task.duration, 0);
      EXPECT_GT(task.demand.cpus, 0.0);
      EXPECT_LE(task.demand.cpus, 2.0);
      EXPECT_GT(task.demand.memory, 0);
      EXPECT_LE(task.demand.memory, GiB(8));
      EXPECT_GE(task.latency_class, 0);
      EXPECT_LT(task.latency_class, kNumLatencyClasses);
      EXPECT_GE(task.priority, 0);
      EXPECT_LE(task.priority, 11);
    }
  }
}

TEST_F(GoogleSampleTest, DeterministicForSeed) {
  GoogleTraceConfig config;
  config.sample_jobs = 100;
  const Workload a = GoogleTraceGenerator(config).GenerateWorkloadSample();
  const Workload b = GoogleTraceGenerator(config).GenerateWorkloadSample();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].submit_time, b.jobs[i].submit_time);
    EXPECT_EQ(a.jobs[i].tasks.size(), b.jobs[i].tasks.size());
  }
}

TEST_F(GoogleSampleTest, TaskIdsAreUniqueAndOwnedByTheirJob) {
  ExpectTasksOwnedByTheirJobsWithUniqueIds(workload());
}

TEST_F(GoogleSampleTest, SeedChangesTheSample) {
  GoogleTraceConfig config;
  config.sample_jobs = 100;
  config.seed = 77;
  const Workload a = GoogleTraceGenerator(config).GenerateWorkloadSample();
  config.seed = 78;
  const Workload b = GoogleTraceGenerator(config).GenerateWorkloadSample();
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  bool differs = false;
  for (size_t i = 0; i < a.jobs.size() && !differs; ++i) {
    differs = a.jobs[i].submit_time != b.jobs[i].submit_time ||
              a.jobs[i].tasks.size() != b.jobs[i].tasks.size();
  }
  EXPECT_TRUE(differs);
}

TEST(FacebookWorkload, ShapeMatchesPaperSetup) {
  FacebookWorkloadConfig config;
  const Workload w = GenerateFacebookWorkload(config);
  EXPECT_EQ(static_cast<int>(w.jobs.size()), config.total_jobs);
  EXPECT_LE(w.TotalTasks(), config.total_tasks);
  EXPECT_GT(w.TotalTasks(), config.total_tasks * 9 / 10);

  bool oversized_production_job = false;
  for (const JobSpec& job : w.jobs) {
    const PriorityBand band = BandOf(job.priority);
    EXPECT_TRUE(band == PriorityBand::kFree ||
                band == PriorityBand::kProduction);
    if (band == PriorityBand::kProduction &&
        static_cast<int>(job.tasks.size()) > config.cluster_containers) {
      oversized_production_job = true;
    }
    for (const TaskSpec& task : job.tasks) {
      EXPECT_EQ(task.demand.memory, config.task_memory);
      if (band == PriorityBand::kProduction) {
        EXPECT_NEAR(ToSeconds(task.duration), 60.0, 20.0);
      } else {
        EXPECT_GE(ToSeconds(task.duration), 5.0);
        EXPECT_LE(task.duration, config.low_duration_cap);
      }
    }
  }
  // S5.3.3: "there is a production job that is larger than the capacity of
  // the cluster".
  EXPECT_TRUE(oversized_production_job);
}

TEST(FacebookWorkload, JobsAreSortedBySubmitTime) {
  EXPECT_TRUE(SortedBySubmitTime(GenerateFacebookWorkload({})));
}

TEST(FacebookWorkload, DeterministicForSeed) {
  FacebookWorkloadConfig config;
  config.total_jobs = 48;
  config.total_tasks = 5000;
  config.seed = 19;
  ExpectWorkloadEq(GenerateFacebookWorkload(config),
                   GenerateFacebookWorkload(config));
}

TEST(FacebookWorkload, TaskIdsAreUniqueAndOwnedByTheirJob) {
  ExpectTasksOwnedByTheirJobsWithUniqueIds(GenerateFacebookWorkload({}));
}

TEST(FacebookWorkload, ProductionJobsArrivePeriodically) {
  const Workload w = GenerateFacebookWorkload({});
  std::vector<SimTime> production_arrivals;
  for (const JobSpec& job : w.jobs) {
    if (BandOf(job.priority) == PriorityBand::kProduction) {
      production_arrivals.push_back(job.submit_time);
    }
  }
  ASSERT_GE(production_arrivals.size(), 2u);
  std::sort(production_arrivals.begin(), production_arrivals.end());
  for (size_t i = 1; i < production_arrivals.size(); ++i) {
    const SimDuration gap = production_arrivals[i] - production_arrivals[i - 1];
    EXPECT_NEAR(ToSeconds(gap), 500.0, 60.0);
  }
}

}  // namespace
}  // namespace ckpt
