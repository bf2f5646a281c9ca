// One benchmark pass: build a named workload from a seed, run it to
// completion on the single-threaded monolithic simulator, and print one JSON
// object describing the pass on stdout.
//
//   perfbench_runner --workload NAME --seed N [--size full|tiny]
//                    [--obs-dir DIR] [--spans FILE] [--setup-only]
//
// Without --obs-dir the pass is untraced (`obs = nullptr`): its setup, run
// time and peak RSS are the benchmark's end-to-end figures. With --obs-dir
// the program's Observability sink is on and its artifacts (metrics JSON,
// Chrome trace, audit JSONL) are exported into DIR, timed as part of the
// pass. --spans additionally records the harness's own spans around each
// call into a layer's public API and writes them to FILE at exit.
// --setup-only stops after set-up: a cold set-up time sample.
//
// Every generator seed is derived from --seed, so the simulator only ever
// sees generated Workload / ServiceSpec inputs.
#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "metrics/stats.h"
#include "obs/observability.h"
#include "scheduler/cluster_scheduler.h"
#include "service/service_workload.h"
#include "sim/simulator.h"
#include "trace/facebook_workload.h"
#include "trace/google_trace.h"
#include "trace/workload.h"
#include "yarn/yarn_cluster.h"

using namespace ckpt;

namespace {

using Clock = std::chrono::steady_clock;

const Clock::time_point kProcessStart = Clock::now();

// Shortest decimal that reads back as exactly `v` (null if not finite), so
// outcome values can be compared for exact repetition.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Harness spans ----------------------------------------------------------
// Name, start, end and parent of each call the harness makes into a layer.
// Kept in memory and written out once, after the pass.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Now(), 0, parent});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void End(int id) {
    if (id < 0) return;
    spans_[static_cast<size_t>(id)].end = Now();
    open_.pop_back();
  }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i > 0 ? ",\n" : "") << "{\"id\":" << i << ",\"name\":\""
          << s.name << "\",\"start\":" << Num(s.start)
          << ",\"end\":" << Num(s.end) << ",\"parent\":" << s.parent
          << "}";
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  static double Now() { return Since(kProcessStart); }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec->Begin(name)) {}
  ~ScopedSpan() { rec_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// --- Seeds ------------------------------------------------------------------

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

// Independent generator seed number `stream` for one benchmark seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64(SplitMix64(seed) ^ SplitMix64(stream + 0x51ED));
}

enum SeedStream : std::uint64_t {
  kTraceSeed = 1,
  kSchedulerSeed = 2,
  kFleetSeed = 3,
  kFaultSeed = 4,
  kCrashSeed = 5,
};

// --- Workload inputs ----------------------------------------------------------

// Nodes needed so the workload's average demand runs at `target_util` (the
// sizing rule of the figure benches, kept here so the benchmark's inputs do
// not move when bench helpers change).
int NodesForWorkload(const Workload& workload, double cores_per_node,
                     double target_util) {
  double core_seconds = 0;
  SimTime span = kDay;
  for (const JobSpec& job : workload.jobs) {
    for (const TaskSpec& task : job.tasks) {
      core_seconds += ToSeconds(task.duration) * task.demand.cpus;
    }
    span = std::max(span, job.submit_time);
  }
  const double avg_cores = core_seconds / ToSeconds(span);
  const int nodes =
      static_cast<int>(avg_cores / (target_util * cores_per_node) + 0.999);
  return std::max(nodes, 1);
}

// Dense arrival burst of `tasks_per_node * nodes` ten-task jobs over 15
// minutes, ~2x the cluster's capacity, all three priority bands present
// (the synthetic scale burst of bench_scale).
Workload ScaleBurstWorkload(int nodes, int tasks_per_node, std::uint64_t seed) {
  constexpr int kTasksPerJob = 10;
  const std::int64_t total_tasks =
      static_cast<std::int64_t>(nodes) * tasks_per_node;
  Rng rng(seed);
  Workload workload;
  workload.jobs.reserve(
      static_cast<size_t>((total_tasks + kTasksPerJob - 1) / kTasksPerJob));
  std::int64_t next_task = 0;
  for (std::int64_t j = 0; next_task < total_tasks; ++j) {
    JobSpec job;
    job.id = JobId(j);
    job.submit_time = Seconds(rng.Uniform(0.0, 900.0));
    const double band_draw = rng.Uniform();
    if (band_draw < 0.7) {
      job.priority = static_cast<int>(rng.UniformInt(0, 1));
    } else if (band_draw < 0.8) {
      job.priority = static_cast<int>(rng.UniformInt(2, 8));
    } else {
      job.priority = static_cast<int>(rng.UniformInt(9, 11));
    }
    const int count = static_cast<int>(
        std::min<std::int64_t>(kTasksPerJob, total_tasks - next_task));
    job.tasks.reserve(static_cast<size_t>(count));
    for (int t = 0; t < count; ++t) {
      TaskSpec task;
      task.id = TaskId(next_task++);
      task.job = job.id;
      task.duration = Seconds(rng.Uniform(300.0, 900.0));
      const double cpus = static_cast<double>(rng.UniformInt(1, 3)) * 2.0;
      task.demand = Resources{cpus, static_cast<Bytes>(cpus) * GiB(4)};
      task.priority = job.priority;
      task.latency_class = static_cast<int>(rng.UniformInt(0, 1));
      task.memory_write_rate = rng.Uniform(0.005, 0.02);
      job.tasks.push_back(task);
    }
    workload.jobs.push_back(std::move(job));
  }
  workload.SortBySubmitTime();
  return workload;
}

// --- Pass result ------------------------------------------------------------

struct Outcome {
  double wasted_core_h = 0;
  double goodput_core_h = 0;
  double high_p95_response_s = 0;
  double makespan_h = 0;
  std::int64_t jobs_completed = 0;
  std::int64_t tasks_completed = 0;
};

struct PassOutput {
  double setup_s = 0;
  double run_s = 0;
  double export_s = 0;
  bool export_ok = true;
  std::int64_t events = 0;
  std::int64_t jobs_total = 0;
  std::int64_t tasks_total = 0;
  Outcome outcome;
  // Counts copied from the result struct.
  std::vector<std::pair<std::string, double>> counts;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool tiny = false;
  std::string obs_dir;  // empty: untraced pass
  std::string spans_path;
  bool setup_only = false;  // stop after set-up (a set-up time sample)
};

void ExportObs(Observability* obs, const std::string& dir, SpanRecorder* rec,
               PassOutput* out) {
  if (obs == nullptr) return;
  ScopedSpan span(rec, "obs.export");
  const Clock::time_point t0 = Clock::now();
  obs->FinalizeRun();
  out->export_ok = obs->WriteMetricsJson(dir + "/metrics.json") &&
                   obs->WriteChromeTrace(dir + "/trace.json") &&
                   obs->WriteAuditJsonl(dir + "/audit.jsonl");
  out->export_s = Since(t0);
}

// The three ClusterScheduler workloads.
PassOutput RunClusterWorkload(const Options& opt, Observability* obs,
                              SpanRecorder* rec) {
  PassOutput out;
  const bool paper = opt.workload == "paper_day";
  const bool scale = opt.workload == "scale_kill";
  const bool colocated = opt.workload == "colocated_contended";

  const Clock::time_point setup_start = Clock::now();
  const int setup_span = rec->Begin("setup");
  Workload workload;
  std::vector<ServiceSpec> fleet;
  int nodes = 0;
  {
    ScopedSpan span(rec, "trace.generate");
    if (scale) {
      // 16,000 nodes: past the 10,000-node regime of the scale benches, and
      // short enough for a run to fit about ten passes of each kind.
      nodes = opt.tiny ? 400 : 16000;
      workload = ScaleBurstWorkload(nodes, /*tasks_per_node=*/8,
                                    DeriveSeed(opt.seed, kTraceSeed));
    } else {
      GoogleTraceConfig config;
      // paper_day samples a fifth of the paper's 15,000-job day, so that a
      // run fits enough passes for its medians to settle (see README.md).
      config.sample_jobs = paper ? (opt.tiny ? 300 : 3000)
                                 : (opt.tiny ? 200 : 4000);
      config.seed = DeriveSeed(opt.seed, kTraceSeed);
      workload = GoogleTraceGenerator(config).GenerateWorkloadSample();
      nodes = NodesForWorkload(workload, 16.0, 0.9);
    }
    if (colocated) {
      ServiceFleetConfig config;
      config.services = opt.tiny ? 2 : 4;
      config.seed = DeriveSeed(opt.seed, kFleetSeed);
      fleet = GenerateServiceFleet(config);
      double service_cores = 0;
      for (const ServiceSpec& spec : fleet) {
        service_cores += spec.replicas * spec.demand.cpus;
      }
      nodes += static_cast<int>(service_cores / (0.9 * 16.0) + 0.999);
    }
  }
  out.jobs_total = static_cast<std::int64_t>(workload.jobs.size());
  out.tasks_total = workload.TotalTasks();

  Simulator sim;
  Cluster cluster(&sim);
  const StorageMedium medium =
      paper ? StorageMedium::Hdd() : StorageMedium::Ssd();
  {
    ScopedSpan span(rec, "cluster.add_nodes");
    cluster.AddNodes(nodes, Resources{16.0, GiB(64)}, medium);
  }

  SchedulerConfig config;
  config.medium = medium;
  config.seed = DeriveSeed(opt.seed, kSchedulerSeed);
  config.obs = obs;
  if (paper) {
    config.policy = PreemptionPolicy::kAdaptive;
    config.incremental_checkpoints = true;
    config.checkpoint_to_dfs = true;
    config.resubmit_delay = Seconds(15);
  } else if (scale) {
    config.policy = PreemptionPolicy::kKill;
  } else {
    config.policy = PreemptionPolicy::kAdaptive;
    config.resubmit_delay = Seconds(15);
    config.interference.enabled = true;
    config.interference.shared_bw = GBps(2);
    config.interference.rack_size = 16;
    config.dump_scheduler.policy = DumpPolicy::kInterferenceAware;
    config.dump_scheduler.min_share = MBps(100);
    config.dump_scheduler.max_defer = Minutes(10);
    config.periodic_ckpt_mtbf = Hours(2 * nodes);
    config.fault.seed = DeriveSeed(opt.seed, kFaultSeed);
    // Rare transient write errors exercise the dump-failure path.
    config.fault.storage_write_fail_prob = 0.001;
    // One crash every three hours on a random node, down for half an hour.
    Rng crash_rng(DeriveSeed(opt.seed, kCrashSeed));
    for (int hour = 3; hour <= 21; hour += 3) {
      config.fault.node_crashes.push_back(
          {NodeId(crash_rng.UniformInt(0, nodes - 1)), Hours(hour),
           Minutes(30)});
    }
  }

  std::unique_ptr<ClusterScheduler> scheduler;
  {
    ScopedSpan span(rec, "scheduler.construct");
    scheduler = std::make_unique<ClusterScheduler>(&sim, &cluster, config);
  }
  {
    ScopedSpan span(rec, "scheduler.submit");
    scheduler->Submit(workload);
    if (!fleet.empty()) scheduler->SubmitServices(fleet);
  }
  rec->End(setup_span);
  out.setup_s = Since(setup_start);
  if (opt.setup_only) return out;

  SimulationResult r;
  {
    ScopedSpan span(rec, "scheduler.run");
    const Clock::time_point t0 = Clock::now();
    r = scheduler->Run();
    out.run_s = Since(t0);
  }
  out.events = sim.EventsProcessed();
  ExportObs(obs, opt.obs_dir, rec, &out);

  const size_t high = static_cast<size_t>(PriorityBand::kProduction);
  out.outcome.wasted_core_h = r.wasted_core_hours;
  out.outcome.goodput_core_h = r.total_busy_core_hours - r.wasted_core_hours;
  out.outcome.high_p95_response_s =
      r.job_response_by_band[high].count() > 0
          ? r.job_response_by_band[high].Quantile(0.95)
          : 0.0;
  out.outcome.makespan_h = ToHours(r.makespan);
  out.outcome.jobs_completed = r.jobs_completed;
  out.outcome.tasks_completed = r.tasks_completed;

  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  out.counts = {
      {"preemptions", d(r.preemptions)},
      {"kills", d(r.kills)},
      {"dumps", d(r.checkpoints)},
      {"incremental_dumps", d(r.incremental_checkpoints)},
      {"periodic_dumps", d(r.periodic_checkpoints)},
      {"fallback_kills",
       d(r.capacity_fallback_kills + r.checkpoint_failure_fallback_kills)},
      {"local_restores", d(r.local_restores)},
      {"restores", d(r.local_restores + r.remote_restores)},
      {"bytes_written", d(r.total_checkpoint_bytes_written)},
      {"dump_sim_h", ToHours(r.total_dump_time)},
      {"restore_sim_h", ToHours(r.total_restore_time)},
      {"io_busy_fraction", r.io_overhead_fraction},
      {"service_cold_starts", d(r.service_cold_starts)},
      {"service_preemptions", d(r.service_preemptions)},
      {"node_failures", d(r.node_failures)},
      {"faults_injected", d(r.faults_injected)},
  };
  return out;
}

// Five independent YarnClusters, each 16 nodes x 24 containers running an
// 80-job / 14,000-task Facebook mix (the paper's S5 tasks-per-container
// load), set up together and run back to back: 400 jobs and 70,000 tasks
// in all. One cluster with all 70,000 tasks would be dominated by the RM's
// scans of its ask backlog, whose cost swings by +-25% between seeds;
// five clusters average that out.
PassOutput RunYarnWorkload(const Options& opt, Observability* obs,
                           SpanRecorder* rec) {
  PassOutput out;
  const int replicas = opt.tiny ? 2 : 5;
  const int nodes = opt.tiny ? 4 : 16;
  const int containers_per_node = 24;

  const Clock::time_point setup_start = Clock::now();
  const int setup_span = rec->Begin("setup");
  std::vector<Workload> workloads;
  std::vector<std::unique_ptr<YarnCluster>> clusters;
  for (int i = 0; i < replicas; ++i) {
    // Cluster i draws from its own seed streams (offsets of 256 keep them
    // apart from the base streams).
    const std::uint64_t stream = static_cast<std::uint64_t>(i) << 8;
    {
      ScopedSpan span(rec, "trace.generate");
      FacebookWorkloadConfig config;
      config.total_jobs = opt.tiny ? 10 : 80;
      config.total_tasks = opt.tiny ? 1000 : 14000;
      config.cluster_containers = nodes * containers_per_node;
      config.seed = DeriveSeed(opt.seed, kTraceSeed + stream);
      workloads.push_back(GenerateFacebookWorkload(config));
    }
    out.jobs_total += static_cast<std::int64_t>(workloads.back().jobs.size());
    out.tasks_total += workloads.back().TotalTasks();

    YarnConfig config;
    config.num_nodes = nodes;
    config.containers_per_node = containers_per_node;
    config.medium = StorageMedium::Hdd();
    config.policy = PreemptionPolicy::kAdaptive;
    config.incremental_checkpoints = true;
    config.seed = DeriveSeed(opt.seed, kSchedulerSeed + stream);
    config.obs = obs;
    // The constructor adds the nodes itself, so cluster.add_nodes has no
    // separate span on this workload.
    ScopedSpan span(rec, "yarn.construct");
    clusters.push_back(std::make_unique<YarnCluster>(config));
  }
  rec->End(setup_span);
  out.setup_s = Since(setup_start);
  if (opt.setup_only) return out;

  SummaryStats high_responses;
  double io_busy = 0;
  std::int64_t preemptions = 0, kills = 0, dumps = 0, incremental = 0,
               fallback_kills = 0, restores = 0, remote_restores = 0,
               node_failures = 0, faults = 0;
  for (int i = 0; i < replicas; ++i) {
    YarnResult r;
    {
      // RunWorkload submits the jobs and runs them; there is no separate
      // submit call to time.
      ScopedSpan span(rec, "yarn.run");
      const Clock::time_point t0 = Clock::now();
      r = clusters[i]->RunWorkload(workloads[i]);
      out.run_s += Since(t0);
    }
    out.events += clusters[i]->sim().EventsProcessed();
    clusters[i].reset();

    out.outcome.wasted_core_h += r.wasted_core_hours;
    out.outcome.goodput_core_h += r.goodput_core_hours;
    for (double x : r.high_priority_job_responses.samples()) {
      high_responses.Add(x);
    }
    out.outcome.makespan_h =
        std::max(out.outcome.makespan_h, ToHours(r.makespan));
    out.outcome.jobs_completed += r.jobs_completed;
    out.outcome.tasks_completed += r.tasks_completed;
    io_busy += r.io_overhead / replicas;
    preemptions += r.preempt_events;
    kills += r.kills;
    dumps += r.checkpoints;
    incremental += r.incremental_checkpoints;
    fallback_kills += r.fallback_kills;
    restores += r.restores;
    remote_restores += r.remote_restores;
    node_failures += r.node_failures;
    faults += r.faults_injected;
  }
  ExportObs(obs, opt.obs_dir, rec, &out);
  out.outcome.high_p95_response_s =
      high_responses.count() > 0 ? high_responses.Quantile(0.95) : 0.0;

  const auto d = [](std::int64_t v) { return static_cast<double>(v); };
  out.counts = {
      {"preemptions", d(preemptions)},
      {"kills", d(kills)},
      {"dumps", d(dumps)},
      {"incremental_dumps", d(incremental)},
      {"periodic_dumps", 0.0},
      {"fallback_kills", d(fallback_kills)},
      {"local_restores", d(restores - remote_restores)},
      {"restores", d(restores)},
      {"io_busy_fraction", io_busy},
      {"node_failures", d(node_failures)},
      {"faults_injected", d(faults)},
  };
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void AppendCounts(std::string* json,
                  const std::vector<std::pair<std::string, double>>& pairs) {
  *json += ",\"counts\":{";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) *json += ",";
    *json += "\"" + pairs[i].first + "\":" + Num(pairs[i].second);
  }
  *json += "}";
}

std::string ToJson(const Options& opt, const PassOutput& out, double rss_mb) {
  const Outcome& o = out.outcome;
  std::string json = "{\"workload\":\"" + opt.workload + "\"";
  json += ",\"seed\":" + std::to_string(opt.seed);
  json += ",\"obs\":" + std::string(opt.obs_dir.empty() ? "false" : "true");
  json += ",\"setup_s\":" + Num(out.setup_s);
  json += ",\"run_s\":" + Num(out.run_s);
  json += ",\"export_s\":" + Num(out.export_s);
  json += ",\"export_ok\":" + std::string(out.export_ok ? "true" : "false");
  json += ",\"peak_rss_mb\":" + Num(rss_mb);
  json += ",\"events\":" + std::to_string(out.events);
  json += ",\"jobs_total\":" + std::to_string(out.jobs_total);
  json += ",\"tasks_total\":" + std::to_string(out.tasks_total);
  // Outcome values as exact round-trip decimals: they must repeat exactly.
  json += ",\"outcome\":{\"wasted_core_h\":" + Num(o.wasted_core_h) +
          ",\"goodput_core_h\":" + Num(o.goodput_core_h) +
          ",\"high_p95_response_s\":" + Num(o.high_p95_response_s) +
          ",\"makespan_h\":" + Num(o.makespan_h) +
          ",\"jobs_completed\":" + std::to_string(o.jobs_completed) +
          ",\"tasks_completed\":" + std::to_string(o.tasks_completed) + "}";
  AppendCounts(&json, out.counts);
  json += "}";
  return json;
}

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload paper_day|scale_kill|colocated_contended|"
               "yarn_fb --seed N [--size full|tiny] [--obs-dir DIR] "
               "[--spans FILE] [--setup-only]\n",
               argv0);
  std::exit(2);
}

bool ParseSeed(const char* s, std::uint64_t* out) {
  if (*s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--setup-only") {
      opt.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) Usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      if (!ParseSeed(value, &opt.seed)) Usage(argv[0]);
      have_seed = true;
    } else if (arg == "--size") {
      if (std::strcmp(value, "tiny") != 0 && std::strcmp(value, "full") != 0) {
        Usage(argv[0]);
      }
      opt.tiny = std::strcmp(value, "tiny") == 0;
    } else if (arg == "--obs-dir") {
      opt.obs_dir = value;
    } else if (arg == "--spans") {
      opt.spans_path = value;
    } else {
      Usage(argv[0]);
    }
  }
  const bool yarn = opt.workload == "yarn_fb";
  if (!have_seed ||
      !(yarn || opt.workload == "paper_day" || opt.workload == "scale_kill" ||
        opt.workload == "colocated_contended")) {
    Usage(argv[0]);
  }

  SpanRecorder rec(!opt.spans_path.empty());
  std::unique_ptr<Observability> obs;
  if (!opt.obs_dir.empty()) obs = std::make_unique<Observability>();

  PassOutput out;
  {
    ScopedSpan span(&rec, "pass");
    out = yarn ? RunYarnWorkload(opt, obs.get(), &rec)
               : RunClusterWorkload(opt, obs.get(), &rec);
  }
  // Read before anything else allocates: ru_maxrss never goes down.
  const double rss_mb = PeakRssMb();
  if (!opt.spans_path.empty() && !rec.WriteJson(opt.spans_path)) {
    std::fprintf(stderr, "perfbench_runner: cannot write %s\n",
                 opt.spans_path.c_str());
    return 1;
  }
  if (!out.export_ok) {
    std::fprintf(stderr, "perfbench_runner: cannot export to %s\n",
                 opt.obs_dir.c_str());
    return 1;
  }
  std::printf("%s\n", ToJson(opt, out, rss_mb).c_str());
  return 0;
}
