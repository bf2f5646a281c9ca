#!/usr/bin/env python3
"""Benchmark harness for the checkpoint-preemption simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first call builds `perfbench_runner`
(perfbench/CMakeLists.txt, compiling ../src) under .bench_build/. Each pass
is one runner process that builds the workload's inputs from the seed, runs
the monolithic single-threaded Simulator to completion and reports on stdout.

A run alternates two kinds of pass until the next one would overrun
--seconds (the first of each kind always runs):
  --trace 0  untraced passes (obs = nullptr), each followed by one
             set-up-only pass, and observability-on passes that export
             their artifacts; prints the end-to-end metrics.
  --trace 1  untraced passes and traced passes (observability on plus the
             harness's own spans around each layer call); prints the
             per-layer metrics.
With --trace 0 the k-th pass of each kind runs input k (input 0 from the
seed, the rest derived from it); with --trace 1 every pass runs input 0.
Timings are medians over the run's passes. Every pass is checked: it must
exit cleanly, finish every job and task, and repeat exactly the modelled
outcome of the first pass on its input (traced == untraced); input 0 at the
default seed must also match the outcome recorded in
perfbench/expected.json.

The last stdout line is one JSON object:
  {"correct": bool, "attempted": passes, "failed": passes, "metrics": {...}}

--record-expected re-runs the default seed at every size and rewrites the
expected-outcome file; use it only when a change is meant to alter the
modelled outcome.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("paper_day", "scale_kill", "colocated_contended", "yarn_fb")
DEFAULT_SEED = 1
SIZES = ("full", "tiny")
PASS_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "tasks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "obs_run_s": "s",
    "obs_peak_rss_mb": "MB",
}

PER_LAYER = {
    # trace
    "trace.generate_s": "s",
    "trace.tasks": "count",
    # cluster
    "cluster.add_nodes_s": "s",
    # scheduler: harness spans
    "scheduler.construct_s": "s",
    "scheduler.submit_s": "s",
    "scheduler.run_s": "s",
    # scheduler: the program's self-profile
    "scheduler.pass_s": "s",
    "scheduler.pass_calls": "count",
    "scheduler.outside_pass_s": "s",
    "scheduler.preempt_scans": "count",
    "scheduler.try_place_calls": "count",
    "scheduler.index_flushes": "count",
    "scheduler.index_leaves_recomputed": "count",
    "scheduler.decisions": "count",
    "scheduler.preemptions": "count",
    "scheduler.kills": "count",
    "scheduler.place_yield": "ratio",
    "scheduler.preempt_yield": "ratio",
    # harness self time
    "setup.self_s": "s",
    "pass.self_s": "s",
    # sim
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    # checkpoint
    "checkpoint.dumps": "count",
    "checkpoint.periodic_dumps": "count",
    "checkpoint.fallback_kills": "count",
    "checkpoint.retries": "count",
    "checkpoint.incremental_share": "ratio",
    "checkpoint.local_restore_share": "ratio",
    "checkpoint.bytes_written": "B",
    "checkpoint.dump_sim_h": "h",
    "checkpoint.restore_sim_h": "h",
    "store.ops": "count",
    "store.bytes": "B",
    "dump_sched.admitted": "count",
    "dump_sched.deferred": "count",
    "dump_sched.bypassed": "count",
    "dump_sched.defer_sim_s": "s",
    # storage
    "storage.io_busy_fraction": "ratio",
    "bw_domain.flows": "count",
    "bw_domain.peak_flows": "count",
    "bw_domain.bytes": "B",
    "bw_domain.busy_sim_s": "s",
    # dfs
    "dfs.ops": "count",
    "dfs.bytes": "B",
    "dfs.rereplicated": "count",
    "dfs.files_lost": "count",
    "dfs.remote_restores": "count",
    # yarn
    "yarn.construct_s": "s",
    "rm.schedule_loops": "count",
    "rm.allocations": "count",
    "nm.containers_launched": "count",
    "nm.containers_suspended": "count",
    "nm.containers_resumed": "count",
    # service
    "service.ticks": "count",
    "service.violated_share": "ratio",
    "service.cold_starts": "count",
    "service.preemptions": "count",
    # fault
    "fault.injected": "count",
    "fault.node_failures": "count",
    # obs
    "obs.overhead_s": "s",
    "obs.export_s": "s",
    "obs.audit_records": "count",
    "obs.audit_dropped": "count",
    "obs.tracer_dropped": "count",
    # modelled outcome (repeats exactly)
    "outcome.wasted_core_h": "core-h",
    "outcome.goodput_core_h": "core-h",
    "outcome.high_p95_response_s": "s",
    "outcome.makespan_h": "h",
}

# Harness span -> per-layer duration metric.
SPAN_METRICS = {
    "trace.generate": "trace.generate_s",
    "cluster.add_nodes": "cluster.add_nodes_s",
    "scheduler.construct": "scheduler.construct_s",
    "scheduler.submit": "scheduler.submit_s",
    "scheduler.run": "scheduler.run_s",
    "yarn.construct": "yarn.construct_s",
    "yarn.run": "scheduler.run_s",
    "obs.export": "obs.export_s",
}
SELF_METRICS = {"setup": "setup.self_s", "pass": "pass.self_s"}


class BuildError(Exception):
    pass


def build_runner(build_root):
    """Configure (once) and build the runner; returns its path."""
    build_dir = os.path.join(build_root, "perfbench")
    runner = os.path.join(build_dir, "perfbench_runner")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
        except OSError as err:
            raise BuildError(f"{cmd[0]}: {err}") from err
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            raise BuildError(f"build step failed: {' '.join(cmd)}")
    if not os.path.exists(runner):
        raise BuildError(f"runner missing after build: {runner}")
    return runner


def run_pass(runner, workload, seed, size, obs_dir=None, spans=None,
             setup_only=False):
    """One runner process; returns its parsed report, or None if it failed."""
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--size", size]
    if setup_only:
        cmd.append("--setup-only")
    if obs_dir is not None:
        os.makedirs(obs_dir, exist_ok=True)
        cmd += ["--obs-dir", obs_dir]
    if spans is not None:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"pass timed out: {' '.join(cmd)}\n")
        return None
    if proc.returncode != 0:
        sys.stderr.write(f"pass exited {proc.returncode}: {' '.join(cmd)}\n"
                         f"{proc.stderr[-2000:]}")
        return None
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        sys.stderr.write(f"pass printed no report: {' '.join(cmd)}\n")
        return None


def pass_problems(report, reference, expected):
    """Reasons a completed pass is wrong; empty when it checks out."""
    outcome = report["outcome"]
    problems = []
    if outcome["tasks_completed"] != report["tasks_total"]:
        problems.append(f"{outcome['tasks_completed']} of "
                        f"{report['tasks_total']} tasks completed")
    if outcome["jobs_completed"] != report["jobs_total"]:
        problems.append(f"{outcome['jobs_completed']} of "
                        f"{report['jobs_total']} jobs completed")
    if reference is not None and outcome != reference:
        problems.append(f"outcome {outcome} differs from the run's first "
                        f"pass {reference}")
    if expected is not None and outcome != expected:
        problems.append(f"outcome {outcome} differs from the recorded "
                        f"{expected}")
    return problems


def load_expected(path, size, workload, seed):
    """Recorded outcome for this workload at the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    with open(path) as f:
        record = json.load(f)
    return record[size][workload]


# --- Reading the program's exported metrics ---------------------------------

def load_metrics(path):
    with open(path) as f:
        return json.load(f)["metrics"]


def series(metrics, name, **labels):
    for s in metrics:
        if s["name"] == name and all(s["labels"].get(k) == v
                                     for k, v in labels.items()):
            yield s.get("value", s.get("sum", 0))


def msum(metrics, name, **labels):
    return sum(series(metrics, name, **labels))


def mmax(metrics, name):
    return max(series(metrics, name), default=0)


def ratio(num, den):
    return num / den if den else 0.0


def span_times(spans):
    """Per-layer durations and self times from the harness's spans; a span
    name that repeats (one per YARN cluster) adds up."""
    child_time = {}
    for s in spans:
        if s["parent"] >= 0:
            child_time[s["parent"]] = (child_time.get(s["parent"], 0.0)
                                       + s["end"] - s["start"])
    out = {}
    for s in spans:
        duration = s["end"] - s["start"]
        if s["name"] in SPAN_METRICS:
            name = SPAN_METRICS[s["name"]]
            out[name] = out.get(name, 0.0) + duration
        if s["name"] in SELF_METRICS:
            name = SELF_METRICS[s["name"]]
            out[name] = (out.get(name, 0.0) + duration
                         - child_time.get(s["id"], 0.0))
    return out


def layer_metrics(traced, metrics, spans):
    """Per-layer metrics of one traced pass (see README.md). The two that
    need the untraced run time, sim.ns_per_event and obs.overhead_s, are
    filled in by the caller from the run's medians."""
    c = traced["counts"]
    m = metrics
    prof = {"section": "scheduler.pass"}
    pass_s = msum(m, "self.wall_seconds", **prof)
    run_prof_s = msum(m, "self.wall_seconds", section="scheduler.run")
    scans = msum(m, "self.calls", section="scheduler.preempt_scan")
    try_place = msum(m, "self.calls", section="scheduler.try_place")
    decisions = msum(m, "sched.decisions")
    dumps = c.get("dumps", 0)
    restores = c.get("restores", 0)
    ticks = msum(m, "service.ticks")
    out = {name: 0.0 for name in PER_LAYER}
    out.update(span_times(spans))
    out.update({
        "trace.tasks": traced["tasks_total"],
        "scheduler.pass_s": pass_s,
        "scheduler.pass_calls": msum(m, "self.calls", **prof),
        "scheduler.outside_pass_s": run_prof_s - pass_s,
        "scheduler.preempt_scans": scans,
        "scheduler.try_place_calls": try_place,
        "scheduler.index_flushes": msum(m, "self.calls",
                                        section="scheduler.index_flush"),
        "scheduler.index_leaves_recomputed": msum(m, "index.leaves_recomputed"),
        "scheduler.decisions": decisions,
        "scheduler.preemptions": c.get("preemptions", 0),
        "scheduler.kills": c.get("kills", 0),
        "scheduler.place_yield": ratio(decisions, try_place),
        "scheduler.preempt_yield": ratio(c.get("preemptions", 0), scans),
        "sim.events": traced["events"],
        "checkpoint.dumps": dumps,
        "checkpoint.periodic_dumps": c.get("periodic_dumps", 0),
        "checkpoint.fallback_kills": c.get("fallback_kills", 0),
        "checkpoint.retries": msum(m, "ckpt.retry"),
        "checkpoint.incremental_share": ratio(c.get("incremental_dumps", 0),
                                              dumps),
        "checkpoint.local_restore_share": ratio(c.get("local_restores", 0),
                                                restores),
        # The YARN result struct carries no byte or time totals; its
        # CheckpointEngine exports them as counters and histograms.
        "checkpoint.bytes_written": c.get("bytes_written",
                                          msum(m, "ckpt.dump.bytes")),
        "checkpoint.dump_sim_h": c.get("dump_sim_h",
                                       msum(m, "ckpt.dump.seconds") / 3600),
        "checkpoint.restore_sim_h": c.get(
            "restore_sim_h", msum(m, "ckpt.restore.seconds") / 3600),
        "store.ops": msum(m, "store.ops"),
        "store.bytes": msum(m, "store.bytes"),
        "dump_sched.admitted": msum(m, "dump_sched.admitted"),
        "dump_sched.deferred": msum(m, "dump_sched.deferred"),
        "dump_sched.bypassed": msum(m, "dump_sched.bypassed"),
        "dump_sched.defer_sim_s": msum(m, "dump_sched.defer_seconds"),
        "storage.io_busy_fraction": c.get("io_busy_fraction", 0),
        "bw_domain.flows": msum(m, "bw_domain.flows"),
        "bw_domain.peak_flows": mmax(m, "bw_domain.peak_flows"),
        "bw_domain.bytes": msum(m, "bw_domain.bytes"),
        "bw_domain.busy_sim_s": msum(m, "bw_domain.busy_seconds"),
        "dfs.ops": msum(m, "dfs.ops"),
        "dfs.bytes": msum(m, "dfs.bytes"),
        "dfs.rereplicated": msum(m, "dfs.rereplicated"),
        "dfs.files_lost": msum(m, "dfs.files_lost"),
        "dfs.remote_restores": restores - c.get("local_restores", 0),
        "rm.schedule_loops": msum(m, "rm.schedule_loops"),
        "rm.allocations": msum(m, "rm.allocations"),
        "nm.containers_launched": msum(m, "nm.containers.launched"),
        "nm.containers_suspended": msum(m, "nm.containers.suspended"),
        "nm.containers_resumed": msum(m, "nm.containers.resumed"),
        "service.ticks": ticks,
        "service.violated_share": ratio(msum(m, "service.violated_ticks"),
                                        ticks),
        "service.cold_starts": c.get("service_cold_starts", 0),
        "service.preemptions": c.get("service_preemptions", 0),
        "fault.injected": c.get("faults_injected", 0),
        "fault.node_failures": c.get("node_failures", 0),
        "obs.audit_records": msum(m, "audit.records"),
        "obs.audit_dropped": msum(m, "audit.dropped_records"),
        "obs.tracer_dropped": msum(m, "tracer.dropped_events"),
    })
    for key, value in traced["outcome"].items():
        if "outcome." + key in out:
            out["outcome." + key] = value
    return out


def median_metrics(samples):
    """Median of each metric over a list of per-pass metric dicts."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


SETUP_ONLY_PER_PLAIN = 1  # extra cold set-up sample per untraced pass
MASK64 = (1 << 64) - 1


def input_seed(seed, k):
    """Seed of a run's k-th input: the run's own seed first, then SplitMix64
    derivations of it. Spreading a run over several inputs keeps one
    unusually cheap or costly input from setting the run's medians."""
    if k == 0:
        return seed
    x = (seed + k * 0x9E3779B97F4A7C15) & MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def measure(args, runner, work_dir):
    """Run passes until --seconds is used up; returns (attempted, failed,
    metrics or None).

    With --trace 0 the k-th untraced pass, its set-up-only passes and the
    k-th observability-on pass share input k. With --trace 1 every pass
    runs input 0, so the per-layer counts repeat exactly."""
    expected = load_expected(args.expected, args.size, args.workload,
                             args.seed)
    obs_dir = os.path.join(work_dir, "obs")
    spans_path = os.path.join(work_dir, "spans.json")
    attempted = failed = 0
    references = {}  # input index -> outcome of its first pass
    setups, plain, observed, layers = [], [], [], []
    longest = {}  # pass kind -> longest wall time seen, for the deadline
    deadline = time.monotonic() + args.seconds

    def timed_pass(kind, k):
        nonlocal attempted, failed
        k = 0 if args.trace else k
        started = time.monotonic()
        report = run_pass(runner, args.workload, input_seed(args.seed, k),
                          args.size,
                          obs_dir=obs_dir if kind == "obs" else None,
                          spans=spans_path if kind == "obs" and args.trace
                          else None,
                          setup_only=kind == "setup")
        longest[kind] = max(longest.get(kind, 0.0),
                            time.monotonic() - started)
        attempted += 1
        if report is None:
            problems = ["pass failed"]
        elif kind == "setup":
            problems = []
        else:
            reference = references.setdefault(k, report["outcome"])
            problems = pass_problems(report, reference,
                                     expected if k == 0 else None)
        if problems:
            failed += 1
            sys.stderr.write(f"{args.workload} seed {args.seed} input {k}: "
                             f"{'; '.join(problems)}\n")
        return report  # timings of a completed pass count even if it failed

    def fits(kind):
        return time.monotonic() + longest.get(kind, 0.0) <= deadline

    # Alternate untraced and observability-on passes, each as long as it
    # still fits in the time left; the first of each kind always runs.
    while True:
        kinds = ["plain", "obs"]
        if len(plain) > len(observed):
            kinds.reverse()
        kind = next((c for c in kinds if c not in longest or fits(c)), None)
        if kind is None:
            break
        k = len(plain) if kind == "plain" else len(observed)
        report = timed_pass(kind, k)
        if report is not None and kind == "plain":
            plain.append(report)
            setups.append(report["setup_s"])
            if not args.trace:
                for _ in range(SETUP_ONLY_PER_PLAIN):
                    if "setup" in longest and not fits("setup"):
                        break
                    extra = timed_pass("setup", k)
                    if extra is not None:
                        setups.append(extra["setup_s"])
        elif report is not None:
            observed.append(report)
            setups.append(report["setup_s"])
            if args.trace:
                with open(spans_path) as f:
                    spans = json.load(f)
                layers.append(layer_metrics(
                    report, load_metrics(os.path.join(obs_dir,
                                                      "metrics.json")),
                    spans))
        shutil.rmtree(obs_dir, ignore_errors=True)

    if not plain or not observed:
        return attempted, failed, None
    run_s = statistics.median(p["run_s"] for p in plain)
    obs_run_s = statistics.median(o["run_s"] + o["export_s"]
                                  for o in observed)
    if args.trace:
        metrics = median_metrics(layers)
        metrics["sim.ns_per_event"] = ratio(run_s * 1e9, metrics["sim.events"])
        metrics["obs.overhead_s"] = obs_run_s - run_s
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "run_s": run_s,
            "tasks_per_s": statistics.median(
                p["outcome"]["tasks_completed"] / p["run_s"] for p in plain),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
            "obs_run_s": obs_run_s,
            "obs_peak_rss_mb": statistics.median(
                o["peak_rss_mb"] for o in observed),
        }
        units = END_TO_END
    return attempted, failed, {k: {"value": metrics[k], "unit": units[k]}
                               for k in units}


def record_expected(args, runner, work_dir):
    record = {"seed": DEFAULT_SEED}
    for size in SIZES:
        record[size] = {}
        for workload in WORKLOADS:
            report = run_pass(runner, workload, DEFAULT_SEED, size)
            if report is None or pass_problems(report, None, None):
                sys.stderr.write(f"cannot record {workload} ({size})\n")
                return 1
            record[size][workload] = report["outcome"]
    with open(args.expected, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    shutil.rmtree(work_dir, ignore_errors=True)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny runs each workload in well under a second "
                             "(for the harness's own tests)")
    parser.add_argument("--expected",
                        default=os.path.join(HERE, "expected.json"),
                        help="recorded default-seed outcomes")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args()
    if not 0 <= args.seed <= MASK64 or args.seconds <= 0:
        parser.error("--seed must be in [0, 2^64) and --seconds > 0")
    if args.workload is None and not args.record_expected:
        parser.error("--workload is required")

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                                ".bench_build"))
    try:
        runner = build_runner(build_root)
    except BuildError as err:
        sys.stderr.write(f"perfbench: {err}\n")
        return 1
    work_dir = os.path.join(build_root, "work", str(os.getpid()))
    if args.record_expected:
        return record_expected(args, runner, work_dir)
    try:
        attempted, failed, metrics = measure(args, runner, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if metrics is None:
        sys.stderr.write("perfbench: no pass completed\n")
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
