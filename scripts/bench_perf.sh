#!/usr/bin/env bash
# Performance snapshot for the event core and sweep runner: times the two
# heaviest figure benches and the simulator micro-benchmark, computes
# events/sec from the sim.events_processed gauges (CKPT_OBS=1), and writes
# everything to BENCH_PERF.json in the repo root.
#
# Usage: scripts/bench_perf.sh [build-dir] [out-file]
# Env:   BENCH_PERF_JOBS  worker counts to time the sweeps at (default "1 4")
#        BENCH_PERF_REPS  repetitions per wall-clock-timed lane (default 3).
#                         The recorded time is the best (minimum) rep: the
#                         runs are deterministic, so the fastest rep is the
#                         one least perturbed by other tenants of the
#                         machine, and min-of-N is the standard estimator
#                         for that.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-$repo_root/build}"
out_file="${2:-$repo_root/BENCH_PERF.json}"
jobs_list="${BENCH_PERF_JOBS:-1 4}"
reps="${BENCH_PERF_REPS:-3}"

obs_dir="$(mktemp -d)"
trap 'rm -rf "$obs_dir"' EXIT

# Wall-clock a command, print seconds to stdout (bash SECONDS has 1s
# granularity; use python for sub-second timing without extra deps).
now() { python3 -c 'import time; print(repr(time.time()))'; }

entries=()

sum_events() {
  python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
total = 0
for run in doc.get("runs", [doc]):
    for metric in run["metrics"]["metrics"]:
        if metric["name"] == "sim.events_processed":
            total += int(metric["value"])
print(total)
EOF
}

# The benches clamp --jobs to the machine's core count (see
# ClampSweepWorkers), so on small hosts the requested and effective worker
# counts differ; record both so rates are attributed to the real
# parallelism, not the requested one.
effective_jobs() {
  python3 -c "import os; print($1 if os.environ.get('CKPT_SWEEP_NO_CLAMP') else min($1, os.cpu_count() or $1))"
}

run_sweep_bench() {
  local name="$1" binary="$2" metrics_file="$3"
  shift 3
  for jobs in $jobs_list; do
    local t0 t1 seconds events eff rep
    eff="$(effective_jobs "$jobs")"
    seconds=""
    for ((rep = 0; rep < reps; ++rep)); do
      t0="$(now)"
      CKPT_OBS=1 CKPT_OBS_DIR="$obs_dir" "$binary" --jobs "$jobs" "$@" \
        > "$obs_dir/$name.j$jobs.stdout.txt"
      t1="$(now)"
      seconds="$(python3 -c "print(f'{min($t1 - $t0, ${seconds:-1e30}):.3f}')")"
    done
    events="$(sum_events "$obs_dir/$metrics_file")"
    local eps
    eps="$(python3 -c "print(f'{$events / $seconds:.0f}')")"
    echo "bench_perf: $name jobs=$jobs effective_jobs=$eff" \
         "seconds=$seconds events=$events events_per_sec=$eps"
    entries+=("{\"bench\":\"$name\",\"jobs\":$jobs,\"effective_jobs\":$eff,\"seconds\":$seconds,\"events\":$events,\"events_per_sec\":$eps}")
  done
}

run_sweep_bench fig3 "$build_dir/bench/bench_fig3_trace_sim" \
  bench_fig3_trace_sim.metrics.json
run_sweep_bench fig8 "$build_dir/bench/bench_fig8_yarn" \
  bench_fig8_yarn.metrics.json

# Scale sweep: cluster sizes x policies, with the feasibility index on and
# off. The binary reports per-cell wall time, events/s, decisions/s and peak
# RSS on stderr; record every cell plus the on/off decisions-per-sec ratio
# at the largest size (the index's headline speedup).
# Env: BENCH_SCALE_SIZES overrides the sweep sizes (default 1000,4000,10000).
scale_sizes="${BENCH_SCALE_SIZES:-1000,4000,10000}"
declare -A scale_dps
for mode in on off; do
  "$build_dir/bench/bench_scale" "--sizes=$scale_sizes" "--index=$mode" \
    > "$obs_dir/scale.$mode.stdout.txt" 2> "$obs_dir/scale.$mode.stderr.txt"
  while read -r _ nodes policy index seconds events eps decisions dps rss; do
    nodes="${nodes#nodes=}"; policy="${policy#policy=}"
    index="${index#index=}"; seconds="${seconds#seconds=}"
    events="${events#events=}"; eps="${eps#events_per_sec=}"
    decisions="${decisions#decisions=}"; dps="${dps#decisions_per_sec=}"
    rss="${rss#peak_rss_bytes=}"
    echo "bench_perf: scale nodes=$nodes policy=$policy index=$index" \
         "seconds=$seconds events_per_sec=$eps" \
         "decisions_per_sec=$dps peak_rss_bytes=$rss"
    entries+=("{\"bench\":\"scale\",\"nodes\":$nodes,\"policy\":\"$policy\",\"index\":\"$index\",\"seconds\":$seconds,\"events\":$events,\"events_per_sec\":$eps,\"decisions\":$decisions,\"decisions_per_sec\":$dps,\"peak_rss_bytes\":$rss}")
    scale_dps["$index.$nodes.$policy"]="$dps"
  done < <(grep '^bench_scale:' "$obs_dir/scale.$mode.stderr.txt")
done
largest="${scale_sizes##*,}"
for policy in kill checkpoint adaptive; do
  on="${scale_dps[on.$largest.$policy]:-0}"
  off="${scale_dps[off.$largest.$policy]:-0}"
  ratio="$(python3 -c "print(f'{$on / $off:.1f}' if $off > 0 else '0')")"
  echo "bench_perf: scale_index_speedup nodes=$largest policy=$policy" \
       "decisions_per_sec_ratio=$ratio"
  entries+=("{\"bench\":\"scale_index_speedup\",\"nodes\":$largest,\"policy\":\"$policy\",\"decisions_per_sec_on\":$on,\"decisions_per_sec_off\":$off,\"ratio\":$ratio}")
done

# Interference sweep: shared-bandwidth pools + cooperative dump scheduler +
# periodic Young/Daly checkpoints, replicated over crash phases. The bench
# does not export obs metrics, so this lane records wall time only — the
# pool arithmetic runs on the hot path of every dump/restore/transfer, and
# a regression here means the fair-share bookkeeping got slower.
# Env: BENCH_INTERFERENCE_JOBS overrides the workload size (default 300).
interference_jobs="${BENCH_INTERFERENCE_JOBS:-300}"
for jobs in $jobs_list; do
  eff="$(effective_jobs "$jobs")"
  seconds=""
  for ((rep = 0; rep < reps; ++rep)); do
    t0="$(now)"
    "$build_dir/bench/bench_interference" --jobs "$jobs" "$interference_jobs" \
      > "$obs_dir/interference.j$jobs.stdout.txt"
    t1="$(now)"
    seconds="$(python3 -c "print(f'{min($t1 - $t0, ${seconds:-1e30}):.3f}')")"
  done
  echo "bench_perf: interference jobs=$jobs effective_jobs=$eff" \
       "seconds=$seconds"
  entries+=("{\"bench\":\"interference\",\"jobs\":$jobs,\"effective_jobs\":$eff,\"seconds\":$seconds}")
done

# Service colocation sweep: diurnal traffic evaluation, SLO ticks, and the
# service-aware adaptive decisions all run inside the scheduler hot loop,
# so this lane guards the whole service subsystem's wall time (the bench
# does not export obs metrics; best-of-reps like the interference lane).
# Env: BENCH_SERVICES_JOBS overrides the batch workload size (default 300).
services_jobs="${BENCH_SERVICES_JOBS:-300}"
for jobs in $jobs_list; do
  eff="$(effective_jobs "$jobs")"
  seconds=""
  for ((rep = 0; rep < reps; ++rep)); do
    t0="$(now)"
    "$build_dir/bench/bench_services" --jobs "$jobs" "$services_jobs" \
      > "$obs_dir/services.j$jobs.stdout.txt"
    t1="$(now)"
    seconds="$(python3 -c "print(f'{min($t1 - $t0, ${seconds:-1e30}):.3f}')")"
  done
  echo "bench_perf: services jobs=$jobs effective_jobs=$eff" \
       "seconds=$seconds"
  entries+=("{\"bench\":\"services\",\"jobs\":$jobs,\"effective_jobs\":$eff,\"seconds\":$seconds}")
done

# Micro-benchmark: the binary reports events/sec per scenario itself.
micro_out="$obs_dir/micro.stdout.txt"
t0="$(now)"
"$build_dir/bench/bench_micro_sim" > "$micro_out"
t1="$(now)"
micro_seconds="$(python3 -c "print(f'{$t1 - $t0:.3f}')")"
echo "bench_perf: micro_sim seconds=$micro_seconds"
while read -r scenario impl events seconds eps; do
  entries+=("{\"bench\":\"micro_sim\",\"scenario\":\"${scenario#scenario=}\",\"impl\":\"${impl#impl=}\",\"events\":${events#events=},\"seconds\":${seconds#seconds=},\"events_per_sec\":${eps#events_per_sec=}}")
done < <(grep '^scenario=' "$micro_out")
grep '^speedup' "$micro_out" | sed 's/^/bench_perf: micro_sim /'

# Provenance: which tree, when, and on what machine the numbers were
# taken. scripts/bench_perf_diff.py warns when the machine block differs
# between a run and the committed baseline (rates are then incomparable).
git_sha="$(git -C "$repo_root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
run_date="$(date -u +%Y-%m-%dT%H:%M:%SZ)"
cpu_model="$(awk -F': ' '/^model name/ {print $2; exit}' /proc/cpuinfo 2>/dev/null || true)"
[[ -n "$cpu_model" ]] || cpu_model="unknown"

{
  echo '{'
  echo "  \"generated_by\": \"scripts/bench_perf.sh\","
  echo "  \"git_sha\": \"$git_sha\","
  echo "  \"date\": \"$run_date\","
  echo "  \"machine\": {\"nproc\": $(nproc), \"cpu_model\": \"$cpu_model\"},"
  echo "  \"jobs_timed\": \"$jobs_list\","
  echo '  "results": ['
  for i in "${!entries[@]}"; do
    sep=','
    [[ $i -eq $((${#entries[@]} - 1)) ]] && sep=''
    echo "    ${entries[$i]}$sep"
  done
  echo '  ]'
  echo '}'
} > "$out_file"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out_file"
echo "bench_perf: wrote $out_file"
