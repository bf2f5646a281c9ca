#!/usr/bin/env bash
# Same-host A/B timing of two commits on one perfbench workload.
#
# Builds perfbench_runner for BASE and HEAD from their own sources
# (exported with `git archive` into a temporary directory), then runs N
# interleaved pass pairs: pair k runs seed k on both sides, and the side
# that goes first alternates from pair to pair so drift on a shared host
# hits both equally. Prints each side's median run_s and setup_s, the
# HEAD/BASE ratio, and how many pairs HEAD won.
#
# Exit status:
#   1  a pass failed (non-zero exit, no report, or unfinished jobs/tasks)
#      or the two sides' modelled `outcome` objects differ for any seed:
#      the byte-identity guard for a change meant to alter speed only;
#   3  with --gate RATIO, HEAD's median run_s exceeds RATIO x BASE's;
#   2  bad usage.
# Without --gate the script only reports speed. perfbench/ is read, never
# written.
#
# Usage: scripts/perf_ab.sh [--gate RATIO] BASE HEAD WORKLOAD [N]
#   (N defaults to 5)
#   e.g. scripts/perf_ab.sh HEAD~1 HEAD yarn_fb 10
#        scripts/perf_ab.sh --gate 1.10 origin/main HEAD colocated_contended
set -euo pipefail

usage() {
  echo "usage: $0 [--gate RATIO] BASE HEAD WORKLOAD [N]" >&2
  exit 2
}

gate=""
if [[ $# -ge 1 && "$1" == "--gate" ]]; then
  [[ $# -ge 2 ]] || usage
  gate="$2"
  shift 2
  # A positive decimal such as 1, 0.75 or 1.1.
  if ! [[ "$gate" =~ ^([0-9]+(\.[0-9]*)?|\.[0-9]+)$ ]] ||
     [[ "$gate" =~ ^[0.]*$ ]]; then
    echo "perf_ab: RATIO must be a positive number, got '$gate'" >&2
    exit 2
  fi
fi
if [[ $# -lt 3 || $# -gt 4 ]]; then
  usage
fi
base_rev="$1"
head_rev="$2"
workload="$3"
passes="${4:-5}"
if ! [[ "$passes" =~ ^[1-9][0-9]*$ ]]; then
  echo "perf_ab: N must be a positive integer, got '$passes'" >&2
  exit 2
fi

repo="$(git rev-parse --show-toplevel)"
base_sha="$(git -C "$repo" rev-parse --verify "$base_rev^{commit}")"
head_sha="$(git -C "$repo" rev-parse --verify "$head_rev^{commit}")"
tmp="$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT

jobs="$(nproc 2>/dev/null || echo 1)"
(( jobs > 4 )) && jobs=4
for side in base head; do
  sha="$base_sha"
  [[ "$side" == head ]] && sha="$head_sha"
  mkdir "$tmp/$side"
  git -C "$repo" archive "$sha" | tar -x -C "$tmp/$side"
  echo "perf_ab: building $side ($sha)" >&2
  if ! { cmake -S "$tmp/$side/perfbench" -B "$tmp/build-$side" \
           -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$tmp/build-$side" -j "$jobs"; } \
       > "$tmp/build-$side.log" 2>&1; then
    tail -40 "$tmp/build-$side.log" >&2
    echo "perf_ab: FAIL: building $side failed" >&2
    exit 1
  fi
done

python3 - "$tmp/build-base/perfbench_runner" "$tmp/build-head/perfbench_runner" \
  "$workload" "$passes" "$gate" <<'EOF'
import json
import statistics
import subprocess
import sys

runners = {"base": sys.argv[1], "head": sys.argv[2]}
workload = sys.argv[3]
passes = int(sys.argv[4])
gate = float(sys.argv[5]) if sys.argv[5] else None
TIMEOUT_S = 300


def run(side, seed):
    cmd = [runners[side], "--workload", workload, "--seed", str(seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, "timed out"
    if proc.returncode != 0:
        return None, f"exited {proc.returncode}: {proc.stderr[-500:]}"
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None, "printed no report"
    outcome = report["outcome"]
    if (outcome["jobs_completed"] != report["jobs_total"] or
            outcome["tasks_completed"] != report["tasks_total"]):
        return None, "left jobs or tasks unfinished"
    return report, None


samples = {"base": {"run_s": [], "setup_s": []},
           "head": {"run_s": [], "setup_s": []}}
failures = []
head_wins = 0
pairs = 0
for k in range(passes):
    seed = k + 1
    order = ("base", "head") if k % 2 == 0 else ("head", "base")
    reports = {}
    for side in order:
        report, problem = run(side, seed)
        if problem is not None:
            failures.append(f"{side} seed {seed}: {problem}")
            continue
        reports[side] = report
        for metric in ("run_s", "setup_s"):
            samples[side][metric].append(report[metric])
    line = f"pair {k + 1}/{passes} seed {seed} ({order[0]} first):"
    for side in ("base", "head"):
        if side in reports:
            line += f" {side} run_s={reports[side]['run_s']:.4f}"
    print(line)
    if len(reports) == 2:
        pairs += 1
        if reports["head"]["run_s"] < reports["base"]["run_s"]:
            head_wins += 1
    if len(reports) == 2 and (reports["base"]["outcome"] !=
                              reports["head"]["outcome"]):
        failures.append(f"seed {seed}: outcome differs: base "
                        f"{reports['base']['outcome']} head "
                        f"{reports['head']['outcome']}")

print(f"{workload}: medians over {passes} pairs")
for metric in ("run_s", "setup_s"):
    b, h = samples["base"][metric], samples["head"][metric]
    if not b or not h:
        continue
    mb, mh = statistics.median(b), statistics.median(h)
    ratio = mh / mb if mb > 0 else float("nan")
    print(f"  {metric:8s} base {mb:.4f}  head {mh:.4f}  head/base {ratio:.3f}")
print(f"  head faster in {head_wins}/{pairs} pairs")
for failure in failures:
    print(f"perf_ab: FAIL: {failure}")
if failures:
    sys.exit(1)
if gate is not None:
    b, h = samples["base"]["run_s"], samples["head"]["run_s"]
    mb, mh = statistics.median(b), statistics.median(h)
    if mh > gate * mb:
        print(f"perf_ab: GATE FAIL: head median run_s {mh:.4f} > "
              f"{gate} x base {mb:.4f}")
        sys.exit(3)
    print(f"perf_ab: gate ok: head median run_s {mh:.4f} <= "
          f"{gate} x base {mb:.4f}")
sys.exit(0)
EOF
