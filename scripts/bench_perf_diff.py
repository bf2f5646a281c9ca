#!/usr/bin/env python3
"""Compare a fresh BENCH_PERF.json against a committed baseline.

Entries are matched by their identity fields (bench plus whichever of
jobs/effective_jobs/nodes/policy/index/scenario/impl/mix the entry carries)
and compared on the throughput metrics (events_per_sec, decisions_per_sec).
An entry that regresses by more than --max-regress percent fails the gate;
improvements and new/retired entries are reported but never fail.

Usage:
  scripts/bench_perf_diff.py [--max-regress PCT] CURRENT BASELINE
  scripts/bench_perf_diff.py --check CURRENT BASELINE

--check validates both files and prints the full comparison but exits 0
regardless of regressions — for CI machines whose absolute throughput is
not comparable to the machine that produced the committed baseline
(machine identity is embedded in the file header; --check warns when it
differs). The hard gate (no --check) is for like-for-like machines, e.g.
a perf bot re-running on the baseline host.

Exit codes: 0 ok, 1 regression beyond threshold, 2 bad input.
"""

import argparse
import json
import sys

IDENTITY_FIELDS = ("bench", "jobs", "effective_jobs", "nodes", "policy",
                   "index", "scenario", "impl", "mix")
RATE_METRICS = ("events_per_sec", "decisions_per_sec")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_perf_diff: cannot load {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        print(f"bench_perf_diff: {path}: missing results array",
              file=sys.stderr)
        sys.exit(2)
    return doc


def identity(entry):
    return tuple((f, entry[f]) for f in IDENTITY_FIELDS if f in entry)


def index_results(doc, path):
    out = {}
    for entry in doc["results"]:
        key = identity(entry)
        if key in out:
            print(f"bench_perf_diff: {path}: duplicate entry {key}",
                  file=sys.stderr)
            sys.exit(2)
        out[key] = entry
    return out


def fmt_key(key):
    return " ".join(f"{f}={v}" for f, v in key)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("current", help="fresh BENCH_PERF.json")
    parser.add_argument("baseline", help="committed BENCH_PERF.baseline.json")
    parser.add_argument("--max-regress", type=float, default=30.0,
                        metavar="PCT",
                        help="fail when a rate drops more than PCT%% "
                             "(default 30)")
    parser.add_argument("--check", action="store_true",
                        help="report only; never fail on regressions")
    args = parser.parse_args()

    current_doc = load(args.current)
    baseline_doc = load(args.baseline)
    current = index_results(current_doc, args.current)
    baseline = index_results(baseline_doc, args.baseline)

    cur_machine = current_doc.get("machine", {})
    base_machine = baseline_doc.get("machine", {})
    if cur_machine != base_machine:
        print("bench_perf_diff: WARNING: machines differ "
              f"(current={cur_machine.get('cpu_model', '?')}, "
              f"baseline={base_machine.get('cpu_model', '?')}); absolute "
              "rates are not comparable", file=sys.stderr)

    common = [k for k in baseline if k in current]
    if not common:
        print("bench_perf_diff: no common entries between the two files",
              file=sys.stderr)
        sys.exit(2)
    for key in sorted(set(baseline) - set(current), key=fmt_key):
        print(f"bench_perf_diff: retired: {fmt_key(key)}")
    for key in sorted(set(current) - set(baseline), key=fmt_key):
        print(f"bench_perf_diff: new: {fmt_key(key)}")

    regressions = []
    compared = 0
    for key in sorted(common, key=fmt_key):
        for metric in RATE_METRICS:
            if metric not in baseline[key] or metric not in current[key]:
                continue
            base = float(baseline[key][metric])
            cur = float(current[key][metric])
            if base <= 0:
                continue
            compared += 1
            change = 100.0 * (cur - base) / base
            marker = ""
            if change < -args.max_regress:
                marker = "  ** REGRESSION **"
                regressions.append((key, metric, base, cur, change))
            print(f"bench_perf_diff: {fmt_key(key)} {metric}: "
                  f"{base:.0f} -> {cur:.0f} ({change:+.1f}%){marker}")

    print(f"bench_perf_diff: compared {compared} rates across "
          f"{len(common)} entries; {len(regressions)} regression(s) beyond "
          f"{args.max_regress:.0f}%")
    if regressions and not args.check:
        for key, metric, base, cur, change in regressions:
            print(f"bench_perf_diff: FAIL: {fmt_key(key)} {metric} "
                  f"{base:.0f} -> {cur:.0f} ({change:+.1f}%)",
                  file=sys.stderr)
        sys.exit(1)
    if regressions:
        print("bench_perf_diff: --check mode: regressions reported, "
              "not enforced")


if __name__ == "__main__":
    main()
