#!/usr/bin/env bash
# Malformed integer and float flags must be rejected with the usage text and exit
# status 2 — not silently read as 0 (atoi/atof) or crash the run later —
# while values that parse keep their meaning.
#
# Usage: scripts/check_bad_flags.sh CKPT_SIM BENCH_SCALE YARN_SIM SWEEP_BENCH
# (SWEEP_BENCH is any figure bench that takes the shared --jobs flag.)
set -uo pipefail

if [[ $# -ne 4 ]]; then
  echo "usage: $0 CKPT_SIM BENCH_SCALE YARN_SIM SWEEP_BENCH" >&2
  exit 2
fi
ckpt_sim="$1"
bench_scale="$2"
yarn_sim="$3"
sweep_bench="$4"

fail=0
expect_usage_error() {
  local status
  "$@" > /dev/null 2>&1
  status=$?
  if [[ $status -eq 2 ]]; then
    echo "check_bad_flags: '$*' exits 2"
  else
    echo "check_bad_flags: FAIL: '$*' exited $status, expected 2"
    fail=1
  fi
}

expect_usage_error "$ckpt_sim" --jobs=abc
expect_usage_error "$ckpt_sim" --jobs=-5
expect_usage_error "$ckpt_sim" --jobs=12x
expect_usage_error "$ckpt_sim" --parallel=abc
expect_usage_error "$ckpt_sim" --parallel=0
expect_usage_error "$ckpt_sim" --fail-node=abc
expect_usage_error "$ckpt_sim" --fail-node=-1
expect_usage_error "$ckpt_sim" --util=abc
expect_usage_error "$ckpt_sim" --util=0
expect_usage_error "$ckpt_sim" --util=-1
expect_usage_error "$ckpt_sim" --util=inf
expect_usage_error "$ckpt_sim" --threshold=abc
expect_usage_error "$ckpt_sim" --threshold=0
expect_usage_error "$ckpt_sim" --threshold=-2
expect_usage_error "$ckpt_sim" --threshold=nan
expect_usage_error "$ckpt_sim" --resubmit=x
expect_usage_error "$ckpt_sim" --resubmit=15s
expect_usage_error "$ckpt_sim" --resubmit=1e300
expect_usage_error "$ckpt_sim" --seed=abc
expect_usage_error "$ckpt_sim" --seed=-1
expect_usage_error "$ckpt_sim" --seed=12x
expect_usage_error "$ckpt_sim" --seed=
expect_usage_error "$ckpt_sim" --fail-node=0 --fail-at=zz
expect_usage_error "$ckpt_sim" --fail-node=0 --fail-at=inf
expect_usage_error "$ckpt_sim" --fail-node=0 --fail-at=30 --fail-down=x
expect_usage_error "$ckpt_sim" --fail-node=0 --fail-at=30 --fail-down=1e300
expect_usage_error "$ckpt_sim" --periodic-mtbf-min=q
expect_usage_error "$ckpt_sim" --periodic-mtbf-min=-inf
expect_usage_error "$ckpt_sim" --sweep-seeds=1,abc
expect_usage_error "$ckpt_sim" --sweep-seeds=1,-2
expect_usage_error "$ckpt_sim" --sweep-seeds=7x
expect_usage_error "$bench_scale" --sizes=abc
expect_usage_error "$bench_scale" --sizes=-4
expect_usage_error "$bench_scale" --sizes=0
expect_usage_error "$bench_scale" --sizes=64,,128
expect_usage_error "$bench_scale" --sizes=64,
expect_usage_error "$bench_scale" --sizes=
expect_usage_error "$sweep_bench" --jobs=abc
expect_usage_error "$sweep_bench" --jobs=0
expect_usage_error "$sweep_bench" --jobs=-3
expect_usage_error "$sweep_bench" --jobs 2x
expect_usage_error "$yarn_sim" --jobs=abc
expect_usage_error "$yarn_sim" --jobs=-5
expect_usage_error "$yarn_sim" --jobs=3
expect_usage_error "$yarn_sim" --tasks=12x
expect_usage_error "$yarn_sim" --tasks=0
expect_usage_error "$yarn_sim" --nodes=0
expect_usage_error "$yarn_sim" --nodes=
expect_usage_error "$yarn_sim" --containers=abc
expect_usage_error "$yarn_sim" --containers=0
expect_usage_error "$yarn_sim" --rack-size=-1
expect_usage_error "$yarn_sim" --guarantee=2
expect_usage_error "$yarn_sim" --guarantee=-1
expect_usage_error "$yarn_sim" --guarantee=abc
expect_usage_error "$yarn_sim" --guarantee=0.5x
expect_usage_error "$yarn_sim" --threshold=abc
expect_usage_error "$yarn_sim" --threshold=-3
expect_usage_error "$yarn_sim" --threshold=0
expect_usage_error "$yarn_sim" --threshold=nan
expect_usage_error "$yarn_sim" --net-aggregate-gbps=-5
expect_usage_error "$yarn_sim" --net-aggregate-gbps=inf
expect_usage_error "$yarn_sim" --rack-uplink-gbps=x
expect_usage_error "$yarn_sim" --rack-uplink-gbps=

# Values that parse keep their documented meaning: a negative --fail-at
# injects no failure, and negative --resubmit / --periodic-mtbf-min turn
# backoff / periodic checkpointing off, exactly like 0.
expect_same_output() {
  local a b
  # Word splitting of $1/$2 is intended: each holds zero or more flags.
  if ! a="$("$ckpt_sim" --jobs=40 $1 2>&1)" ||
     ! b="$("$ckpt_sim" --jobs=40 $2 2>&1)"; then
    echo "check_bad_flags: FAIL: '$1' or '$2' exited non-zero"
    fail=1
    return
  fi
  if [[ "$a" == "$b" ]]; then
    echo "check_bad_flags: '$1' runs like '$2'"
  else
    echo "check_bad_flags: FAIL: '$1' and '$2' differ"
    fail=1
  fi
}

expect_same_output "--fail-node=0 --fail-at=-5" ""
expect_same_output "--resubmit=-1" "--resubmit=0"
expect_same_output "--periodic-mtbf-min=-3" "--periodic-mtbf-min=0"
expect_same_output "--seed=2011" ""

exit "$fail"
