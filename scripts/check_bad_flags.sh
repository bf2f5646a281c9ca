#!/usr/bin/env bash
# Malformed integer and float flags must be rejected with the usage text and exit
# status 2 — not silently read as 0 (atoi/atof) or crash the run later.
#
# Usage: scripts/check_bad_flags.sh CKPT_SIM BENCH_SCALE YARN_SIM
set -uo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 CKPT_SIM BENCH_SCALE YARN_SIM" >&2
  exit 2
fi
ckpt_sim="$1"
bench_scale="$2"
yarn_sim="$3"

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
expect_usage_error "$bench_scale" --sizes=abc
expect_usage_error "$bench_scale" --sizes=-4
expect_usage_error "$bench_scale" --sizes=0
expect_usage_error "$bench_scale" --sizes=64,,128
expect_usage_error "$bench_scale" --sizes=64,
expect_usage_error "$bench_scale" --sizes=
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

exit "$fail"
