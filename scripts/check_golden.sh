#!/usr/bin/env bash
# Run a command and require its stdout to match a committed golden file
# byte for byte (stderr, which carries wall-clock timings, is ignored).
# Refactors that must not change simulated behaviour keep these passing;
# an intended output change re-records the golden file in the same commit.
#
# Usage: scripts/check_golden.sh GOLDEN_FILE COMMAND [ARGS...]
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 GOLDEN_FILE COMMAND [ARGS...]" >&2
  exit 2
fi
golden="$1"
shift

actual="$(mktemp)"
trap 'rm -f "$actual"' EXIT
if ! "$@" 2>/dev/null > "$actual"; then
  echo "check_golden: FAIL: '$*' exited with a non-zero status"
  exit 1
fi
if ! cmp -s "$golden" "$actual"; then
  echo "check_golden: FAIL: stdout of '$*' differs from $golden:"
  diff "$golden" "$actual" | head -40
  exit 1
fi
echo "check_golden: '$*' matches $golden"
