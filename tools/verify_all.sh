#!/usr/bin/env bash
# Run every correctness gate the repo has: for each preset in turn
# (default, check, sanitize, tsan) configure, build and run its whole ctest
# suite. The default suite also runs the build-independent tool entries
# (lint, analyze, report, bench-compare, tidy, format; label `tooling`);
# the other presets exclude that label. After the default preset come the
# deterministic QoE gates (fault-recovery sweep, ABR arena, CDN baselines).
# Any failure aborts the run. Usage:
#
#   tools/verify_all.sh            # every preset
#   tools/verify_all.sh --fast     # the default preset and the QoE gates only
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
elif [[ $# -gt 0 ]]; then
  echo "usage: tools/verify_all.sh [--fast]" >&2
  exit 2
fi

JOBS="$(nproc 2>/dev/null || echo 4)"

for preset in default check sanitize tsan; do
  printf '\n=== %s preset: configure, build, ctest ===\n' "$preset"
  cmake --preset "$preset" >/dev/null
  cmake --build --preset "$preset" -j "$JOBS"
  ctest --preset "$preset" -j "$JOBS"
  if [[ $preset == default ]]; then
    printf '\n=== deterministic QoE gates ===\n'
    for target in fault-recovery-check arena-check cdn-check; do
      cmake --build --preset default --target "$target"
    done
    if [[ $FAST -eq 1 ]]; then
      break
    fi
  fi
done

printf '\n=== all gates passed ===\n'
