#!/usr/bin/env bash
# The end-to-end benchmark's single command. Builds bench/e2e into
# build/e2e, then runs it:
#
#   bench/e2e/run.sh --workload W [--seed S] [--seconds N] [--trace 0|1]
#       one workload in one single-threaded process; the last line of
#       stdout is the JSON result
#   bench/e2e/run.sh [--seed S] [--seconds N] [--trace 0|1] [--smoke]
#       every workload in turn, each in its own process
#
# Every run prints `workload metric value unit` lines; the command exits
# non-zero when any check fails. Build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../../build/e2e"

if [[ ! -f "$build/Makefile" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
jobs="$(nproc 2>/dev/null || echo 2)"
if (( jobs > 4 )); then jobs=4; fi
cmake --build "$build" -j "$jobs" >&2

workload=""
trace=0
args=("$@")
for ((i = 0; i + 1 < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --workload) workload="${args[i + 1]}" ;;
    --trace) trace="${args[i + 1]}" ;;
  esac
done

# Spans of a traced run are written once, when the run ends.
run() {
  local w="$1"
  shift
  local spans=()
  if [[ "$trace" == 1 ]]; then
    mkdir -p "$build/spans"
    spans=(--spans-out "$build/spans/$w.tsv")
  fi
  "$build/pythia_e2e" --workload "$w" "$@" \
    --expected "$here/expected.json" "${spans[@]}"
}

if [[ -n "$workload" ]]; then
  run "$workload" "$@"
  exit
fi
status=0
for w in paper_testbed sort_leafspine nutch_leafspine control_storm; do
  run "$w" "$@" || status=1
done
exit "$status"
