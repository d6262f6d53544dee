#!/usr/bin/env bash
# Guards the MemTracker tree's naming against silent drift: the fixed tree
# levels are created through the canonical naming helpers (NodeTrackerName /
# JobTrackerName, defined in mem_tracker.cc) — node trackers in engine.cc,
# per-(job, node) trackers in job_runner.cc — so every reader of a tracker
# name (EXPLAIN ANALYZE, ResourceExhausted messages, tests) sees one scheme.
# Registered as a ctest (tests/CMakeLists.txt) and runnable standalone:
#   scripts/check_mem_gauges.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
engine_cc="$root/src/mapreduce/engine.cc"
runner_cc="$root/src/mapreduce/job_runner.cc"
tracker_cc="$root/src/obs/mem_tracker.cc"

for f in "$engine_cc" "$runner_cc" "$tracker_cc"; do
  if [ ! -f "$f" ]; then
    echo "check_mem_gauges: missing $f" >&2
    exit 2
  fi
done

fail=0

if ! grep -q 'NodeTrackerName' "$engine_cc"; then
  echo "check_mem_gauges: engine.cc does not create node trackers via" \
       "obs::NodeTrackerName()" >&2
  fail=1
fi
if ! grep -q 'JobTrackerName' "$runner_cc"; then
  echo "check_mem_gauges: job_runner.cc does not create job trackers via" \
       "obs::JobTrackerName()" >&2
  fail=1
fi
for helper in NodeTrackerName JobTrackerName; do
  if ! grep -q "std::string $helper" "$tracker_cc"; then
    echo "check_mem_gauges: $helper not defined in mem_tracker.cc" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_mem_gauges: tracker levels are named through the canonical helpers"
