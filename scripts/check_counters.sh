#!/usr/bin/env bash
# Guards the exposition contracts against silent drift:
#   1. every kCounter* name in counters.h is returned by either
#      StandardCounterNames() or SituationalCounterNames() in counters.cc;
#   2. every kCounter* name in star_join_job.h is returned by
#      ClydesdaleCounterNames() in star_join_job.cc;
#   3. every kCounterCif* name in counters.h is actually flushed by
#      AddCifScanCounters() in counters.cc (so a scan-stat counter can
#      never be declared + listed yet silently never populated);
#   4. every kCounterProf* name in counters.h is actually surfaced by
#      AddQueryProfileCounters() in counters.cc (the only place the merged
#      query profile becomes headline counters);
#   5. every kCounterMem* name in counters.h is actually flushed by
#      AddMemTrackerCounters() in counters.cc (the only place the job's
#      memory-tracker peaks become MEM_* counters);
#   6. every kCounterCache* name in counters.h is actually flushed by
#      AddDimCacheCounters() in counters.cc (the only place the serving-mode
#      dim-cache activity becomes CACHE_* counters).
# Registered as a ctest (tests/CMakeLists.txt) and runnable standalone:
#   scripts/check_counters.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
counters_h="$root/src/mapreduce/counters.h"
counters_cc="$root/src/mapreduce/counters.cc"
star_h="$root/src/core/star_join_job.h"
star_cc="$root/src/core/star_join_job.cc"

for f in "$counters_h" "$counters_cc" "$star_h" "$star_cc"; do
  if [ ! -f "$f" ]; then
    echo "check_counters: missing $f" >&2
    exit 2
  fi
done

fail=0

# --- counters: header constants vs StandardCounterNames + SituationalCounterNames
header_counters=$(grep -o 'kCounter[A-Za-z0-9]*\[\]' "$counters_h" \
  | sed 's/\[\]//' | sort -u)
# The two list functions return the kCounter* constants; collect every
# constant referenced in the .cc list bodies.
cc_counters=$(sed -n '/StandardCounterNames\|SituationalCounterNames/,/^}/p' \
  "$counters_cc" | grep -o 'kCounter[A-Za-z0-9]*' | sort -u)

for name in $header_counters; do
  if ! printf '%s\n' "$cc_counters" | grep -qx "$name"; then
    echo "check_counters: $name declared in counters.h but returned by" \
         "neither StandardCounterNames() nor SituationalCounterNames()" >&2
    fail=1
  fi
done
for name in $cc_counters; do
  if ! printf '%s\n' "$header_counters" | grep -qx "$name"; then
    echo "check_counters: $name listed in counters.cc but not declared" \
         "in counters.h" >&2
    fail=1
  fi
done

# --- star-join counters: header constants vs ClydesdaleCounterNames
star_header=$(grep -o 'kCounter[A-Za-z0-9]*\[\]' "$star_h" \
  | sed 's/\[\]//' | sort -u)
star_cc_names=$(sed -n '/ClydesdaleCounterNames/,/^}/p' "$star_cc" \
  | grep -o 'kCounter[A-Za-z0-9]*' | sort -u)

for name in $star_header; do
  if ! printf '%s\n' "$star_cc_names" | grep -qx "$name"; then
    echo "check_counters: $name declared in star_join_job.h but missing" \
         "from ClydesdaleCounterNames()" >&2
    fail=1
  fi
done
for name in $star_cc_names; do
  if ! printf '%s\n' "$star_header" | grep -qx "$name"; then
    echo "check_counters: $name listed in ClydesdaleCounterNames() but" \
         "not declared in star_join_job.h" >&2
    fail=1
  fi
done

# --- CIF scan counters: every declared kCounterCif* must be wired into the
# --- shared flush helper (the only place scan stats become counters)
cif_header=$(printf '%s\n' "$header_counters" | grep '^kCounterCif' || true)
cif_flush=$(sed -n '/^void AddCifScanCounters/,/^}/p' "$counters_cc" \
  | grep -o 'kCounter[A-Za-z0-9]*' | sort -u)

for name in $cif_header; do
  if ! printf '%s\n' "$cif_flush" | grep -qx "$name"; then
    echo "check_counters: $name declared in counters.h but never flushed" \
         "by AddCifScanCounters()" >&2
    fail=1
  fi
done

# --- query-profile counters: every declared kCounterProf* must be surfaced
# --- by the shared profile->counters helper
prof_header=$(printf '%s\n' "$header_counters" | grep '^kCounterProf' || true)
prof_flush=$(sed -n '/^void AddQueryProfileCounters/,/^}/p' "$counters_cc" \
  | grep -o 'kCounter[A-Za-z0-9]*' | sort -u)

for name in $prof_header; do
  if ! printf '%s\n' "$prof_flush" | grep -qx "$name"; then
    echo "check_counters: $name declared in counters.h but never surfaced" \
         "by AddQueryProfileCounters()" >&2
    fail=1
  fi
done

# --- memory counters: every declared kCounterMem* must be flushed by the
# --- tracker-peaks helper (the only place MEM_* counters are populated)
mem_header=$(printf '%s\n' "$header_counters" | grep '^kCounterMem' || true)
mem_flush=$(sed -n '/^void AddMemTrackerCounters/,/^}/p' "$counters_cc" \
  | grep -o 'kCounter[A-Za-z0-9]*' | sort -u)

for name in $mem_header; do
  if ! printf '%s\n' "$mem_flush" | grep -qx "$name"; then
    echo "check_counters: $name declared in counters.h but never flushed" \
         "by AddMemTrackerCounters()" >&2
    fail=1
  fi
done

# --- dim-cache counters: every declared kCounterCache* must be flushed by
# --- the serving-cache helper (the only place CACHE_* counters are populated)
cache_header=$(printf '%s\n' "$header_counters" | grep '^kCounterCache' || true)
cache_flush=$(sed -n '/^void AddDimCacheCounters/,/^}/p' "$counters_cc" \
  | grep -o 'kCounter[A-Za-z0-9]*' | sort -u)

for name in $cache_header; do
  if ! printf '%s\n' "$cache_flush" | grep -qx "$name"; then
    echo "check_counters: $name declared in counters.h but never flushed" \
         "by AddDimCacheCounters()" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "check_counters: counter names are in sync"
