#!/usr/bin/env bash
# Runs every google-benchmark micro suite and merges the JSON outputs into
# one BENCH_micro.json: benchmark name -> { rows_per_sec, wall_seconds }.
#
# Usage: run_benches.sh [--no-q21-json] [bench_dir] [output_json]
#   --no-q21-json  skip the Q2.1 barrier-vs-pipelined shuffle A/B
#                  (BENCH_q21.json is published by default)
#   bench_dir      directory holding the bench_micro_* binaries
#                  (default: build/bench relative to the repo root)
#   output_json    merged output path (default: BENCH_micro.json in $PWD)
#
# CLY_BENCH_SF scales the measurement dataset for the engine suite; the
# bench_smoke CMake target pins it to 0.01 for a fast smoke pass.

set -euo pipefail

EMIT_Q21_JSON=1
POSITIONAL=()
for arg in "$@"; do
  case "${arg}" in
    --no-q21-json) EMIT_Q21_JSON=0 ;;
    --q21-json) EMIT_Q21_JSON=1 ;;  # legacy flag: now the default
    *) POSITIONAL+=("${arg}") ;;
  esac
done
set -- "${POSITIONAL[@]:-}"

SCRIPT_DIR="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
BENCH_DIR="${1:-${SCRIPT_DIR}/../build/bench}"
OUT_JSON="${2:-${PWD}/BENCH_micro.json}"
export CLY_BENCH_SF="${CLY_BENCH_SF:-0.01}"

if [ ! -d "${BENCH_DIR}" ]; then
  echo "error: bench dir ${BENCH_DIR} not found (build the project first)" >&2
  exit 1
fi

TMP_DIR="$(mktemp -d)"
trap 'rm -rf "${TMP_DIR}"' EXIT

for bin in "${BENCH_DIR}"/bench_micro_*; do
  [ -x "${bin}" ] || continue
  name="$(basename "${bin}")"
  echo "== ${name} (CLY_BENCH_SF=${CLY_BENCH_SF})"
  "${bin}" --benchmark_format=json \
           --benchmark_out="${TMP_DIR}/${name}.json" \
           --benchmark_out_format=json >/dev/null
done

python3 - "${TMP_DIR}" "${OUT_JSON}" <<'EOF'
import json
import pathlib
import sys

tmp_dir, out_path = pathlib.Path(sys.argv[1]), pathlib.Path(sys.argv[2])
merged = {}
for path in sorted(tmp_dir.glob("*.json")):
    suite = path.stem
    data = json.loads(path.read_text())
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        name = bench["name"]
        entry = {"suite": suite}
        if "items_per_second" in bench:
            entry["rows_per_sec"] = round(bench["items_per_second"], 1)
        # real_time is per-iteration; convert to seconds via the unit.
        unit = bench.get("time_unit", "ns")
        scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[unit]
        entry["wall_seconds"] = round(bench["real_time"] * scale, 6)
        merged[name] = entry

out_path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
print(f"wrote {out_path} ({len(merged)} benchmarks)")
EOF

# CIF scan (late materialization and compressed execution, DESIGN.md §11-12)
# over full / predicate / key-filter scans. Publishes rows/s, per-pass wall
# seconds, zone-map pruning stats, the observed compression ratio, and
# per-encoding block counts.
SCAN_BIN="${BENCH_DIR}/bench_scan_ab"
if [ -x "${SCAN_BIN}" ]; then
  echo "== bench_scan_ab (CLY_BENCH_SF=${CLY_BENCH_SF})"
  SCAN_JSON="$(dirname "${OUT_JSON}")/BENCH_scan.json"
  CLY_SCAN_JSON="${SCAN_JSON}" "${SCAN_BIN}" >/dev/null
  if [ ! -e "${SCAN_JSON}" ]; then
    echo "error: bench_scan_ab did not write ${SCAN_JSON}" >&2
    exit 1
  fi
  # The encoded-scan fields are part of the published contract: fail loudly
  # if any case or the compression summary goes missing.
  python3 - "${SCAN_JSON}" <<'EOF'
import json
import sys

path = sys.argv[1]
data = json.loads(open(path).read())
required = [
    "scan_encoded_full", "scan_encoded_predicate", "scan_encoded_keyfilter",
    "compression_ratio", "encodings", "bytes_encoded", "bytes_raw",
]
missing = [k for k in required if k not in data]
for case in ("scan_encoded_full", "scan_encoded_predicate",
             "scan_encoded_keyfilter"):
    for sub in ("rows_per_sec", "rows_out", "blocks_skipped", "rows_pruned"):
        if case in data and sub not in data[case]:
            missing.append(f"{case}.{sub}")
if missing:
    sys.exit(f"error: {path} lacks encoded-scan fields: {', '.join(missing)}")
print(f"{path}: compression {data['compression_ratio']:.2f}x, "
      f"encoded-predicate "
      f"{data['scan_encoded_predicate']['rows_per_sec'] / 1e6:.2f} Mrows/s")
EOF
  echo "wrote ${SCAN_JSON} (compressed CIF scan)"
fi

# Resident serving mode (DESIGN.md §15): N zipfian clients replay the 13 SSB
# shapes closed-loop against one QueryServer. Publishes cold vs warm
# p50/p95/p99 latency, the cross-query dim-cache hit rate, the result-cache
# replay rate, and the cold-pass byte-identity verdict.
SERVING_BIN="${BENCH_DIR}/bench_serving"
if [ -x "${SERVING_BIN}" ]; then
  echo "== bench_serving (CLY_BENCH_SF=${CLY_BENCH_SF})"
  SERVING_JSON="$(dirname "${OUT_JSON}")/BENCH_serving.json"
  CLY_SERVING_JSON="${SERVING_JSON}" "${SERVING_BIN}" >/dev/null
  if [ ! -e "${SERVING_JSON}" ]; then
    echo "error: bench_serving did not write ${SERVING_JSON}" >&2
    exit 1
  fi
  python3 - "${SERVING_JSON}" <<'EOF'
import json
import sys

path = sys.argv[1]
data = json.loads(open(path).read())
required = ["scale_factor", "clients", "queries_per_client", "zipf_s",
            "byte_identical", "cold", "warm", "warm_result_cache",
            "warm_speedup_p50", "dim_cache", "result_cache"]
missing = [k for k in required if k not in data]
for pass_name in ("cold", "warm", "warm_result_cache"):
    for sub in ("queries", "p50_ms", "p95_ms", "p99_ms", "mean_ms"):
        if pass_name in data and sub not in data[pass_name]:
            missing.append(f"{pass_name}.{sub}")
for sub in ("hits", "misses", "hit_rate", "evictions", "resident_bytes"):
    if "dim_cache" in data and sub not in data["dim_cache"]:
        missing.append(f"dim_cache.{sub}")
if missing:
    sys.exit(f"error: {path} lacks serving fields: {', '.join(missing)}")
if data["byte_identical"] is not True:
    sys.exit(f"error: {path}: cold serving pass diverged from the "
             "per-query engine")
if data["dim_cache"]["hit_rate"] <= 0:
    sys.exit(f"error: {path}: warm loop never hit the dim cache")
print(f"{path}: warm p50 {data['warm']['p50_ms']:.2f} ms vs cold "
      f"{data['cold']['p50_ms']:.2f} ms "
      f"({data['warm_speedup_p50']:.2f}x), dim-cache hit rate "
      f"{100 * data['dim_cache']['hit_rate']:.1f}%")
EOF
  echo "wrote ${SERVING_JSON} (cold vs warm serving closed loop)"
fi

# Traced Q2.1 breakdown: publish the artifacts the observability layer
# emits — Chrome trace + timeline (load the .trace.json in chrome://tracing
# or https://ui.perfetto.dev for the per-stage drill-down) and the EXPLAIN
# ANALYZE profile.
Q21_BIN="${BENCH_DIR}/bench_q21_breakdown"
if [ -x "${Q21_BIN}" ]; then
  TRACE_DIR="${TMP_DIR}/q21_trace"
  mkdir -p "${TRACE_DIR}"
  echo "== bench_q21_breakdown (traced, CLY_BENCH_SF=${CLY_BENCH_SF})"
  OUT_DIR="$(dirname "${OUT_JSON}")"
  Q21_JSON=""
  if [ "${EMIT_Q21_JSON}" = "1" ]; then
    Q21_JSON="${OUT_DIR}/BENCH_q21.json"
  fi
  MEMORY_JSON="${OUT_DIR}/BENCH_memory.json"
  CLY_TRACE_DIR="${TRACE_DIR}" CLY_Q21_JSON="${Q21_JSON}" \
    CLY_MEMORY_JSON="${MEMORY_JSON}" "${Q21_BIN}" >/dev/null
  if [ -n "${Q21_JSON}" ] && [ -e "${Q21_JSON}" ]; then
    echo "wrote ${Q21_JSON} (barrier vs pipelined shuffle A/B)"
  fi
  # Hierarchical memory accounting: per-operator peaks and the job peak.
  # Fail loudly if the published shape loses fields.
  if [ ! -e "${MEMORY_JSON}" ]; then
    echo "error: bench_q21_breakdown did not write ${MEMORY_JSON}" >&2
    exit 1
  fi
  python3 - "${MEMORY_JSON}" <<'EOF'
import json
import sys

path = sys.argv[1]
data = json.loads(open(path).read())
missing = [k for k in ("operator_peak_bytes", "job_peak_bytes")
           if k not in data]
ops = data.get("operator_peak_bytes", {})
for op in ("scan", "probe", "aggregate", "shuffle"):
    if op not in ops:
        missing.append(f"operator_peak_bytes.{op}")
    elif ops[op] <= 0:
        sys.exit(f"error: {path}: {op} peak is {ops[op]}, expected > 0")
if missing:
    sys.exit(f"error: {path} lacks memory fields: {', '.join(missing)}")
if data["job_peak_bytes"] <= 0:
    sys.exit(f"error: {path}: job_peak_bytes must be positive")
print(f"{path}: job peak {data['job_peak_bytes'] / 1024:.1f} KiB")
EOF
  echo "wrote ${MEMORY_JSON} (per-operator and job memory peaks)"
  for f in "${TRACE_DIR}"/*.trace.json; do
    [ -e "${f}" ] || continue
    cp "${f}" "${OUT_DIR}/BENCH_q21.trace.json"
    echo "wrote ${OUT_DIR}/BENCH_q21.trace.json"
  done
  for f in "${TRACE_DIR}"/*.timeline.txt; do
    [ -e "${f}" ] || continue
    cp "${f}" "${OUT_DIR}/BENCH_q21.timeline.txt"
    echo "wrote ${OUT_DIR}/BENCH_q21.timeline.txt"
  done
  # EXPLAIN ANALYZE: the traced run profiles every operator, so the engine
  # drops <job>-<n>.profile.{json,txt} next to the trace. Publish them and
  # fail loudly if the per-operator contract (DESIGN.md §13) loses fields.
  PROFILE_JSON=""
  for f in "${TRACE_DIR}"/*.profile.json; do
    [ -e "${f}" ] || continue
    PROFILE_JSON="${OUT_DIR}/BENCH_profile.json"
    cp "${f}" "${PROFILE_JSON}"
    echo "wrote ${PROFILE_JSON}"
  done
  for f in "${TRACE_DIR}"/*.profile.txt; do
    [ -e "${f}" ] || continue
    cp "${f}" "${OUT_DIR}/BENCH_profile.txt"
    echo "wrote ${OUT_DIR}/BENCH_profile.txt"
  done
  if [ -z "${PROFILE_JSON}" ]; then
    echo "error: traced bench_q21_breakdown wrote no .profile.json" >&2
    exit 1
  fi
  python3 - "${PROFILE_JSON}" <<'EOF'
import json
import sys

path = sys.argv[1]
data = json.loads(open(path).read())
missing = [k for k in ("wall_seconds", "profiled_span_seconds",
                       "first_start_us", "last_end_us", "operators", "roots")
           if k not in data]
node_fields = ("name", "kind", "rows_in", "rows_out", "selectivity",
               "batches", "wall_ns", "wall_max_ns", "cpu_ns", "bytes_decoded",
               "bytes_raw", "blocks_skipped", "rows_pruned",
               "blocks_by_encoding", "mem_current_bytes", "mem_peak_bytes",
               "tasks", "children")
kinds = set()

def walk(node, trail):
    kinds.add(node.get("kind", ""))
    for field in node_fields:
        if field not in node:
            missing.append(f"{trail}.{field}")
    sel = node.get("selectivity")
    if sel is not None and not 0.0 <= sel <= 1.0:
        sys.exit(f"error: {path}: {trail} selectivity {sel} outside [0,1]")
    for child in node.get("children", []):
        walk(child, f"{trail}>{child.get('name', '?')}")

for root in data.get("roots", []):
    walk(root, root.get("name", "?"))
if missing:
    sys.exit(f"error: {path} lacks profile fields: {', '.join(missing)}")
for kind in ("scan", "probe", "aggregate"):
    if kind not in kinds:
        sys.exit(f"error: {path} has no '{kind}' operator in the plan tree")
print(f"{path}: {data['operators']} operators, "
      f"profiled span {data['profiled_span_seconds']:.3f}s "
      f"of {data['wall_seconds']:.3f}s wall")
EOF
fi
