#!/usr/bin/env bash
# Runs every google-benchmark micro suite and merges the JSON outputs into
# one BENCH_micro.json: benchmark name -> { rows_per_sec, wall_seconds }.
#
# Usage: run_benches.sh [bench_dir] [output_json]
#   bench_dir    directory holding the bench_micro_* binaries
#                (default: build/bench relative to the repo root)
#   output_json  merged output path (default: BENCH_micro.json in $PWD)
#
# CLY_BENCH_SF scales the measurement dataset for the engine suite; the
# bench_smoke CMake target pins it to 0.01 for a fast smoke pass.

set -euo pipefail

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
