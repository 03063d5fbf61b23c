#!/usr/bin/env bash
# Run every figure bench (build/bench/*, the paper's evaluation driven
# through the emulator) and write BENCH_emulation.json: per bench the
# wall time, the one-way syncs it made and syncs per second, and a
# sha256 of its stdout. The digests prove a change left every figure
# byte-identical; the wall times say what it cost.
#
# Only Release builds are accepted (see tools/bench_substrate.sh):
#   cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release
#   cmake --build build-release -j
# At paper scale the whole set takes minutes; PFRDTN_BENCH_SCALE
# (0 < scale < 1) shrinks every figure for a quick run, and the scale
# is recorded in the output.
#
# Usage: tools/bench_emulation.sh [--compare BASE.json] [output.json]
#   --compare BASE.json  after writing, compare with an earlier run
#                        (e.g. of the merge-base): print each bench's
#                        wall-time ratio and exit 1 if any stdout digest
#                        differs or a bench is missing from either run
#   BUILD_DIR=...        build tree holding bench/ (default:
#                        <repo>/build-release)
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="${BUILD_DIR:-$ROOT/build-release}"
COMPARE=""
OUT="$ROOT/BENCH_emulation.json"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --compare)
      [[ $# -ge 2 ]] || { echo "error: --compare needs a file" >&2; exit 2; }
      COMPARE="$2"
      shift 2
      ;;
    -*)
      echo "usage: $0 [--compare BASE.json] [output.json]" >&2
      exit 2
      ;;
    *)
      OUT="$1"
      shift
      ;;
  esac
done
if [[ -n "$COMPARE" && ! -r "$COMPARE" ]]; then
  echo "error: cannot read $COMPARE" >&2
  exit 2
fi

CACHE="$BUILD/CMakeCache.txt"
BUILD_TYPE="$(sed -n 's/^CMAKE_BUILD_TYPE:[^=]*=//p' "$CACHE" 2>/dev/null | head -1)"
if [[ "$BUILD_TYPE" != "Release" ]]; then
  echo "error: $BUILD is built as '${BUILD_TYPE:-unset}', not Release" >&2
  echo "  cmake -B $BUILD -S $ROOT -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD -j" >&2
  exit 1
fi

BENCHES=()
for bin in "$BUILD"/bench/*; do
  name="$(basename "$bin")"
  # micro_substrate is a google-benchmark binary, measured by
  # tools/bench_substrate.sh; everything else prints a figure.
  [[ -x "$bin" && "$name" != micro_substrate ]] && BENCHES+=("$name")
done
if [[ ${#BENCHES[@]} -eq 0 ]]; then
  echo "error: no figure benches under $BUILD/bench" >&2
  exit 1
fi

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
for name in "${BENCHES[@]}"; do
  start="$(date +%s.%N)"
  "$BUILD/bench/$name" \
    > "$TMP/$name.out" 2> "$TMP/$name.err"
  end="$(date +%s.%N)"
  echo "$start $end" > "$TMP/$name.time"
  echo "$name: $(awk '{printf "%.2f s", $2 - $1}' "$TMP/$name.time")" >&2
done

python3 - "$TMP" "$OUT" "$COMPARE" "$BUILD" "${BENCHES[@]}" << 'PY'
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

tmp, out, compare, build, *benches = sys.argv[1:]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit():
    """HEAD of the checkout the build tree sits in, "+dirty" when the
    working tree differs from it."""
    def git(*args):
        return subprocess.run(
            ["git", "-C", os.path.dirname(build), *args],
            capture_output=True, text=True, check=True).stdout.strip()
    try:
        head = git("rev-parse", "HEAD")
        return head + ("+dirty" if git("status", "--porcelain") else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


results = {}
for name in benches:
    with open(f"{tmp}/{name}.out", "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    with open(f"{tmp}/{name}.time") as f:
        start, end = (float(x) for x in f.read().split())
    with open(f"{tmp}/{name}.err", errors="replace") as f:
        found = re.findall(r"^syncs=(\d+)$", f.read(), re.M)
    wall = end - start
    syncs = int(found[-1]) if found else None
    results[name] = {
        "wall_s": round(wall, 3),
        "syncs": syncs,
        "syncs_per_s": round(syncs / wall, 1) if syncs and wall > 0 else None,
        "stdout_sha256": digest,
    }

report = {
    "host": {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "build_type": "Release",
        "commit": commit(),
    },
    "scale": os.environ.get("PFRDTN_BENCH_SCALE", "1"),
    "benches": results,
}
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"wrote {out}", file=sys.stderr)

if compare:
    with open(compare) as f:
        base = json.load(f)
    failures = []
    if base.get("scale") != report["scale"]:
        failures.append(f"scale differs: {base.get('scale')} vs "
                        f"{report['scale']}")
    base_benches = base.get("benches", {})
    print(f"{'bench':24} {'base s':>9} {'this s':>9} {'speedup':>8}  stdout")
    for name in sorted(set(base_benches) | set(results)):
        if name not in base_benches or name not in results:
            failures.append(f"{name}: missing from "
                            f"{'base' if name not in base_benches else 'this run'}")
            continue
        a, b = base_benches[name], results[name]
        same = a["stdout_sha256"] == b["stdout_sha256"]
        if not same:
            failures.append(f"{name}: stdout digest differs")
        speedup = a["wall_s"] / b["wall_s"] if b["wall_s"] > 0 else float("inf")
        print(f"{name:24} {a['wall_s']:9.2f} {b['wall_s']:9.2f} "
              f"{speedup:7.2f}x  {'same' if same else 'DIFFERS'}")
    for line in failures:
        print("compare:", line, file=sys.stderr)
    sys.exit(1 if failures else 0)
PY
