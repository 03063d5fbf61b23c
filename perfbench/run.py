#!/usr/bin/env python3
"""Build and run the pfrdtn end-to-end benchmark.

One run of one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload emu_epidemic --seed 4 \
        --seconds 20 --trace 0

builds perfbench/ in Release (once; later runs rebuild incrementally),
prints a provenance line, then the run's own output, and as the last
line of stdout one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer one. Exits non-zero when
an output check fails or nothing can be built.

Other modes:

    python3 perfbench/run.py --self-test
        feed every output check a deliberately wrong result
    python3 perfbench/run.py --steadiness
        two separate sets of ten runs of every workload, each run with
        its own seed; prints per metric the median and quartiles of each
        set and whether the sets agree within BENCHMARK.json's bounds

Run it from the root of a checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(BENCH_DIR, "build")
WORK_DIR = os.path.join(BENCH_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# Runs of each workload in one set of --steadiness.
STEADINESS_RUNS = 10


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as error:
        fail(f"cannot read {path}: {error}")


def cache_value(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def build():
    """Configure (once) and build perfbench in Release."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    build_type = cache_value("CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail(f"{BUILD_DIR} is configured as '{build_type or 'unset'}', not "
             "Release; numbers from other build types are not comparable. "
             "Remove the directory to reconfigure.")
    jobs = str(os.cpu_count() or 1)
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr)
    if result.returncode != 0:
        fail("build failed")


def first_line(command):
    try:
        out = subprocess.run(command, capture_output=True, text=True,
                             timeout=30)
        return out.stdout.strip().splitlines()[0] if out.stdout else ""
    except (OSError, subprocess.SubprocessError, IndexError):
        return ""


def source_digest():
    """sha256 over the library and benchmark sources (a checkout need
    not be a git repository)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench/src", "perfbench/CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def filesystem_of(path):
    """Type of the mount holding `path`, from /proc/self/mounts."""
    path = os.path.realpath(path)
    best, fs_type = "", "unknown"
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                fields = line.split()
                mount = fields[1].replace("\\040", " ")
                inside = path == mount or path.startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best):
                    best, fs_type = mount, fields[2]
    except OSError:
        pass
    return fs_type


def provenance():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        commit = first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    compiler = cache_value("CMAKE_CXX_COMPILER")
    return {
        "commit": commit or "unknown (not a git checkout)",
        "source_digest": source_digest(),
        "compiler": f"{compiler} {first_line([compiler, '--version'])}"
                    if compiler else "unknown",
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "state_dir_fs": filesystem_of(WORK_DIR),
    }


def expected_metrics(spec, trace):
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def cpu_times():
    """The host's aggregate CPU time counters (/proc/stat)."""
    try:
        with open("/proc/stat") as f:
            return [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def steal_share(before, after):
    """Share of the host's CPU time the hypervisor took between two
    readings: the workloads' figures track it (see README.md)."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if len(delta) > 7 and total else 0.0


def run_once(spec, workload, seed, seconds, trace, echo):
    """Run the binary once; returns (exit code, result dict or None, the
    host's steal share during the run)."""
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", WORK_DIR]
    before = cpu_times()
    proc = subprocess.run(command, stdout=subprocess.PIPE,
                          stderr=None if echo else subprocess.DEVNULL,
                          text=True)
    steal = steal_share(before, cpu_times())
    if echo:
        print(f"host: steal {steal:.3f} of CPU time during the run",
              file=sys.stderr)
    lines = proc.stdout.strip().splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if result is None:
        return (proc.returncode or 1), None, steal
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(spec, trace)
    if got != want:
        print("perfbench: printed metrics do not match BENCHMARK.json: "
              f"missing {sorted(set(want) - set(got))}, "
              f"unexpected {sorted(set(got) - set(want))}, "
              f"units {[n for n in want if n in got and got[n] != want[n]]}",
              file=sys.stderr)
        return 1, None, steal
    return proc.returncode, result, steal


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(spec):
    """Two sets of runs of every workload, one after the other; each run
    its own seed."""
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sets = []
    steals = []
    for set_index in range(2):
        per_workload = {}
        steal_by_workload = {}
        for workload in workloads:
            samples = []
            steal_by_workload[workload] = []
            for i in range(STEADINESS_RUNS):
                seed = 1 + set_index * 1000 + i
                started = time.monotonic()
                code, result, steal = run_once(spec, workload, seed,
                                               seconds, False, False)
                took = time.monotonic() - started
                if result is None or code != 0 or not result["correct"]:
                    fail(f"set {set_index + 1} {workload} seed {seed}: "
                         f"run failed (exit {code})")
                print(f"set {set_index + 1} {workload:14s} seed {seed:5d} "
                      f"{took:6.1f} s  attempted {result['attempted']} "
                      f"failed {result['failed']}  host steal {steal:.3f}",
                      flush=True)
                samples.append(result)
                steal_by_workload[workload].append(steal)
            per_workload[workload] = samples
        sets.append(per_workload)
        steals.append(steal_by_workload)

    ok = True
    print()
    print(f"{'workload':14s} {'metric':22s} {'set':>3s} {'q1':>12s} "
          f"{'median':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s} verdict")
    for workload in workloads:
        shares = []
        for per_workload in sets:
            attempted = sum(r["attempted"] for r in per_workload[workload])
            failed = sum(r["failed"] for r in per_workload[workload])
            shares.append(failed / attempted)
        if shares[0] != shares[1]:
            ok = False
            print(f"{workload}: failed share differs: {shares}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for set_index, per_workload in enumerate(sets):
                values = [r["metrics"][name]["value"]
                          for r in per_workload[workload]]
                q1, q2, q3 = quartiles(values)
                spread = (q3 - q1) / q2 if q2 else float("inf")
                medians.append(q2)
                verdict = "ok"
                if spread > bound:
                    verdict, ok = "SPREAD > BOUND", False
                elif spread > bound / 3:
                    verdict = "spread > bound/3"
                print(f"{workload:14s} {name:22s} {set_index + 1:3d} "
                      f"{q1:12.6g} {q2:12.6g} {q3:12.6g} {spread:7.3f} "
                      f"{bound:6.3f} {verdict}")
            worse = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                worse = -worse
            # Two sets of the same code agree only if neither median
            # strays from the other by more than the bound.
            agree = abs(worse) <= bound
            ok = ok and agree
            print(f"{workload:14s} {name:22s} second median vs first: "
                  f"{worse:+.3f} {'agrees' if agree else 'DISAGREES'}")
    os.makedirs(WORK_DIR, exist_ok=True)
    with open(os.path.join(WORK_DIR, "steadiness.json"), "w") as f:
        json.dump({"provenance": provenance(), "sets": sets,
                   "host_steal": steals}, f)
    print("steadiness:", "the two sets agree" if ok else "NOT STEADY")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    build()
    os.makedirs(WORK_DIR, exist_ok=True)
    if args.self_test:
        return subprocess.run([BINARY, "--self-test", "--work-dir",
                               WORK_DIR]).returncode
    if args.steadiness:
        return steadiness(spec)
    if not args.workload:
        parser.error("--workload, --self-test or --steadiness is required")

    print("provenance: " + json.dumps(provenance()), flush=True)
    seconds = args.seconds if args.seconds else spec["run_seconds"]
    code, result, _ = run_once(spec, args.workload, args.seed, seconds,
                               args.trace == 1, True)
    if result is None:
        return code or 1
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
