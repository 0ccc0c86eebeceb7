#!/usr/bin/env python3
"""Build and run the cloudlens benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark and the library it links into .bench_build/ (a Release build);
later runs rebuild only what changed. The last line of standard output is
the result: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics of BENCHMARK.json when --trace is 0 and its per-layer
metrics when --trace is 1. The line before it is the run's provenance.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    binary = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")
    return binary


def source_id():
    """Git commit when available, else a digest of the sources built."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for folder, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}", 2)
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the cloudlens sources (src/) are not beside perfbench/", 2)

    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    binary = build(env)

    work = os.path.join(BUILD, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--work-dir", work,
               "--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json"),
               "--source-id", source_id()]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode}", done.returncode)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    raw = json.loads(lines[-1])

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    unknown = sorted(set(raw["metrics"]) - set(units))
    if unknown:
        fail(f"metrics not declared in BENCHMARK.json: {unknown}")
    missing = [name for name in units if name not in raw["metrics"]]
    if missing and not args.trace:
        fail(f"end-to-end metrics not measured: {missing}")
    if missing:
        # A layer this workload never calls reads 0.
        print("not exercised on this workload: " + " ".join(missing))
    metrics = {name: {"value": raw["metrics"].get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    attempted, failed = raw["attempted"], raw["failed"]
    print("provenance: " + json.dumps(raw["provenance"]))
    print(json.dumps({"correct": attempted >= 1 and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
