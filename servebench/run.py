#!/usr/bin/env python3
"""Builds and runs the serving-path benchmark (servebench/README.md).

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run builds the ppanns
library, ppanns_shard_server and the servebench binary into .bench_build/
(Release); later runs only rebuild what changed. Scratch files (the package
file, span traces) go to .bench_out/.

--workload all runs every workload in BENCHMARK.json in turn and exits
non-zero if any of them fails a correctness gate.

The last line of standard output is the result of the (last) workload:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it records the host, seed and source revision.
"""

import argparse
import fcntl
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=2):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        deadline = time.monotonic() + BUILD_TIMEOUT_S
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(ROOT, "servebench"), "-B",
                          BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                      "servebench", "ppanns_shard_server"])
        for step in steps:
            left = deadline - time.monotonic()
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr, timeout=max(left, 1))
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                fail("build failed: " + " ".join(step))
    server = os.path.join(BUILD_DIR, "ppanns", "ppanns_shard_server")
    bench_bin = os.path.join(BUILD_DIR, "servebench")
    for path in (server, bench_bin):
        if not os.access(path, os.X_OK):
            fail("build produced no " + path)
    return bench_bin, server


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git commit when the checkout is a repository, else a hash of the
    sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools", "servebench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()


def run_workload(bench_bin, server, spec, name, seed, seconds, trace, host):
    """Runs one workload; returns (exit code, host line, result line)."""
    cmd = [bench_bin, "--workload", name, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--server-bin", server,
           "--work-dir", OUT_DIR]
    # Own process group: a timeout kills servebench and every shard server.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload %s exceeded %d s" % (name, RUN_TIMEOUT_S), 3)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 2:
        fail("workload %s exited with %d" % (name, proc.returncode),
             proc.returncode or 2)
    host_line = json.loads(lines[-2])
    host_line["host"].update(host)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line: " + lines[-1])
    wanted = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(wanted):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(wanted)))
    return proc.returncode, json.dumps(host_line), lines[-1]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no ppanns sources next to servebench/ (expected CMakeLists.txt "
             "and src/ in %s)" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in names for w in workloads):
        fail("unknown workload %r (have: %s)" % (args.workload,
                                                 ", ".join(names)))

    bench_bin, server = build()
    os.makedirs(OUT_DIR, exist_ok=True)
    host = {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "git_commit": source_revision()}
    worst = 0
    for name in workloads:
        code, host_line, result_line = run_workload(
            bench_bin, server, spec, name, args.seed, args.seconds, args.trace,
            host)
        print(host_line)
        print(result_line, flush=True)
        worst = max(worst, code)
    sys.exit(worst)


if __name__ == "__main__":
    main()
