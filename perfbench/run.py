#!/usr/bin/env python3
"""Repository benchmark: build perfbench/ against src/ and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first run configures and builds an optimized binary under
.bench_build/ (or $CARGO_TARGET_DIR); later runs reuse it.

A run with --trace 0 splits its seconds over PROCESSES[workload] fresh
processes of the binary, each with its own set-up, and reports every
end-to-end metric as the median over them: on a shared host the level a
process settles at (memory placement, where its threads land) varies more
than anything inside one process, and a median over processes is what
steadies it.
setup_s is then the median of their set-ups.  A run with --trace 1 is
one process over the whole run.

Every binary prints a detail record line; the last line of standard
output is the result object {"correct", "attempted", "failed",
"metrics"}.  Workloads, metrics and bounds are listed in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build_cold", "edit_cycle", "eval_grid", "serve_mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170  # all processes of one run together
# Fresh processes per untraced run.  eval_grid's operations (slices of the
# grid, about 0.3 s) and serve_mixed's requests leave each of five
# processes many samples; a build or an edit cycle with its untimed
# check takes about 1.5 s, so those workloads give three processes a
# third of the run each.
PROCESSES = {"build_cold": 3, "edit_cycle": 3, "eval_grid": 5, "serve_mixed": 5}
# Detail fields that depend only on the seed: every process of a run must
# report the same value (eval_grid's sweep_digest is that of slice 0, which
# every process sweeps first).
SEED_DIGESTS = ("artifact_digest", "sweep_digest")


def fail(message, code=2):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}", 1)
    if done.returncode != 0:
        fail(f"failed ({done.returncode}): {' '.join(cmd)}", 1)


def build(build_dir):
    """Configure (once) and build the perfbench target; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a full repository checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        run_quiet(cmd, BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
              BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def source_digest():
    """sha256 over every file the binary is built from."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")) or shutil.which("git") is None:
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
    except subprocess.TimeoutExpired:
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def valid_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return False
    return (isinstance(result, dict)
            and set(result) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and isinstance(result["metrics"], dict) and result["metrics"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be in [1, 60]")

    root = build_root()
    binary = build(os.path.join(root, "perfbench"))
    stamp = ["--git-sha", git_sha(), "--source-digest", source_digest()]
    processes = 1 if args.trace else PROCESSES[args.workload]
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results = []
    for part in range(processes):
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / processes), "--trace", str(args.trace),
               "--part", str(part)]
        cmd += stamp
        if args.trace:
            trace_dir = os.path.join(root, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            cmd += ["--trace-out", os.path.join(trace_dir, f"{args.workload}.json")]
        results.append(run_once(cmd, root, args.workload, part, deadline))

    for lines, _ in results:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
    final = results[0][1]
    if processes > 1:
        digests_agree = [digests_agree_across(results, key) for key in SEED_DIGESTS
                         if key in detail_of(results[0][0])]
        final = {
            "correct": all(r["correct"] for _, r in results) and all(digests_agree),
            "attempted": sum(r["attempted"] for _, r in results) + len(digests_agree),
            "failed": (sum(r["failed"] for _, r in results)
                       + digests_agree.count(False)),
            "metrics": {
                name: {"value": statistics.median(r["metrics"][name]["value"]
                                                  for _, r in results),
                       "unit": metric["unit"]}
                for name, metric in final["metrics"].items()},
        }
    sys.stdout.write(json.dumps(final) + "\n")


def detail_of(lines):
    """The detail object of a process's record line."""
    for line in lines:
        if line.startswith('{"record":'):
            return json.loads(line)["record"]["detail"]
    fail("no record line in the benchmark's output", 1)


def digests_agree_across(results, key):
    values = {detail_of(lines).get(key) for lines, _ in results}
    if len(values) != 1:
        print(f"perfbench/run.py: {key} differs between processes: {sorted(map(str, values))}",
              file=sys.stderr)
    return len(values) == 1


def run_once(cmd, root, workload, part, deadline):
    """Run the binary once in a fresh work directory; returns its output
    lines and parsed result, or fails without printing a result."""
    work_dir = os.path.join(root, "work", f"{workload}-{os.getpid()}-{part}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    timeout = max(1.0, deadline - time.monotonic())
    try:
        done = subprocess.run(cmd + ["--work-dir", work_dir], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not valid_result(lines[-1]):
        sys.stderr.write(done.stdout)
        fail(f"{workload} failed (exit {done.returncode})", 1)
    return lines, json.loads(lines[-1])


if __name__ == "__main__":
    main()
