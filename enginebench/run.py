#!/usr/bin/env python3
"""Build and run the engine benchmark.

    python3 enginebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 enginebench/run.py --selftest

Run from the repository root. The engine is built from ./src into
$CARGO_TARGET_DIR/enginebench (default .bench_build/enginebench) with the
repository's default Release flags; an up-to-date build is a no-op. The
benchmark binary prints its provenance, per-repetition funnel and, as the
last stdout line, one JSON object {correct, attempted, failed, metrics}.
--selftest builds and runs the tests of the benchmark's own arithmetic.

Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 700


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(target):
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "enginebench")
    steps = []
    # The generator's build file is written last, so a configure that failed
    # part-way is run again.
    if not os.path.exists(os.path.join(build_dir, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", target,
                  "-j", str(max(1, min(4, os.cpu_count() or 1)))])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if proc.returncode != 0:
            log("enginebench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, target)


def git_sha():
    """HEAD of the repository at ROOT; "unknown" in an exported tree."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    out = top.stdout.split()
    if top.returncode != 0 or len(out) != 2 or os.path.realpath(out[0]) != os.path.realpath(ROOT):
        return "unknown"
    return out[1]


def check_result(line):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected result keys")
    for name, m in result["metrics"].items():
        if sorted(m) != ["unit", "value"] or not isinstance(m["value"], (int, float)):
            raise ValueError("malformed metric " + name)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    try:
        if args.selftest:
            exe = build("enginebench_tests")
            return 1 if exe is None else subprocess.run([exe], timeout=RUN_TIMEOUT_S).returncode
        if None in (args.workload, args.seed, args.seconds, args.trace):
            ap.error("--workload, --seed, --seconds and --trace are required")
        exe = build("enginebench")
        if exe is None:
            return 1
        cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git-sha", git_sha()]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        # subprocess.run kills and reaps the child on timeout before raising.
        log("enginebench: " + str(e))
        return 1
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        if proc.returncode != 0:
            raise ValueError("exit code %d" % proc.returncode)
        check_result(lines[-1])
    except ValueError as e:
        # No result on stdout for a failed run; its output goes to stderr.
        sys.stderr.write(proc.stdout)
        log("enginebench: run failed: %s" % e)
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
