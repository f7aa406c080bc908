#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload <cold-plan|exec-heavy|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The script builds the benchmark binary
panda-perfbench (perfbench/driver, a cargo package of its own) and the
panda-server binary in release mode, into $CARGO_TARGET_DIR (default
.bench_build), then runs panda-perfbench in a fresh process with the PANDA_*
knobs removed from its environment, so the program runs in its defaults.
It prints the build environment, the benchmark's report, and as the last
line its JSON result.  With --trace 1 panda-perfbench also writes its
spans, one JSON object a line, to
<target dir>/perfbench/trace-<workload>-<seed>.jsonl.

Exits non-zero without a result when the sources are missing, a build fails,
panda-perfbench fails, or the run exceeds RUN_TIMEOUT_S.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_MANIFEST = ROOT / "perfbench" / "driver" / "Cargo.toml"
WORKLOADS = ("cold-plan", "exec-heavy", "serve-mixed")
PANDA_ENV = ("PANDA_THREADS", "PANDA_LAYOUT", "PANDA_PLAN_CACHE")
# The bound on one run; builds are not counted.  A run whose requests hang
# past their per-request timeouts is killed here, with every process it
# started.
RUN_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 840


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(env):
    """Builds panda-perfbench and panda-server; their output goes to stderr."""
    for command in (
        ["cargo", "build", "--release", "--offline", "--manifest-path", str(BENCH_MANIFEST)],
        ["cargo", "build", "--release", "--offline", "-p", "panda-server", "--bin", "panda-server"],
    ):
        try:
            done = subprocess.run(command, cwd=ROOT, env=env, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(command)}", 3)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(command)}", 3)


def environment(env):
    rustc = subprocess.run(["rustc", "-V"], env=env, capture_output=True, text=True).stdout
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rustc": rustc.strip(),
        "profile": "release",
        "defaults": "engine=sequential layout=row-major plan_cache=on",
        "removed_env": list(PANDA_ENV),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "server").is_dir():
        fail(f"no panda sources at {ROOT}: run from the root of a checkout", 2)

    env = {k: v for k, v in os.environ.items() if k not in PANDA_ENV}
    target = Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    target = target if target.is_absolute() else ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    build(env)

    print("environment: " + json.dumps(environment(env)), flush=True)
    command = [
        str(target / "release" / "panda-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--server", str(target / "release" / "panda-server"),
    ]
    if args.trace:
        trace_dir = target / "perfbench"
        trace_dir.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_dir / f"trace-{args.workload}-{args.seed}.jsonl")]

    # A session of its own, so a timeout kills panda-perfbench and the server it
    # started together.
    bench = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        out, _ = bench.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(bench.pid, signal.SIGKILL)
        bench.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    finally:
        try:
            os.killpg(bench.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if bench.returncode != 0:
        fail(f"panda-perfbench exited with {bench.returncode}", 5)
    lines = out.rstrip("\n").splitlines()
    try:
        json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail("panda-perfbench printed no result", 5)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
