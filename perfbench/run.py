#!/usr/bin/env python3
"""Builds and runs the klest benchmark for one workload.

Run from the repository root:

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 20 --trace 0

Builds the benchmark package (``perfbench/Cargo.toml``) and the release
``klest`` CLI offline into ``$CARGO_TARGET_DIR`` (default ``.bench_build``),
then runs ``perfbench`` in a scratch directory under ``.bench_run/`` that is
removed afterwards. The last line of standard output is the run's JSON
result; build output goes to standard error. Traced runs (``--trace 1``)
leave their spans in ``.bench_run/traces/``.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("table1", "hier-eco", "serve-mix")
BUILD_TIMEOUT_S = 800
# A run's time beyond its measured phase: set-up, table1's cold build (a
# second one when traced) and the output checks.
RUN_MARGIN_S = 140


def build(env):
    for manifest, extra in (("perfbench/Cargo.toml", []), ("Cargo.toml", ["-p", "klest-cli"])):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, *extra]
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"run.py: `{' '.join(cmd)}` failed with code {done.returncode}")


def stop_group(pgid):
    """Kills what is left of the run's process group (a daemon that
    outlived a crashed run) and waits until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not os.path.isfile(os.path.join("perfbench", "Cargo.toml")):
        sys.exit("run.py: run from the repository root")

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    try:
        build(env)
    except (OSError, subprocess.TimeoutExpired) as e:
        sys.exit(f"run.py: build failed: {e}")
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    run_dir = os.path.join(".bench_run", f"{args.workload}-{os.getpid()}")
    trace_out = os.path.join(".bench_run", "traces", f"{args.workload}-seed{args.seed}.jsonl")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--klest", os.path.join(release, "klest"),
        "--run-dir", run_dir,
        "--trace-out", trace_out,
    ]
    timeout = args.seconds + RUN_MARGIN_S
    # Its own process group, so a timeout can stop the daemon it starts too.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: {args.workload} exceeded {timeout:g} s", file=sys.stderr)
        code = 124
    finally:
        stop_group(proc.pid)
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
