#!/usr/bin/env python3
"""Build and run the knnta serving benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the benchmark package in
perfbench/ (release, offline) into $CARGO_TARGET_DIR (default .bench_build),
then runs one workload in its own process and passes its output through: the
last line of standard output is the result object. `--workload all` runs every
workload, each in its own process, one after another. Traced runs write their
spans under <target dir>/perfbench-out/. perfbench/README.md describes the
workloads and metrics.

While a workload runs, one idle-priority (SCHED_IDLE) spinner per core keeps
idle cores from halting: on a virtual machine, waking a halted vCPU costs the
host's scheduling delay, which made low-rate latency unreproducible. The
spinners run only when no other thread is runnable, so they take no CPU time
from the program under test.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ["serve_hotspot", "serve_mixed", "live_ingest"]
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def command_output(cmd, cwd):
    # Keep git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(cwd))
    try:
        out = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def build(root, target_dir):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(root, "perfbench", "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    try:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target_dir, "release", "knnta-perfbench")


# Spins at idle priority until its parent goes away.
SPINNER = (
    "import os\n"
    "parent = os.getppid()\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(100000):\n"
    "        pass\n"
)


def start_spinners():
    if not hasattr(os, "SCHED_IDLE"):
        return []
    return [
        subprocess.Popen([sys.executable, "-c", SPINNER], stdin=subprocess.DEVNULL)
        for _ in range(os.cpu_count() or 1)
    ]


def stop(procs):
    for p in procs:
        if p.poll() is None:
            p.kill()
    for p in procs:
        p.wait()


def run_one(binary, root, target_dir, workload, args, meta):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", os.path.join(target_dir, "perfbench-out"),
    ]
    for key, value in meta:
        cmd += ["--meta", f"{key}={value}"]
    sys.stdout.flush()
    spinners = start_spinners()
    proc = None
    try:
        proc = subprocess.Popen(cmd, cwd=root)
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        stop(spinners + ([proc] if proc else []))


def main():
    # On SIGTERM, unwind so every child process is stopped and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not 0 < args.seconds <= 600:
        parser.error("--seconds must be in (0, 600]")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, target_dir)
    if binary is None:
        return 1
    meta = [
        ("nproc", str(os.cpu_count())),
        ("rustc", command_output(["rustc", "--version"], root) or "unknown"),
        ("git_sha", command_output(["git", "rev-parse", "HEAD"], root) or "unknown (not a git checkout)"),
    ]
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    codes = [run_one(binary, root, target_dir, w, args, meta) for w in workloads]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
