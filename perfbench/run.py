#!/usr/bin/env python3
"""Builds the benchmark from the checkout's sources and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <purdue|enterprise> \
        --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/perfbench-<hash of the checkout's path>
(default under .bench_build/) and is incremental after the first run. Spills
go to a work directory under .bench_work/ that the benchmark removes when it
ends. The last line of standard output is the result object; build output
goes to standard error.
Exits non-zero, without a result line, when the build or the run fails.
"""

import argparse
import fcntl
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("purdue", "enterprise")
RUN_TIMEOUT_S = 170


def build(bench_dir: Path, build_dir: Path, env: dict) -> Path:
    build_dir.mkdir(parents=True, exist_ok=True)
    binary = build_dir / "perfbench"
    # One build at a time per build directory.
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        # Configured on every call: cheap when the cache is current, and it
        # fails, rather than building other sources, on a cache that another
        # source directory made.
        configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env)
        subprocess.run(["cmake", "--build", str(build_dir), "--target",
                        "perfbench", "-j", "4"], check=True, stdout=sys.stderr,
                       env=env)
    return binary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = Path(__file__).resolve().parent
    root = bench_dir.parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    # Compiler temporaries stay inside the checkout too.
    tmp = target / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    # Each checkout gets its own build directory, so checkouts that share a
    # CARGO_TARGET_DIR never build or measure one another's sources.
    tag = hashlib.sha256(str(root).encode()).hexdigest()[:12]
    try:
        binary = build(bench_dir, target / f"perfbench-{tag}", env)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(work), "--inputs", str(bench_dir / "inputs")]
    try:
        # run() kills and reaps the child when the timeout expires.
        done = subprocess.run(cmd, cwd=root, timeout=RUN_TIMEOUT_S, env=env,
                              stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        print(f"perfbench: run failed with code {done.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
