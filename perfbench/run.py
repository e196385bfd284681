#!/usr/bin/env python3
"""Perf-ledger benchmark entry point.

Run from the repository root:

    python3 perfbench/run.py --workload collapsed_1e9_k27 --seed 1 --seconds 30 --trace 0

Builds libppsim and the perfbench binary from source (Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), prints the
source fingerprint, then runs one workload. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 1 the metrics are the per-layer ones and a Chrome trace-event file is
written under <build>/traces/. --break-input truncates one archive and one
cached cell record, so the output checks must report failures.

Exits non-zero without printing a result when the library sources are
missing, the build fails, or the run fails or overruns.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("collapsed_1e9_k27", "sequential_1e6_k27", "sweep_grid")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def source_fingerprint(root, bench_dir):
    """git SHA when the root is a git checkout, plus a digest of the sources
    the benchmark builds from (an exported tree carries no .git)."""
    sha = "none"
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    files = [root / "CMakeLists.txt"]
    for base in (root / "src", bench_dir):
        files += [p for p in base.rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return sha, digest.hexdigest()[:16]


def fixed_layout_prefix():
    """`setarch <arch> -R`: runs the binary with address-space randomization
    off, so code and data land at the same addresses in every run. Layout
    alone moved run medians by about 5% on the reference host."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return []
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], capture_output=True, check=False)
    return prefix if probe.returncode == 0 else []


def build(bench_dir, build_dir):
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(bench_dir), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return build_dir / "perfbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--break-input", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    if not (root / "CMakeLists.txt").is_file() or \
            not (root / "src" / "include" / "ppsim").is_dir():
        return fail("ppsim sources not found; run from the repository root")

    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        exe = build(bench_dir, build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        return fail(f"build failed: {e}")

    sha, digest = source_fingerprint(root, bench_dir)
    work_dir = build_dir / "work" / f"{args.workload}-{os.getpid()}"
    trace_dir = build_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    prefix = fixed_layout_prefix()
    cmd = prefix + [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir),
           "--trace-file", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    if args.break_input:
        cmd.append("--break-input")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return fail(f"perfbench exited with {proc.returncode}", proc.returncode)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != RESULT_KEYS:
            raise ValueError(f"result keys {sorted(result)}")
    except ValueError as e:
        return fail(f"malformed result line: {e}", 1)
    print(f"source: git {sha}, sha256 {digest}; "
          f"address randomization {'off' if prefix else 'on'}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
