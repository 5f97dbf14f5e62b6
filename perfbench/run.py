#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload cg --seed 1 --seconds 20 --trace 0

Configures and builds perfbench/CMakeLists.txt (Release, asserts on) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; a rebuild of an up-to-date tree is a no-op. Build output goes to
stderr. Then runs the harness, whose last stdout line is the result JSON.
Exits non-zero, without a result, when the simulator sources are missing,
the build fails or the harness fails.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
WORKLOADS = ("cg", "stream", "sg_hybrid", "paper12")
# A run measures for --seconds (at most 60) and finishes its last round;
# the slowest round is a few seconds, a traced one about twice that.
HARNESS_TIMEOUT_S = 170


def build_dir() -> Path:
    return REPO / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build() -> Path:
    if not (REPO / "src" / "system" / "system.hpp").is_file():
        sys.exit("perfbench: simulator sources not found under "
                 f"{REPO / 'src'}; run from a full checkout")
    bdir = build_dir()
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs], check=True,
                   stdout=sys.stderr)
    return bdir


def source_sha256() -> str:
    """Content hash of the simulator and benchmark sources; identifies the
    code a run measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((REPO / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(REPO)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str:
    if not (REPO / ".git").exists():
        return "none (not a git checkout)"
    res = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be 1..60")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        bdir = build()
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 1
    cmd = [str(bdir / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(), "--source-sha", source_sha256()]
    if args.trace:
        cmd += ["--spans-out",
                str(bdir / f"spans-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        res = subprocess.run(cmd, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    return res.returncode


if __name__ == "__main__":
    sys.exit(main())
