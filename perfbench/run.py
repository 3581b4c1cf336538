#!/usr/bin/env python3
"""Builds the acbench driver from this checkout's sources and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build lands in .bench_build/perfbench under the checkout root (or under
$CARGO_TARGET_DIR when set) and is incremental. Build output goes to stderr,
so the last line of stdout is always acbench's JSON result. The exit code is
acbench's: non-zero when the build fails or any answer was wrong.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bulk_dna_pfac", "cluster_en_20k", "stream_en_1k")
RUN_TIMEOUT_S = 170


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    if not (out / "Makefile").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "acbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return out / "acbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: acbench exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
