#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The first call configures and builds
the libraries under src/ together with the benchmark (perfbench/CMakeLists.txt)
in $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable
is unset; later calls only rebuild what changed.  Build output goes to
standard error, so the last line of standard output is always the result
object printed by the benchmark:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics; the script checks that the names and units match before
passing the result on.  Extra flags --short (one round per window) and
--inject-fault (corrupt one reference so the correctness gate must fail)
are passed through.  Exit status: 0 when every op passed its checks, 1
otherwise; no result line is printed when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_TIMEOUT_SECONDS = 175


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def build(build_dir: Path) -> Path:
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", str(build_dir), "--target", "perfbench",
               "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def expected_metrics(trace: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    return {metric["name"]: metric["unit"] for metric in group}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--short", action="store_true")
    parser.add_argument("--inject-fault", action="store_true")
    args = parser.parse_args()

    root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root / "perfbench")
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--work-dir", str(root / "perfbench-work")]
    if args.short:
        command.append("--short")
    if args.inject_fault:
        command.append("--inject-fault")
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_SECONDS} s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode not in (0, 1) or not lines:
        sys.stderr.write(run.stdout)
        fail(f"benchmark exited with status {run.returncode}")
    result = json.loads(lines[-1])
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    if units != expected_metrics(args.trace):
        sys.stderr.write(run.stdout)
        fail("metric names or units differ from BENCHMARK.json")
    sys.stdout.write("\n".join(lines) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
