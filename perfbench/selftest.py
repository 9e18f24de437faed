#!/usr/bin/env python3
"""Self-test of the repository benchmark, in its short mode.

    python3 perfbench/selftest.py

Run it from the root of the repository.  For every workload it checks that
a short run (one round per window) passes the correctness gate, reports
exactly the metrics of BENCHMARK.json with positive end-to-end values, and
that the traced run produces the per-layer metrics of every layer the
workload calls; that the counts repeat exactly and the input fingerprint
is reproducible for a seed and differs between seeds; and that a run with a
corrupted reference (--inject-fault) fails with a non-zero exit status.
"""

import json
import math
import re
import subprocess
import sys

COMMAND = [sys.executable, "perfbench/run.py"]

# Per-layer metrics each workload must report as non-zero: the layers it
# calls.  The rest read 0 on that workload.
LAYERS = {
    "figure4_batch": [
        "xml.parse_ms", "xml.parse_mb_per_s", "xml.write_ms",
        "uml.preprocess_ms", "uml.from_xmi_ms", "uml.to_xmi_ms",
        "uml.postprocess_ms", "choreographer.extract_ms",
        "choreographer.measure_reflect_ms", "service.cache_key_ms",
        "service.cache.hit_ratio", "service.cache.hits",
        "service.queue_wait_ms_p99", "service.run_ms_p50",
        "service.attempts_per_job", "pepa.derive_ms", "pepanet.derive_ms",
        "explore.states", "explore.transitions", "ctmc.generator_ms",
        "ctmc.generator.nnz", "ctmc.solve_ms", "ctmc.solve.dense_lu_share",
        "pepa.measures_ms"],
    "large_chain": [
        "xml.parse_ms", "uml.from_xmi_ms", "choreographer.extract_ms",
        "pepa.derive_ms", "pepa.derive.states_per_s",
        "pepa.derive.transitions_per_s", "explore.states",
        "explore.transitions", "explore.levels", "explore.peak_frontier",
        "explore.dedup_hit_ratio", "ctmc.generator_ms", "ctmc.generator.nnz",
        "ctmc.solve_ms", "ctmc.solve.iterations", "pepa.measures_ms"],
    "exact_quotient": [
        "pepa.derive_ms", "explore.canonical_rewrites",
        "pepa.quotient.blocks", "pepa.quotient.transitions",
        "pepa.quotient.transitions_per_block", "ctmc.generator_ms",
        "ctmc.solve_ms", "ctmc.solve.iterations", "pepa.measures_ms"],
    "rate_sweep": [
        "sweep.derive_once_ms", "sweep.rebind_us_per_point",
        "sweep.generator_us_per_point", "sweep.solve_us_per_point",
        "sweep.measures_us_per_point", "sweep.derivations",
        "explore.states", "ctmc.generator_ms", "ctmc.solve_ms",
        "ctmc.solve.iterations"],
}

# Counts that must repeat exactly between two runs of one seed.
COUNTS = ["explore.states", "explore.transitions", "explore.levels",
          "explore.canonical_rewrites", "pepa.quotient.blocks",
          "pepa.quotient.transitions", "ctmc.generator.nnz",
          "ctmc.solve.iterations", "service.cache.hits", "sweep.derivations"]

failures = []


def check(condition: bool, what: str) -> None:
    if not condition:
        failures.append(what)
        print(f"FAIL: {what}", flush=True)


def run(workload: str, seed: int, trace: str, *extra: str):
    command = COMMAND + ["--workload", workload, "--seed", str(seed),
                         "--seconds", "1", "--trace", trace, "--short",
                         *extra]
    result = subprocess.run(command, capture_output=True, text=True)
    lines = result.stdout.strip().splitlines()
    parsed = json.loads(lines[-1]) if lines else None
    fingerprint = re.findall(r"fingerprint ([0-9a-f]{16})", result.stdout)
    return result.returncode, parsed, fingerprint, result.stderr


def main() -> int:
    for workload, layers in LAYERS.items():
        print(f"== {workload}", flush=True)
        code, plain, prints, err = run(workload, 1, "0")
        check(code == 0 and plain is not None and plain["correct"]
              and plain["failed"] == 0,
              f"{workload}: short run failed (exit {code}) {err[-500:]}")
        if plain:
            for name, metric in plain["metrics"].items():
                check(math.isfinite(metric["value"]) and metric["value"] > 0,
                      f"{workload}: {name} = {metric['value']}")

        code, traced, prints_again, err = run(workload, 1, "1")
        check(code == 0 and traced is not None and traced["correct"],
              f"{workload}: traced run failed (exit {code}) {err[-500:]}")
        if traced:
            metrics = traced["metrics"]
            for name in layers + ["trace.ops_per_s_untraced",
                                  "trace.ops_per_s_traced",
                                  "trace.unattributed_share"]:
                check(metrics[name]["value"] > 0,
                      f"{workload}: per-layer {name} is 0")
            for name, metric in metrics.items():
                check(math.isfinite(metric["value"]),
                      f"{workload}: {name} not finite")
        check(prints and prints == prints_again,
              f"{workload}: input fingerprint differs for one seed")

        code, traced_again, _, _ = run(workload, 1, "1")
        if traced and traced_again:
            for name in COUNTS:
                check(traced["metrics"][name]["value"]
                      == traced_again["metrics"][name]["value"],
                      f"{workload}: count {name} does not repeat")

        _, _, other_prints, _ = run(workload, 2, "0")
        check(other_prints and other_prints != prints,
              f"{workload}: seeds 1 and 2 share an input fingerprint")

        code, faulty, _, _ = run(workload, 1, "0", "--inject-fault")
        check(code != 0 and (faulty is None or not faulty["correct"]),
              f"{workload}: a corrupted reference did not fail the gate")

    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
