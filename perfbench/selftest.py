#!/usr/bin/env python3
"""Fast self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json names exactly the metrics the benchmark
emits, with the same units, and runs every workload once, traced, in its
quick form (see workloads.py).  Each run must emit every end-to-end and
per-layer metric with its unit, and each wrapped layer function must report
``calls > 0`` on the workloads layers.EXERCISED_BY assigns it, which catches
a binding site the wrapper missed.  The quick runs' gates are reported but
not required, since the smaller inputs move the physics.  Exit code 0 means
every check passed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import layers
import run
from workloads import WORKLOADS

SEED = 7


def check_benchmark_file(problems: list):
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != dict(run.END_TO_END):
        problems.append(f"BENCHMARK.json end_to_end {declared} != emitted "
                        f"{dict(run.END_TO_END)}")
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    emitted = {name: (unit, better) for name, unit, better in layers.PER_LAYER_METRICS}
    if declared != emitted:
        problems.append("BENCHMARK.json per_layer differs from layers.PER_LAYER_METRICS: "
                        f"{sorted(set(declared.items()) ^ set(emitted.items()))}")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def check_metrics(name: str, metrics: dict, expected: dict, problems: list):
    if set(metrics) != set(expected):
        problems.append(f"{name}: metrics {sorted(set(metrics) ^ set(expected))} "
                        "missing or unexpected")
    for metric, unit in expected.items():
        entry = metrics.get(metric, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"{name}: {metric} is {entry}, want a number in {unit}")


def main() -> int:
    problems = []
    check_benchmark_file(problems)
    per_layer = {name: unit for name, unit, _ in layers.PER_LAYER_METRICS}
    for name in WORKLOADS:
        summary = run.run_workload(name, SEED, seconds=0.0, trace=True, quick=True)
        e2e = {metric: {"value": summary["end_to_end"][metric], "unit": unit}
               for metric, unit in run.END_TO_END}
        check_metrics(name, e2e, dict(run.END_TO_END), problems)
        check_metrics(name, summary["metrics"], per_layer, problems)
        for layer, workloads in layers.EXERCISED_BY.items():
            calls = summary["metrics"].get(f"{layer}.calls",
                                           summary["metrics"].get(f"{layer}.s"))
            if name in workloads and not (calls and calls["value"] > 0):
                problems.append(f"{name}: {layer} was never called")
        print(f"{name}: {summary['attempted']} invocations, {summary['failed']} failed "
              f"gates in quick form, wall {summary['end_to_end']['wall_s']:.3g} s, "
              f"trace overhead {summary['metrics']['trace.overhead_s']['value']:.3g} s")
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
