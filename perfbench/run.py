#!/usr/bin/env python3
"""Benchmark of the ghzlab command-line tool, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload noisy-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Every command sequence runs through ``ghzlab.cli.main`` in a fresh Python
process (child.py) that imports ghzlab from ``src/``, with the BLAS thread
pools pinned to one thread and ``GHZLAB_WORKERS`` unset.  A run first makes
the default config with ``config-init``, times ``SETUP_PROBES`` set-up-only
processes, then repeats the workload's command sequence until ``--seconds``
would be overrun (at least once).  ``--trace 1`` pairs each untraced process
with a traced one and reports the per-layer metrics and the tracing
overhead.  Every invocation is checked: exit code, result files, the
workload's gate, and byte-identity of the result files with the first run of
the same seed and source tree.  The last line of standard output is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); with
``--workload all`` it maps each workload to that object.  README.md maps each
metric to its layer and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
STATE_DIR = Path(".perfbench")
SETUP_PROBES = 5
DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("GHZLAB_WORKERS", "PYTHONPATH")}
    env.update(THREAD_ENV)
    return env


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not Path(".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def result_hashes(outdir: Path) -> dict:
    """SHA-256 of every result file except the manifest, which is timestamped."""
    return {p.relative_to(outdir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


class Run:
    """One workload at one seed, in its own scratch directory."""

    def __init__(self, workload: str, seed: int, quick: bool = False):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.quick = quick
        self.src = Path("src").resolve()
        self.src_digest = source_digest(self.src)
        self.variant = "-quick" if quick else ""
        self.dir = (STATE_DIR / "runs" / f"{workload}-{seed}-{os.getpid()}").resolve()
        self.deadline = time.monotonic() + DEADLINE_S
        self.children = 0
        self.env = _child_env()

    def child(self, steps: list, setup_config: str | None = None,
              trace: bool = False) -> dict:
        """Run child.py on a plan and return its result."""
        self.children += 1
        plan_path = self.dir / f"plan-{self.children}.json"
        result_path = self.dir / f"result-{self.children}.json"
        plan = {"src": str(self.src), "setup_config": setup_config, "steps": steps,
                "trace": trace, "spans": str(self.dir / "spans.json")}
        plan_path.write_text(json.dumps(plan))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before a child process could start")
        try:
            proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                                   str(plan_path), str(result_path)],
                                  env=self.env, stdout=sys.stderr, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child process overran the {DEADLINE_S:.0f} s "
                             "deadline") from exc
        if proc.returncode != 0 or not result_path.is_file():
            raise BenchError(f"child process failed with exit code {proc.returncode}")
        return json.loads(result_path.read_text())

    def prepare(self) -> list:
        """Write the workload's configs and return [(step, config path, out dir)]."""
        self.dir.mkdir(parents=True, exist_ok=True)
        default_path = self.dir / "default.json"
        # The first process also fills the bytecode cache before any timing.
        codes = self.child([["config-init", "--out", str(default_path)]])["exit_codes"]
        if codes != [0]:
            raise BenchError("ghzlab config-init failed")
        base = json.loads(default_path.read_text())
        plan = []
        for i, step in enumerate(self.workload.steps(base, self.seed, self.quick)):
            config_path = self.dir / f"config-{i}.json"
            config_path.write_text(json.dumps(step.config, indent=2, sort_keys=True))
            plan.append((step, config_path, self.dir / "out" / f"{i}-{step.command}"))
        return plan

    def iteration(self, plan: list, trace: bool) -> dict:
        """One process running the whole command sequence, then its checks."""
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        argvs = [[step.command, "--config", str(cfg), "--out", str(out)]
                 for step, cfg, out in plan]
        result = self.child(argvs, setup_config=str(plan[0][1]), trace=trace)
        result["trace"] = trace
        result["steps"] = [self.check(step, out, code)
                           for (step, _, out), code in zip(plan, result["exit_codes"])]
        return result

    @staticmethod
    def check(step, outdir: Path, code: int) -> dict:
        """Problems of one invocation: exit code, result files, gate."""
        problems = []
        hashes = {}
        if code != 0:
            problems.append(f"exit code {code}")
        else:
            try:
                manifest = json.loads((outdir / "manifest.json").read_text())
                missing = [name for name in manifest["results"]
                           if not (outdir / name).is_file()]
                if missing:
                    problems.append(f"missing result files {missing}")
                problems += step.check(outdir, step.config)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"unreadable result: {exc!r}")
            hashes = result_hashes(outdir)
        return {"command": step.command, "problems": problems, "hashes": hashes}

    def check_identity(self, iterations: list):
        """Fail every invocation whose result bytes differ from the reference.

        The reference is the first passing run of this seed on this source
        tree, stored under STATE_DIR, else this run's first iteration.
        """
        store = (STATE_DIR / "hashes" / f"{self.src_digest[:16]}-{self.workload.name}-"
                 f"{self.seed}{self.variant}.json")
        first = [s["hashes"] for s in iterations[0]["steps"]]
        if store.is_file():
            reference = json.loads(store.read_text())
        else:
            reference = first
            if not any(s["problems"] for s in iterations[0]["steps"]):
                store.parent.mkdir(parents=True, exist_ok=True)
                tmp = store.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(json.dumps(reference, indent=1))
                tmp.replace(store)
        for it in iterations:
            for step, ref in zip(it["steps"], reference):
                if step["hashes"] and step["hashes"] != ref:
                    kind = "traced" if it["trace"] else "untraced"
                    step["problems"].append(
                        f"{kind} result files differ from the first run of seed "
                        f"{self.seed}")

    def measure(self, seconds: float, trace: bool) -> dict:
        plan = self.prepare()
        setup_samples = [self.child([], setup_config=str(plan[0][1]))["setup_s"]
                         for _ in range(SETUP_PROBES)]
        iterations = []
        start = time.monotonic()
        rounds = 0
        while True:
            for traced in ((False, True) if trace else (False,)):
                iterations.append(self.iteration(plan, traced))
            rounds += 1
            elapsed = time.monotonic() - start
            if elapsed * (rounds + 1) / rounds > seconds:
                break
        self.check_identity(iterations)
        return self.summarize(setup_samples, iterations, trace)

    def summarize(self, setup_samples: list, iterations: list, trace: bool) -> dict:
        plain = [it for it in iterations if not it["trace"]]
        traced = [it for it in iterations if it["trace"]]
        steps = [s for it in iterations for s in it["steps"]]
        failed = sum(1 for s in steps if s["problems"])
        e2e = {
            "wall_s": statistics.median(it["wall_s"] for it in plain),
            "cpu_s": statistics.median(it["cpu_s"] for it in plain),
            "setup_s": statistics.median(setup_samples + [it["setup_s"] for it in plain]),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in plain),
        }
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        if trace:
            values = {name: statistics.median(it["layers"][name] for it in traced)
                      for name in traced[0]["layers"]}
            values["trace.wall_s"] = statistics.median(it["wall_s"] for it in traced)
            values["trace.overhead_s"] = values["trace.wall_s"] - e2e["wall_s"]
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit, _ in layers.PER_LAYER_METRICS}
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "trace": trace,
            "iterations": len(iterations),
            "attempted": len(steps),
            "failed": failed,
            "ops_failed_frac": failed / len(steps),
            "end_to_end": e2e,
            "metrics": metrics,
            "problems": [f"{s['command']}: {p}" for s in steps for p in s["problems"]],
            "environment": self.environment(iterations[0]["versions"]),
        }

    def environment(self, versions: dict) -> dict:
        return {"commit": _git_commit(), "src_sha256": self.src_digest,
                "python": versions["python"], "numpy": versions["numpy"],
                "scipy": versions["scipy"], "nproc": os.cpu_count(),
                "cpus_allowed": len(os.sched_getaffinity(0)),
                "thread_env": {k: self.env[k] for k in sorted(THREAD_ENV)},
                "GHZLAB_WORKERS": None,  # removed from every child's environment
                "platform": platform.platform()}

    def save(self, summary: dict):
        """Keep the record and the last traced process's spans under STATE_DIR."""
        results = STATE_DIR / "results"
        results.mkdir(parents=True, exist_ok=True)
        stem = (f"{self.workload.name}-seed{self.seed}{self.variant}"
                f"-trace{int(summary['trace'])}")
        (results / f"{stem}.json").write_text(json.dumps(summary, indent=1))
        spans = self.dir / "spans.json"
        if spans.is_file():
            spans.replace(results / f"{stem}-spans.json")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 quick: bool = False) -> dict:
    run = Run(workload, seed, quick)
    try:
        summary = run.measure(seconds, trace)
        run.save(summary)
    finally:
        run.close()
    return summary


def result_line(summary: dict) -> dict:
    return {"correct": summary["failed"] == 0, "attempted": summary["attempted"],
            "failed": summary["failed"], "metrics": summary["metrics"]}


def report(summary: dict):
    """Human-readable lines for one workload, before the JSON result."""
    print(f"{summary['workload']} seed {summary['seed']}: "
          f"{summary['iterations']} process(es), {summary['attempted']} invocations")
    e2e = summary["end_to_end"]
    for name, unit in END_TO_END:
        print(f"  {name:<16} {e2e[name]:.6g} {unit}")
    print(f"  {'ops_failed_frac':<16} {summary['ops_failed_frac']:.6g} fraction "
          f"({summary['failed']}/{summary['attempted']})")
    if summary["trace"]:
        print(f"  {'trace.overhead_s':<16} "
              f"{summary['metrics']['trace.overhead_s']['value']:.6g} s")
    for problem in summary["problems"]:
        print(f"  FAILED {problem}", file=sys.stderr)
    print("environment " + json.dumps(summary["environment"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative (it seeds numpy's SeedSequence)")
    if not Path("src/ghzlab/__init__.py").is_file():
        print("perfbench: run from the root of a ghzlab checkout "
              "(src/ghzlab not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        summaries = [run_workload(name, args.seed, args.seconds, bool(args.trace))
                     for name in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for summary in summaries:
        report(summary)
    if args.workload == "all":
        print(json.dumps({s["workload"]: result_line(s) for s in summaries}))
        return 0 if all(s["failed"] == 0 for s in summaries) else 1
    print(json.dumps(result_line(summaries[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
