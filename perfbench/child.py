"""One fresh benchmark process: import ghzlab, load a config, run CLI steps.

    python3 perfbench/child.py PLAN.json RESULT.json

PLAN names the ``src`` directory to import ghzlab from, an optional config
whose load is part of set-up, the CLI argument lists to pass to
``ghzlab.cli.main`` in order, and whether to trace.  RESULT receives the
set-up time (import plus ``load_config``), the wall and CPU time of the
steps, each step's exit code, the peak resident set size and, when traced,
the per-layer metrics; the spans go to the plan's ``spans`` path.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _run_step(cli, argv: list) -> int:
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # counted as a failed invocation; the sequence goes on
        traceback.print_exc()
        return 1


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    src = Path(plan["src"]).resolve()
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import ghzlab.cli as cli
    import ghzlab.config as config
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"ghzlab imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if plan["trace"]:
        import layers
        tracer = layers.Tracer()
        layers.install(tracer)
    if plan.get("setup_config"):
        config.load_config(plan["setup_config"])
    setup_s = time.perf_counter() - start

    import numpy
    import scipy
    wall0, cpu0 = time.perf_counter(), time.process_time()
    exit_codes = [_run_step(cli, argv) for argv in plan["steps"]]
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        tracer.write_spans(Path(plan["spans"]))
        result["layers"] = tracer.metrics()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
