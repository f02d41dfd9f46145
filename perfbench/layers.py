"""Per-layer tracing of ghzlab from outside the package.

``install`` wraps the public function of each layer and replaces it at every
binding site: each ``ghzlab`` module attribute and module-level dict value
that refers to the original, so ``experiments.qubit_distribution``,
``simulator.permanent`` and ``cli.COMMANDS`` are covered along with the
defining module.  A wrapper records one span (name, start, end, parent) per
call in memory; ``metrics`` turns the spans and counters into the per-layer
metrics and ``write_spans`` writes the spans out at the end of a run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (span name, defining module, attribute).  The span name is the metric
# prefix; ``permanent`` is defined in qmath but only the simulator calls it.
LAYERS = (
    ("simulator.qubit_distribution", "ghzlab.simulator", "qubit_distribution"),
    ("simulator.scatter_distribution", "ghzlab.simulator", "scatter_distribution"),
    ("simulator.apply_detector_efficiency", "ghzlab.simulator",
     "apply_detector_efficiency"),
    ("simulator.permanent", "ghzlab.qmath", "permanent"),
    ("simulator.sample_counts", "ghzlab.simulator", "sample_counts"),
    ("analysis.mle_reconstruct", "ghzlab.analysis", "mle_reconstruct"),
    ("analysis.linear_inversion", "ghzlab.analysis", "linear_inversion"),
    ("analysis.monte_carlo_error", "ghzlab.analysis", "monte_carlo_error"),
    ("chip.heater_solve", "ghzlab.chip", "heater_solve"),
    ("chip.full_unitary", "ghzlab.chip", "full_unitary"),
    ("source.fit_master_fractions", "ghzlab.source", "fit_master_fractions"),
    ("source.enumerate_joint_inputs", "ghzlab.source", "enumerate_joint_inputs"),
    ("config.load_config", "ghzlab.config", "load_config"),
    ("qss.run_qss", "ghzlab.qss", "run_qss"),
)

# The CLI commands the workloads run; their spans and cli.main's make up
# the CLI layer, whose self time is result writing and argument handling.
CLI_COMMANDS = ("bell", "witness", "qss", "tomography", "calibrate", "rate")
CLI_LAYERS = (("cli.main", "ghzlab.cli", "main"),) + tuple(
    (f"cli.{c}", "ghzlab.cli", f"cmd_{c}") for c in CLI_COMMANDS)

# Which workloads each layer is there to measure; the self-test requires
# calls > 0 on each of them.
EXERCISED_BY = {
    "simulator.qubit_distribution": ("noisy-exact", "noisy-lossy", "tomo-sampled"),
    "simulator.scatter_distribution": ("noisy-exact", "noisy-lossy", "tomo-sampled"),
    "simulator.apply_detector_efficiency": ("noisy-lossy",),
    "simulator.permanent": ("noisy-exact", "noisy-lossy", "tomo-sampled"),
    "simulator.sample_counts": ("tomo-sampled",),
    "analysis.mle_reconstruct": ("tomo-sampled",),
    "analysis.linear_inversion": ("tomo-sampled",),
    "analysis.monte_carlo_error": ("tomo-sampled",),
    "chip.heater_solve": ("calibrate",),
    "chip.full_unitary": ("noisy-exact", "noisy-lossy", "tomo-sampled"),
    "source.fit_master_fractions": ("noisy-exact", "noisy-lossy"),
    "source.enumerate_joint_inputs": ("noisy-exact", "noisy-lossy", "tomo-sampled"),
    "config.load_config": ("noisy-exact", "noisy-lossy", "tomo-sampled", "calibrate"),
    "qss.run_qss": ("noisy-exact",),
    "cli.bell": ("noisy-exact",),
    "cli.witness": ("noisy-exact", "noisy-lossy"),
    "cli.qss": ("noisy-exact",),
    "cli.tomography": ("tomo-sampled",),
    "cli.calibrate": ("calibrate",),
    "cli.rate": ("calibrate",),
}

QSS_CASES = ("a", "b", "c", "d")


# Metrics beyond .s, .calls and .self_s, read from a layer's results.
LAYER_EXTRAS = {
    "simulator.qubit_distribution": (("p50_s", "s", "lower"),),
    "analysis.mle_reconstruct": (("iterations_sum", "count", "lower"),
                                 ("converged_frac", "fraction", "higher")),
    "chip.heater_solve": (("power_w", "W", "lower"),),
    "source.enumerate_joint_inputs": (("terms_raw", "count", "lower"),
                                      ("terms_four_photon", "count", "lower"),
                                      ("terms_kept", "count", "lower"),
                                      ("retained_weight", "fraction", "higher")),
}


def _per_layer_metrics() -> tuple:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name, _, _ in LAYERS:
        out += [(f"{name}.s", "s", "lower"), (f"{name}.calls", "count", "lower"),
                (f"{name}.self_s", "s", "lower")]
        out += [(f"{name}.{extra}", unit, better)
                for extra, unit, better in LAYER_EXTRAS.get(name, ())]
    out.append(("simulator.conservation_residual_max", "prob", "lower"))
    out += [("qss.rounds_s", "s", "lower"), ("qss.rounds", "count", "higher"),
            ("qss.sifted", "count", "higher")]
    out += [(f"qss.case_{c}", "count", "higher") for c in QSS_CASES]
    out += [(f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS]
    out += [("cli.self_s", "s", "lower"), ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower")]
    return tuple(out)


PER_LAYER_METRICS = _per_layer_metrics()


class Tracer:
    """Spans and counters of one process, kept in memory until written out."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []
        self.counters = defaultdict(float)

    def wrap(self, name: str, fn, observe=None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if observe is not None:
                observe(self.counters, args, result)
            return result

        return traced

    def write_spans(self, path: Path):
        path.write_text(json.dumps({
            "fields": ["name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "counters": dict(self.counters),
        }))

    def metrics(self) -> dict:
        """Per-layer metrics (name -> value) from the recorded spans."""
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        qd_child_time = [0.0] * len(self.spans)
        for (name, _, _, parent), d in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += d
                if name == "simulator.qubit_distribution":
                    qd_child_time[parent] += d
        total = defaultdict(float)
        self_time = defaultdict(float)
        calls = defaultdict(int)
        per_call = defaultdict(list)
        rounds_s = 0.0
        for i, (name, _, _, _) in enumerate(self.spans):
            total[name] += durations[i]
            self_time[name] += durations[i] - child_time[i]
            calls[name] += 1
            per_call[name].append(durations[i])
            if name == "qss.run_qss":
                rounds_s += durations[i] - qd_child_time[i]
        out = {"qss.rounds_s": rounds_s}
        for name, _, _ in LAYERS:
            out[f"{name}.s"] = total[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_time[name]
        qd = "simulator.qubit_distribution"
        out[f"{qd}.p50_s"] = statistics.median(per_call[qd]) if per_call[qd] else 0.0
        mle = "analysis.mle_reconstruct"
        out[f"{mle}.iterations_sum"] = self.counters[f"{mle}.iterations_sum"]
        out[f"{mle}.converged_frac"] = (self.counters[f"{mle}.converged"] / calls[mle]
                                        if calls[mle] else 0.0)
        for c in CLI_COMMANDS:
            out[f"cli.{c}.s"] = total[f"cli.{c}"]
        out["cli.self_s"] = sum(t for name, t in self_time.items()
                                if name.startswith("cli."))
        for name, _, _ in PER_LAYER_METRICS:
            if name not in out and not name.startswith("trace."):
                out[name] = self.counters[name]
        return out


def _observe_qubit_distribution(counters, args, dist):
    residual = abs(float(dist.probs.sum()) + float(dist.discard_mass) - 1.0)
    key = "simulator.conservation_residual_max"
    counters[key] = max(counters[key], residual)


def _observe_mle(counters, args, result):
    counters["analysis.mle_reconstruct.iterations_sum"] += result.iterations
    counters["analysis.mle_reconstruct.converged"] += bool(result.converged)


def _observe_heater_solve(counters, args, currents):
    calibration = args[0]
    counters["chip.heater_solve.power_w"] += float(
        calibration.resistances @ (currents ** 2))


def _observe_enumeration(counters, args, enumeration):
    # Every call of one run enumerates the same source, so keep the last.
    prefix = "source.enumerate_joint_inputs"
    counters[f"{prefix}.terms_raw"] = enumeration.raw_term_count
    counters[f"{prefix}.terms_four_photon"] = enumeration.photon_filtered_count
    counters[f"{prefix}.terms_kept"] = len(enumeration.terms)
    counters[f"{prefix}.retained_weight"] = enumeration.retained_weight


def _observe_qss(counters, args, result):
    report, transcript = result
    counters["qss.rounds"] += report.raw_length
    counters["qss.sifted"] += report.sifted_length
    for record in transcript:
        counters[f"qss.case_{record.case}"] += 1


OBSERVERS = {
    "simulator.qubit_distribution": _observe_qubit_distribution,
    "analysis.mle_reconstruct": _observe_mle,
    "chip.heater_solve": _observe_heater_solve,
    "source.enumerate_joint_inputs": _observe_enumeration,
    "qss.run_qss": _observe_qss,
}


def install(tracer: Tracer) -> dict:
    """Wrap every layer function at all of its ghzlab binding sites.

    Returns span name -> number of binding sites replaced.  Call it after
    ``import ghzlab.cli`` so that every module of the package is loaded.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "ghzlab" or name.startswith("ghzlab."))]
    sites = {}
    for name, module_name, attr in LAYERS + CLI_LAYERS:
        original = getattr(sys.modules[module_name], attr)
        wrapper = tracer.wrap(name, original, OBSERVERS.get(name))
        count = 0
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    count += 1
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper
                            count += 1
        sites[name] = count
    return sites
