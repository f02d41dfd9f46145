"""The benchmark's workloads: configs made from the seed, CLI steps, gates.

Every workload starts from the config that ``ghzlab config-init`` prints and
changes only the fields named here.  The seed sets the config ``seed`` (for
``tomo-sampled``, the seeds of its two datasets) and, for ``calibrate``, the
phase targets; the program sees nothing else.

A gate reads one invocation's result files and returns the problems it
finds; an empty list means the invocation passed.  ``quick`` shrinks each
workload for the self-test (fewer source terms, rounds, resamples and
targets) while keeping every layer on the same path.
"""

from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

TWO_PI = 2.0 * math.pi
QSS_ROUNDS = 2000
QUICK_QSS_ROUNDS = 100
LOSSY_EFFICIENCIES = [1.0, 0.5, 0.9, 1.0, 0.6, 1.0, 1.0, 0.7]
CALIBRATE_RUNS = 4
TOMOGRAPHY_DATASETS = 2
BELL_WINDOW = (7.25, 7.75)
MIN_TOMOGRAPHY_FIDELITY = 0.99
PHASE_TOLERANCE_RAD = 1e-9


@dataclass(frozen=True)
class Step:
    """One ``ghzlab <command> --config ... --out ...`` invocation."""

    command: str
    config: dict
    check: Callable[[Path, dict], list]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    steps: Callable[[dict, int, bool], list]


def _result(outdir: Path, name: str) -> dict:
    return json.loads((outdir / name).read_text())


def check_bell(outdir: Path, cfg: dict) -> list:
    value = _result(outdir, "bell.json")["value"]
    lo, hi = BELL_WINDOW
    return [] if lo <= value <= hi else [f"Bell value {value!r} outside [{lo}, {hi}]"]


def check_witness(outdir: Path, cfg: dict) -> list:
    value = _result(outdir, "witness.json")["witness"]
    return [] if value < 0.0 else [f"witness {value!r} is not negative"]


def check_qss(outdir: Path, cfg: dict) -> list:
    raw = _result(outdir, "qss.json")["raw_length"]
    rounds = cfg["qss"]["rounds"]
    return [] if raw == rounds else [f"qss raw_length {raw} != rounds {rounds}"]


def check_tomography(outdir: Path, cfg: dict) -> list:
    report = _result(outdir, "report.json")
    problems = []
    if report["mle_converged"] is not True:
        problems.append("MLE did not converge")
    if not report["fidelity"] >= MIN_TOMOGRAPHY_FIDELITY:
        problems.append(f"fidelity {report['fidelity']!r} < {MIN_TOMOGRAPHY_FIDELITY}")
    return problems


def _phase_error(achieved: float, target: float) -> float:
    d = (achieved - target) % TWO_PI
    return min(d, TWO_PI - d)


def check_calibrate(outdir: Path, cfg: dict) -> list:
    result = _result(outdir, "calibrate.json")
    problems = []
    for kind in ("alpha", "phi"):
        targets = cfg["calibrate"][f"{kind}_targets_rad"]
        achieved = result[f"achieved_{kind}_rad"]
        if len(achieved) != len(targets):
            problems.append(f"{len(achieved)} achieved {kind} phases for "
                            f"{len(targets)} targets")
            continue
        worst = max(_phase_error(a, t) for a, t in zip(achieved, targets))
        if not worst <= PHASE_TOLERANCE_RAD:
            problems.append(f"{kind} phase misses its target by {worst!r} rad")
    if not all(c >= 0.0 for c in result["currents_a"]):
        problems.append("negative heater current")
    return problems


def check_rate(outdir: Path, cfg: dict) -> list:
    rate = _result(outdir, "rate.json")["four_fold_rate_hz"]
    return [] if math.isfinite(rate) and rate > 0.0 else [f"rate {rate!r} is not positive"]


def _seeded(base: dict, seed: int) -> dict:
    cfg = copy.deepcopy(base)
    cfg["seed"] = seed
    return cfg


def noisy_exact_steps(base: dict, seed: int, quick: bool) -> list:
    cfg = _seeded(base, seed)
    cfg["qss"]["rounds"] = QUICK_QSS_ROUNDS if quick else QSS_ROUNDS
    if quick:
        cfg["source"]["g2"] = 0.0
    return [Step("bell", cfg, check_bell), Step("witness", cfg, check_witness),
            Step("qss", cfg, check_qss)]


def noisy_lossy_steps(base: dict, seed: int, quick: bool) -> list:
    cfg = _seeded(base, seed)
    cfg["detectors"]["efficiencies"] = list(LOSSY_EFFICIENCIES)
    if quick:
        cfg["source"]["g2"] = 0.0
    return [Step("witness", cfg, check_witness)]


def tomo_sampled_steps(base: dict, seed: int, quick: bool) -> list:
    # One dataset's MLE cost is heavy-tailed across seeds (a few Monte-Carlo
    # resamples converge 10x slower than the rest), so each run reconstructs
    # TOMOGRAPHY_DATASETS independent datasets to steady the run-to-run spread.
    rng = random.Random(seed)
    steps = []
    for _ in range(1 if quick else TOMOGRAPHY_DATASETS):
        cfg = _seeded(base, rng.getrandbits(32))
        cfg["source"].update(g2=0.0, eta=1.0,
                             overlaps={pair: 1.0 for pair in cfg["source"]["overlaps"]})
        cfg["chip"]["reflectivities"] = [0.5] * 4
        cfg["exact_probabilities"] = False
        cfg["shots_per_setting"] = 450
        cfg["tomography"]["resamples"] = 2 if quick else 25
        steps.append(Step("tomography", cfg, check_tomography))
    return steps


def calibrate_steps(base: dict, seed: int, quick: bool) -> list:
    rng = random.Random(seed)
    steps = []
    for _ in range(1 if quick else CALIBRATE_RUNS):
        cfg = _seeded(base, seed)
        cfg["calibrate"] = {
            "alpha_targets_rad": [rng.random() * TWO_PI for _ in range(4)],
            "phi_targets_rad": [rng.random() * TWO_PI for _ in range(4)],
        }
        steps.append(Step("calibrate", cfg, check_calibrate))
    steps.append(Step("rate", _seeded(base, seed), check_rate))
    return steps


WORKLOADS = {w.name: w for w in (
    Workload("noisy-exact",
             "measured-noise source and couplers, exact probabilities: bell, "
             "witness and qss spend ~95% in the simulator's scattering",
             noisy_exact_steps),
    Workload("noisy-lossy",
             "same source with imbalanced detectors: witness runs the "
             "simulator's binomial-loss branch, ~8x costlier per setting",
             noisy_lossy_steps),
    Workload("tomo-sampled",
             "ideal source and chip, 450 shots per setting, 25 resamples, two "
             "datasets: tomography spends ~80% in MLE, the simulator one term",
             tomo_sampled_steps),
    Workload("calibrate",
             "four seeded heater calibrations and one rate: the only route "
             "into chip.heater_solve, ~98% of the work",
             calibrate_steps),
)}
