"""Experiment configuration: a single JSON document with embedded defaults.

Every run of the command-line tool validates the full document against the
range constraints of the underlying types before any computation starts.
The ``notes`` block carries human-readable descriptions of each section so
an emitted default file documents itself.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

from .chip import HeaterCalibration, PreparationStage, state_phase_of
from .errors import ConfigError
from .qmath import PauliLabel
from .simulator import DetectorModel, LossBudget, SimContext
from .source import SourceSpec

SCHEMA = "ghzlab-config/v1"

# Upper bound on counts that size arrays up front: phase_scan.points and
# qss.rounds.
MAX_COUNT = 10 ** 6


def default_config() -> dict:
    source = SourceSpec()
    return {
        "schema": SCHEMA,
        "seed": 20220901,
        "shots_per_setting": 450,
        "exact_probabilities": True,
        "source": {
            "g2": source.g2,
            "overlaps": dict(source.measured_overlaps),
            "eta": source.eta,
            "distinguishability_scale": list(source.distinguishability_scale),
        },
        "chip": {
            "path_phases": [0.0] * 8,
            "reflectivities": [0.500, 0.505, 0.4905, 0.503],
        },
        "detectors": {"efficiencies": [1.0] * 8},
        "simulate": {"settings": ["z", "z", "z", "z"]},
        "phase_scan": {
            "power_min_mw": 28.0,
            "power_max_mw": 78.0,
            "points": 13,
            "rad_per_mw": 0.126264,
            "offset_rad": -0.3848165328204134,
        },
        "bell_sweep": {"photon": "C", "scales": [1.0, 0.75, 0.5, 0.25, 0.0]},
        "qss": {"rounds": 2000, "public_fraction": 0.0},
        "tomography": {"resamples": 25},
        "calibrate": {
            "alpha_targets_rad": [0.0, 0.0, 0.0, 0.0],
            "phi_targets_rad": HeaterCalibration().phi_offset.tolist(),
        },
        "rate": asdict(LossBudget()),
        "notes": {
            "source": "measured emitter parameters: multiphoton g2(0), pairwise "
                      "mean-wavepacket overlaps of the four measurable photon "
                      "pairs, and end-to-end transmission per photon",
            "chip": "static path phases (rad) and directional-coupler "
                    "reflectivities (BAR power fraction, mean of both "
                    "polarizations as characterized)",
            "detectors": "relative detection efficiencies of the 8 threshold "
                         "detectors; balanced loss belongs in source.eta",
            "phase_scan": "heater power grid (mW) and the linear power-to-phase "
                          "map of the scanned shifter",
            "shots_per_setting": "post-selected events per measurement setting "
                                 "when sampling; exact_probabilities=true uses "
                                 "noiseless probabilities instead, and an exact "
                                 "tomography draws its Monte-Carlo resamples "
                                 "at this many events per setting",
            "rate": "loss-budget factors entering the four-fold coincidence "
                    "rate estimate",
        },
    }


@dataclass(frozen=True)
class CalibrateTargets:
    """Target phases (rad) of the four alpha and four phi shifters."""

    alpha_rad: tuple
    phi_rad: tuple


@dataclass(frozen=True)
class PhaseScanSpec:
    """Heater power grid (mW) and the scanned shifter's linear power-to-phase map."""

    power_min_mw: float
    power_max_mw: float
    points: int
    rad_per_mw: float
    offset_rad: float


@dataclass(frozen=True)
class ExperimentConfig:
    raw: dict
    context: SimContext
    seed: int
    shots_per_setting: int
    exact_probabilities: bool
    budget: LossBudget
    calibration: HeaterCalibration
    calibrate: CalibrateTargets
    simulate_labels: tuple
    phase_scan: PhaseScanSpec
    bell_sweep_photon: str
    bell_sweep_scales: tuple
    qss_rounds: int
    qss_public_fraction: float
    tomography_resamples: int

    @property
    def shots(self) -> int | None:
        return None if self.exact_probabilities else self.shots_per_setting


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _number(value, name: str, bounds: tuple | None = None) -> float:
    """A finite JSON number (not a bool or string), within ``bounds`` if given."""
    lo, hi = bounds or (-math.inf, math.inf)
    # NaN fails every comparison; the float_info bound also rejects +-inf and
    # integers too large to convert to a float.
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and abs(value) <= sys.float_info.max and lo <= value <= hi,
             f"{name} must be a finite number{f' in [{lo}, {hi}]' if bounds else ''}, "
             f"got {value!r}")
    return float(value)


def _numbers(value, name: str, length: int | None = None,
             bounds: tuple | None = None) -> tuple:
    """A list of finite JSON numbers, of exactly ``length`` entries if given."""
    _require(isinstance(value, (list, tuple)) and length in (None, len(value)),
             f"{name} must be a list of {length or 'finite'} numbers, got {value!r}")
    return tuple(_number(v, f"{name}[{i}]", bounds) for i, v in enumerate(value))


def _integer(value, name: str, minimum: int, maximum: int | None = None) -> int:
    """An integer (not a bool) no smaller than ``minimum``, nor above ``maximum``."""
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= minimum
             and (maximum is None or value <= maximum),
             f"{name} must be an integer >= {minimum}"
             f"{f' and <= {maximum}' if maximum is not None else ''}, got {value!r}")
    return value


def _build(cls, block: str, **kwargs):
    """``cls(**kwargs)``, its range-check ``ValueError`` reported against ``block``."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{block}: {exc}") from exc


def _simulate_labels(block: dict) -> tuple:
    tokens = block["settings"]
    _require(isinstance(tokens, (list, tuple)) and len(tokens) == 4
             and all(isinstance(t, str) for t in tokens),
             f"simulate.settings must list 4 measurement labels, got {tokens!r}")
    try:
        return tuple(PauliLabel.from_token(t) for t in tokens)
    except ValueError as exc:
        raise ConfigError(f"simulate.settings: {exc}") from exc


def parse_config(data: dict) -> ExperimentConfig:
    _require(isinstance(data, dict), "config must be a JSON object")
    _require(data.get("schema") == SCHEMA, f"config schema must be {SCHEMA!r}")
    merged = default_config()
    for key, value in data.items():
        if isinstance(merged.get(key), dict):
            _require(isinstance(value, dict), f"{key} must be a JSON object, got {value!r}")
            merged[key].update(value)
        else:
            merged[key] = value
    try:
        src = merged["source"]
        overlaps = src["overlaps"]
        _require(isinstance(overlaps, dict),
                 f"source.overlaps must be a JSON object, got {overlaps!r}")
        spec = _build(
            SourceSpec, "source",
            g2=_number(src["g2"], "source.g2"),
            measured_overlaps={k: _number(v, f"source.overlaps.{k}")
                               for k, v in overlaps.items()},
            eta=_number(src["eta"], "source.eta"),
            distinguishability_scale=_numbers(src["distinguishability_scale"],
                                              "source.distinguishability_scale"))
        path_phases = _numbers(merged["chip"]["path_phases"], "chip.path_phases", 8)
        stage = _build(
            PreparationStage, "chip",
            state_phase=_number(state_phase_of(path_phases),
                                "chip.path_phases (signed sum)"),
            reflectivities=_numbers(merged["chip"]["reflectivities"],
                                    "chip.reflectivities"))
        det = _build(DetectorModel, "detectors", efficiencies=_numbers(
            merged["detectors"]["efficiencies"], "detectors.efficiencies"))
        budget = _build(LossBudget, "rate", **{
            f.name: _number(merged["rate"][f.name], f"rate.{f.name}")
            for f in fields(LossBudget)})
        calibration_file = merged.get("heater_calibration_file")
        try:
            calibration = (HeaterCalibration.from_file(calibration_file)
                           if calibration_file else HeaterCalibration())
        except OSError as exc:
            raise ConfigError(f"cannot read heater calibration file: {exc}") from exc
        targets = CalibrateTargets(
            alpha_rad=_numbers(merged["calibrate"]["alpha_targets_rad"],
                               "calibrate.alpha_targets_rad", 4),
            phi_rad=_numbers(merged["calibrate"]["phi_targets_rad"],
                             "calibrate.phi_targets_rad", 4))
        simulate_labels = _simulate_labels(merged["simulate"])
        scan = merged["phase_scan"]
        phase_scan = PhaseScanSpec(
            power_min_mw=_number(scan["power_min_mw"], "phase_scan.power_min_mw"),
            power_max_mw=_number(scan["power_max_mw"], "phase_scan.power_max_mw"),
            points=_integer(scan["points"], "phase_scan.points", 5, MAX_COUNT),
            rad_per_mw=_number(scan["rad_per_mw"], "phase_scan.rad_per_mw"),
            offset_rad=_number(scan["offset_rad"], "phase_scan.offset_rad"))
        ends = (phase_scan.power_min_mw, phase_scan.power_max_mw)
        _require(math.isfinite(ends[1] - ends[0]),
                 "phase_scan.power_max_mw - phase_scan.power_min_mw must be finite")
        _require(all(math.isfinite(phase_scan.rad_per_mw * p + phase_scan.offset_rad)
                     for p in ends),
                 "phase_scan.rad_per_mw * power + phase_scan.offset_rad must be "
                 "finite at phase_scan.power_min_mw and phase_scan.power_max_mw")
        photon = merged["bell_sweep"]["photon"]
        _require(isinstance(photon, str) and photon.upper() in ("A", "B", "C", "D"),
                 f"bell_sweep.photon must be one of A, B, C, D, got {photon!r}")
        scales = _numbers(merged["bell_sweep"]["scales"], "bell_sweep.scales",
                          bounds=(0.0, 1.0))
        qss_rounds = _integer(merged["qss"]["rounds"], "qss.rounds", 1, MAX_COUNT)
        public_fraction = _number(merged["qss"]["public_fraction"],
                                  "qss.public_fraction", (0.0, 1.0))
        tomography_resamples = _integer(merged["tomography"]["resamples"],
                                        "tomography.resamples", 0)
        _require(tomography_resamples != 1,
                 "tomography.resamples must be 0 or at least 2, got 1")
        seed = _integer(merged["seed"], "seed", 0)
        shots = _integer(merged["shots_per_setting"], "shots_per_setting", 1, 2 ** 62)
        exact = merged["exact_probabilities"]
        _require(isinstance(exact, bool), "exact_probabilities must be true or false")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    ctx = SimContext(spec=spec, stage=stage, detectors=det)
    return ExperimentConfig(raw=merged, context=ctx, seed=seed,
                            shots_per_setting=shots, exact_probabilities=exact,
                            budget=budget, calibration=calibration,
                            calibrate=targets, simulate_labels=simulate_labels,
                            phase_scan=phase_scan, bell_sweep_photon=photon.upper(),
                            bell_sweep_scales=scales, qss_rounds=qss_rounds,
                            qss_public_fraction=public_fraction,
                            tomography_resamples=tomography_resamples)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def dump_config(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
