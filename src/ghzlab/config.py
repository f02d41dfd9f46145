"""Experiment configuration: a single JSON document with embedded defaults.

Every run of the command-line tool validates the full document against the
range constraints of the underlying types before any computation starts.
The ``notes`` block carries human-readable descriptions of each section so
an emitted default file documents itself.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .chip import HeaterCalibration, PreparationStage
from .errors import ConfigError
from .experiments import MEASURED_REFLECTIVITIES, SimContext
from .qmath import PauliLabel
from .simulator import DetectorModel, LossBudget
from .source import MasterFractions, SourceSpec, fit_master_fractions

SCHEMA = "ghzlab-config/v1"


def default_config() -> dict:
    return {
        "schema": SCHEMA,
        "seed": 20220901,
        "shots_per_setting": 450,
        "exact_probabilities": True,
        "source": {
            "g2": 0.005,
            "overlaps": {"AB": 0.924, "AC": 0.915, "BD": 0.881, "CD": 0.921},
            "eta": 0.039,
            "distinguishability_scale": [1.0, 1.0, 1.0, 1.0],
        },
        "chip": {
            "path_phases": [0.0] * 8,
            "reflectivities": list(MEASURED_REFLECTIVITIES),
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
        "ablation": {"detector_pattern": None, "resamples": 0},
        "tomography": {"resamples": 25},
        "calibrate": {
            "alpha_targets_rad": [0.0, 0.0, 0.0, 0.0],
            "phi_targets_rad": [3.8656, 2.838, 0.798, 0.990],
        },
        "rate": {
            "repetition_rate_hz": 79e6,
            "filling_factor": 0.67,
            "first_lens_brightness": 0.50,
            "eta_coupling": 0.29,
            "eta_demux": 0.75,
            "eta_chip": 0.54,
            "eta_detector": 0.65,
        },
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
                                 "noiseless probabilities instead",
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
    ablation_resamples: int
    ablation_detector_pattern: tuple | None

    @property
    def shots(self) -> int | None:
        return None if self.exact_probabilities else self.shots_per_setting


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _is_finite_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def _phase_targets(block: dict, key: str) -> tuple:
    values = block[key]
    _require(isinstance(values, (list, tuple)) and len(values) == 4,
             f"calibrate.{key} must list 4 phases")
    for v in values:
        _require(_is_finite_number(v),
                 f"calibrate.{key} entries must be finite numbers, got {v!r}")
    return tuple(float(v) for v in values)


def _number(block: dict, name: str, key: str) -> float:
    value = block[key]
    _require(_is_finite_number(value),
             f"{name}.{key} must be a finite number, got {value!r}")
    return float(value)


def _fraction_list(values, what: str) -> tuple:
    _require(isinstance(values, (list, tuple)),
             f"{what} must be a list of numbers, got {values!r}")
    for v in values:
        _require(_is_finite_number(v) and 0.0 <= v <= 1.0,
                 f"{what} entries must be numbers in [0, 1], got {v!r}")
    return tuple(float(v) for v in values)


def _phase_scan(block: dict) -> PhaseScanSpec:
    return PhaseScanSpec(
        power_min_mw=_number(block, "phase_scan", "power_min_mw"),
        power_max_mw=_number(block, "phase_scan", "power_max_mw"),
        points=_whole_number(block, "phase_scan", "points", 5),
        rad_per_mw=_number(block, "phase_scan", "rad_per_mw"),
        offset_rad=_number(block, "phase_scan", "offset_rad"))


def _detector_pattern(block: dict) -> tuple | None:
    """None, or 8 detector efficiencies in (0, 1] as `DetectorModel` requires."""
    pattern = block["detector_pattern"]
    if pattern is None:
        return None
    values = _fraction_list(pattern, "ablation.detector_pattern")
    _require(len(values) == 8 and min(values) > 0.0,
             f"ablation.detector_pattern must list 8 efficiencies in (0, 1], "
             f"got {pattern!r}")
    return values


def _whole_number(block: dict, name: str, key: str, minimum: int) -> int:
    value = block[key]
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= minimum,
             f"{name}.{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _simulate_labels(block: dict) -> tuple:
    tokens = block["settings"]
    _require(isinstance(tokens, (list, tuple)) and len(tokens) == 4
             and all(isinstance(t, str) for t in tokens),
             f"simulate.settings must list 4 measurement labels, got {tokens!r}")
    try:
        return tuple(PauliLabel.from_token(t) for t in tokens)
    except ValueError as exc:
        raise ConfigError(f"simulate.settings: {exc}") from exc


def _bell_sweep_photon(block: dict) -> str:
    photon = block["photon"]
    _require(isinstance(photon, str) and photon.upper() in ("A", "B", "C", "D"),
             f"bell_sweep.photon must be one of A, B, C, D, got {photon!r}")
    return photon.upper()


def parse_config(data: dict) -> ExperimentConfig:
    _require(isinstance(data, dict), "config must be a JSON object")
    _require(data.get("schema") == SCHEMA, f"config schema must be {SCHEMA!r}")
    merged = default_config()
    for key, value in data.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = value
    try:
        src = merged["source"]
        spec = SourceSpec(
            g2=float(src["g2"]),
            measured_overlaps={k: float(v) for k, v in src["overlaps"].items()},
            eta=float(src["eta"]),
            distinguishability_scale=tuple(float(s)
                                           for s in src["distinguishability_scale"]),
        )
        if all(v == 1.0 for v in spec.measured_overlaps.values()):
            fractions = MasterFractions.perfect()
        else:
            fractions = fit_master_fractions(spec.measured_overlaps)
        chip_block = merged["chip"]
        stage = PreparationStage(
            path_phases=tuple(float(p) for p in chip_block["path_phases"]),
            reflectivities=tuple(float(r) for r in chip_block["reflectivities"]),
        )
        det = DetectorModel(efficiencies=tuple(
            float(e) for e in merged["detectors"]["efficiencies"]))
        rate = merged["rate"]
        budget = LossBudget(
            repetition_rate_hz=float(rate["repetition_rate_hz"]),
            filling_factor=float(rate["filling_factor"]),
            first_lens_brightness=float(rate["first_lens_brightness"]),
            eta_coupling=float(rate["eta_coupling"]),
            eta_demux=float(rate["eta_demux"]),
            eta_chip=float(rate["eta_chip"]),
            eta_detector=float(rate["eta_detector"]),
        )
        calibration_file = merged.get("heater_calibration_file")
        try:
            calibration = (HeaterCalibration.from_file(calibration_file)
                           if calibration_file else HeaterCalibration())
        except OSError as exc:
            raise ConfigError(f"cannot read heater calibration file: {exc}") from exc
        targets = CalibrateTargets(
            alpha_rad=_phase_targets(merged["calibrate"], "alpha_targets_rad"),
            phi_rad=_phase_targets(merged["calibrate"], "phi_targets_rad"))
        simulate_labels = _simulate_labels(merged["simulate"])
        phase_scan = _phase_scan(merged["phase_scan"])
        photon = _bell_sweep_photon(merged["bell_sweep"])
        scales = _fraction_list(merged["bell_sweep"]["scales"], "bell_sweep.scales")
        qss_rounds = _whole_number(merged["qss"], "qss", "rounds", 1)
        public_fraction = _number(merged["qss"], "qss", "public_fraction")
        _require(0.0 <= public_fraction <= 1.0,
                 f"qss.public_fraction must lie in [0, 1], got {public_fraction!r}")
        tomography_resamples = _whole_number(merged["tomography"], "tomography",
                                             "resamples", 0)
        ablation_resamples = _whole_number(merged["ablation"], "ablation",
                                           "resamples", 0)
        detector_pattern = _detector_pattern(merged["ablation"])
        seed = int(merged["seed"])
        shots = int(merged["shots_per_setting"])
        _require(shots >= 1, "shots_per_setting must be positive")
        exact = merged["exact_probabilities"]
        _require(isinstance(exact, bool), "exact_probabilities must be true or false")
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    ctx = SimContext(spec=spec, fractions=fractions, stage=stage, detectors=det)
    return ExperimentConfig(raw=merged, context=ctx, seed=seed,
                            shots_per_setting=shots, exact_probabilities=exact,
                            budget=budget, calibration=calibration,
                            calibrate=targets, simulate_labels=simulate_labels,
                            phase_scan=phase_scan, bell_sweep_photon=photon,
                            bell_sweep_scales=scales, qss_rounds=qss_rounds,
                            qss_public_fraction=public_fraction,
                            tomography_resamples=tomography_resamples,
                            ablation_resamples=ablation_resamples,
                            ablation_detector_pattern=detector_pattern)


def load_config(path: str | Path) -> ExperimentConfig:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


def dump_config(data: dict) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"
