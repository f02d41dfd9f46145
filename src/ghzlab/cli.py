"""Batch command-line interface.

Every command reads one JSON config, writes its results as JSON/CSV into
the output directory, and records a manifest naming inputs, seed, package
versions and result files, last, so that an output directory without one
holds a run that did not finish.  Outputs are byte-identical across reruns
with the same config and seed; only the manifest carries a timestamp.

Exit codes: 0 success, 2 configuration error (an output that cannot be
written among them), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, experiments, qss
from .chip import heater_forward, heater_solve
from .config import ExperimentConfig, default_config, dump_config, load_config
from .errors import ConfigError, FitError, SolverError
from .simulator import OUTCOME_LABELS, coincidence_rate, qubit_distribution

RESULT_SCHEMA = "ghzlab-result/v1"


def _write_json(path: Path, payload: dict):
    payload = {"schema": RESULT_SCHEMA, **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_manifest(outdir: Path, command: str, cfg_path: str, cfg: ExperimentConfig,
                    results: list):
    manifest = {
        "schema": "ghzlab-manifest/v1",
        "command": command,
        "config": str(cfg_path),
        "seed": cfg.seed,
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "versions": {"ghzlab": __version__, "numpy": np.__version__},
        "results": sorted(str(r.name) for r in results),
    }
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2,
                                                     sort_keys=True) + "\n")


def cmd_simulate(cfg: ExperimentConfig, outdir: Path) -> list:
    labels = cfg.simulate_labels
    dist = qubit_distribution(cfg.context, labels)
    csv_path = outdir / "distribution.csv"
    json_path = outdir / "distribution.json"
    csv_path.write_text(dist.to_csv())
    _write_json(json_path, {"settings": [lab.token for lab in labels],
                            **dist.to_json_dict()})
    return [csv_path, json_path]


def cmd_phase_scan(cfg: ExperimentConfig, outdir: Path) -> list:
    scan = cfg.phase_scan
    powers = np.linspace(scan.power_min_mw, scan.power_max_mw, scan.points)
    points, fit = experiments.run_phase_scan(
        cfg.context, powers, scan.rad_per_mw, scan.offset_rad,
        shots=cfg.shots, seed=cfg.seed)
    csv_path = outdir / "scan.csv"
    csv_path.write_text("power_mw,phase_witness\n" +
                        "".join(f"{p!r},{w!r}\n" for p, w in points))
    json_path = outdir / "fit.json"
    _write_json(json_path, {
        "amplitude": fit.amplitude,
        "rad_per_mw": fit.rad_per_unit,
        "phase_offset_rad": fit.phase_offset,
        "power_at_max_mw": fit.power_at_max,
    })
    return [csv_path, json_path]


def _entry_text(v: float) -> str:
    """``v`` to four decimals, with a negative zero printed as 0.0000."""
    return f"{v:8.4f}".replace("-0.0000", " 0.0000")


def _density_matrix_text(rho: np.ndarray) -> str:
    lines = []
    for part, mat in (("real", rho.real), ("imag", rho.imag)):
        lines.append(f"# {part} part, rows/columns ordered {OUTCOME_LABELS[0]}.."
                     f"{OUTCOME_LABELS[-1]}")
        lines.append("      " + " ".join(f"{lab:>8}" for lab in OUTCOME_LABELS))
        for lab, row in zip(OUTCOME_LABELS, mat):
            lines.append(f"{lab}  " + " ".join(map(_entry_text, row)))
        lines.append("")
    return "\n".join(lines)


def cmd_tomography(cfg: ExperimentConfig, outdir: Path) -> list:
    ts = experiments.run_tomography(cfg.context, shots=cfg.shots, seed=cfg.seed)
    report, mle = experiments.tomography_report(
        ts, n_resamples=cfg.tomography_resamples, seed=cfg.seed + 1,
        exact_shots=cfg.shots_per_setting if cfg.shots is None else None)
    counts_path = outdir / "tomography.json"
    _write_json(counts_path, ts.to_json_dict())
    rho_path = outdir / "rho.json"
    _write_json(rho_path, {"real": mle.rho.real.tolist(),
                           "imag": mle.rho.imag.tolist()})
    text_path = outdir / "rho.txt"
    text_path.write_text(_density_matrix_text(mle.rho))
    report_path = outdir / "report.json"
    _write_json(report_path, {
        "fidelity": report.fidelity,
        "purity": report.purity,
        "fidelity_error": report.fidelity_error,
        "purity_error": report.purity_error,
        "theta_star_rad": report.theta_star,
        "fidelity_at_theta_star": report.fidelity_at_theta_star,
        "mle_iterations": mle.iterations,
        "mle_converged": mle.converged,
        "mle_certificate": mle.certificate,
        "mle_resamples_converged": report.mle_resamples_converged,
    })
    return [counts_path, rho_path, text_path, report_path]


def cmd_witness(cfg: ExperimentConfig, outdir: Path) -> list:
    result = experiments.run_witness(cfg.context, shots=cfg.shots, seed=cfg.seed)
    path = outdir / "witness.json"
    _write_json(path, {
        "witness": result.value,
        "fidelity_lower_bound": result.fidelity_lower_bound,
        "g1_expectation": result.g1_expectation,
        "stabilizer_indicator": result.stabilizer_indicator,
        "entangled": result.value < 0.0,
    })
    return [path]


def cmd_bell(cfg: ExperimentConfig, outdir: Path) -> list:
    result = experiments.run_bell(cfg.context, shots=cfg.shots, seed=cfg.seed)
    path = outdir / "bell.json"
    _write_json(path, {
        "value": result.value,
        "classical_bound": 6.0,
        "violated": result.value > 6.0,
        "expectations": list(result.expectations),
        "standard_error": result.standard_error,
    })
    return [path]


def cmd_bell_sweep(cfg: ExperimentConfig, outdir: Path) -> list:
    photon = "ABCD".index(cfg.bell_sweep_photon)
    rows = experiments.run_bell_sweep(cfg.context, photon, cfg.bell_sweep_scales)
    csv_path = outdir / "sweep.csv"
    csv_path.write_text("scale,min_pairwise_overlap,bell_value\n" + "".join(
        f"{r['scale']!r},{r['min_pairwise_overlap']!r},{r['bell_value']!r}\n"
        for r in rows))
    json_path = outdir / "sweep.json"
    _write_json(json_path, {"photon": cfg.bell_sweep_photon, "rows": rows})
    return [csv_path, json_path]


def cmd_ablation(cfg: ExperimentConfig, outdir: Path) -> list:
    rows = experiments.run_ablation(cfg.context)
    csv_path = outdir / "ablation.csv"
    csv_path.write_text("row,fidelity,purity\n" + "".join(
        f"{r['row']},{r['fidelity']!r},{r['purity']!r}\n" for r in rows))
    json_path = outdir / "ablation.json"
    _write_json(json_path, {"rows": rows})
    return [csv_path, json_path]


def cmd_qss(cfg: ExperimentConfig, outdir: Path) -> list:
    report, transcript = qss.run_qss(cfg.context, rounds=cfg.qss_rounds, seed=cfg.seed,
                                     public_fraction=cfg.qss_public_fraction)
    csv_path = outdir / "transcript.csv"
    qss.write_transcript_csv(transcript, csv_path)
    json_path = outdir / "qss.json"
    _write_json(json_path, {
        "raw_length": report.raw_length,
        "sifted_length": report.sifted_length,
        "sift_rate": report.sift_rate,
        "qber": report.qber,
        "secure": report.secure,
        "qber_threshold": qss.QBER_THRESHOLD,
        "expected_qber": report.expected_qber,
    })
    return [csv_path, json_path]


def cmd_calibrate(cfg: ExperimentConfig, outdir: Path) -> list:
    alpha_t = list(cfg.calibrate.alpha_rad)
    phi_t = list(cfg.calibrate.phi_rad)
    currents = heater_solve(cfg.calibration, alpha_t, phi_t)
    alpha, phi = heater_forward(cfg.calibration, currents)
    power = float(cfg.calibration.resistances @ (currents ** 2))
    path = outdir / "calibrate.json"
    _write_json(path, {
        "currents_a": currents.tolist(),
        "achieved_alpha_rad": alpha.tolist(),
        "achieved_phi_rad": phi.tolist(),
        "target_alpha_rad": alpha_t,
        "target_phi_rad": phi_t,
        "dissipated_power_w": power,
    })
    return [path]


def cmd_rate(cfg: ExperimentConfig, outdir: Path) -> list:
    rate = coincidence_rate(cfg.budget)
    path = outdir / "rate.json"
    _write_json(path, {
        "four_fold_rate_hz": rate,
        "note": ("Loss-budget product; the reference experiment detected about "
                 "0.5 Hz of useful four-fold events, well below this estimate. "
                 "The gap is dominated by factors outside this multiplicative "
                 "budget (polarization degree and duty-cycle bookkeeping) and "
                 "is reported here rather than reconciled."),
    })
    return [path]


COMMANDS = {
    "simulate": cmd_simulate,
    "phase-scan": cmd_phase_scan,
    "tomography": cmd_tomography,
    "witness": cmd_witness,
    "bell": cmd_bell,
    "bell-sweep": cmd_bell_sweep,
    "ablation": cmd_ablation,
    "qss": cmd_qss,
    "calibrate": cmd_calibrate,
    "rate": cmd_rate,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ghzlab",
        description="Simulated four-photon GHZ chip: generation, tomography, "
                    "entanglement tests, and quantum secret sharing.")
    parser.add_argument("command", choices=("config-init", *COMMANDS))
    parser.add_argument("--config", type=Path, help="config file (not for config-init)")
    parser.add_argument("--out", type=Path, help="output directory, created if missing "
                        "(config-init: file to write instead of stdout)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "config-init" and args.config is not None:
        parser.error("config-init takes no --config")
    if args.command != "config-init" and None in (args.config, args.out):
        parser.error(f"{args.command} needs --config and --out")
    if args.command == "config-init" and args.out is None:
        sys.stdout.write(dump_config(default_config()))
        return 0
    try:
        if args.command == "config-init":
            args.out.write_text(dump_config(default_config()))
            return 0
        cfg = load_config(args.config)
        args.out.mkdir(parents=True, exist_ok=True)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            results = COMMANDS[args.command](cfg, args.out)
        _write_manifest(args.out, args.command, args.config, cfg, results)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    except (SolverError, FitError, FloatingPointError, OverflowError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
