"""Named experiments built on the simulator and analysis layers.

Every run takes one `SimContext` (source, chip stage, detectors), imported
here from the simulator.  The source owns its master fractions and input
enumeration, and the stage its unitary, so the settings of a run share one
of each, and the points of a phase scan one enumeration.  Every run's
counts are one `CountTable`, a row per setting; an exact run's rows are
its conditional probabilities.  All runs are deterministic
given a master seed: a sampled run gives its i-th setting the i-th child of
that seed, and an exact run needs none.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .analysis import (PHASE_WITNESS_SETTINGS, BellResult, CountTable, MleResult,
                       PhaseScanFit, WitnessResult, bell_settings, bell_value,
                       fit_phase_scan, max_fidelity_over_phase, mle_reconstruct,
                       monte_carlo_error, phase_witness, stabilizer_witness,
                       tomography_settings)
from .qmath import PauliLabel, fidelity_to_pure, ghz4, purity
from .simulator import DetectorModel, SimContext, qubit_distribution, sample_counts
from .source import MEASURED_PAIRS


def _count_table(ctx: SimContext, label_tuples: list, shots: int | None,
                 seeds) -> CountTable:
    """Row i: setting i's exact conditional probabilities, or with ``shots``
    set a multinomial sample of that many post-selected events drawn from
    ``seeds[i]``."""
    rows = []
    for labels, seed in zip(label_tuples, seeds):
        dist = qubit_distribution(ctx, labels)
        rows.append(dist.conditional() if shots is None
                    else sample_counts(dist, shots, seed))
    return CountTable(label_tuples, rows)


def _child_seeds(shots: int | None, seed, n: int) -> list:
    """No seeds for an exact run; otherwise ``n`` children of ``seed``."""
    return [None] * n if shots is None else np.random.SeedSequence(seed).spawn(n)


def measurement_records(ctx: SimContext, label_tuples, shots: int | None,
                        seed) -> CountTable:
    """The count table of ``label_tuples``, setting i sampled from child i of ``seed``."""
    label_tuples = list(label_tuples)
    return _count_table(ctx, label_tuples, shots,
                        _child_seeds(shots, seed, len(label_tuples)))


def run_tomography(ctx: SimContext, shots: int | None = None, seed=None) -> CountTable:
    """Counts of the 81 tomography settings, rows in design order.

    Exact, each row a setting's conditional probabilities, or sampled with
    per-setting child seeds.
    """
    return measurement_records(ctx, tomography_settings(), shots, seed)


@dataclass(frozen=True)
class TomographyReport:
    fidelity: float
    purity: float
    theta_star: float
    fidelity_at_theta_star: float
    fidelity_error: float
    purity_error: float
    mle_resamples_converged: int


def tomography_report(ts: CountTable, n_resamples: int, seed=12345,
                      exact_shots: float | None = None
                      ) -> tuple[TomographyReport, MleResult]:
    """MLE reconstruction plus fidelity/purity and their Monte-Carlo errors.

    The resamples are Poisson draws around ``ts`` itself, or, with
    ``exact_shots`` set for a table of exact probabilities, around
    ``ts.counts * exact_shots``: the events per setting that each resample
    stands for.  Each resample's fit starts on the central fit's face, at
    its ``factor``, read once: a Poisson draw of a zero count is zero, so
    the central fit gives every outcome a resample observes a positive
    probability.  ``mle_resamples_converged`` counts the resample fits that
    met the certificate.
    """
    target = ghz4()
    mle = mle_reconstruct(ts)
    factor = mle.factor
    fid = fidelity_to_pure(mle.rho, target)
    pur = purity(mle.rho)
    theta_star, fid_star = max_fidelity_over_phase(mle.rho)
    resamples_converged = 0

    def fid_pur_stat(resampled):
        nonlocal resamples_converged
        fit = mle_reconstruct(resampled, factor=factor)
        resamples_converged += fit.converged
        return fidelity_to_pure(fit.rho, target), purity(fit.rho)

    if n_resamples >= 2:
        around = (ts if exact_shots is None
                  else CountTable(ts.settings, ts.counts * exact_shots))
        fid_err, pur_err = monte_carlo_error(around, fid_pur_stat, n_resamples, seed)
    else:
        fid_err = pur_err = 0.0
    report = TomographyReport(fidelity=fid, purity=pur, theta_star=theta_star,
                              fidelity_at_theta_star=fid_star,
                              fidelity_error=fid_err, purity_error=pur_err,
                              mle_resamples_converged=resamples_converged)
    return report, mle


def run_witness(ctx: SimContext, shots: int | None = None, seed=None) -> WitnessResult:
    return stabilizer_witness(measurement_records(
        ctx, [(PauliLabel.X,) * 4, (PauliLabel.Z,) * 4], shots, seed))


def run_phase_witness(ctx: SimContext, shots: int | None = None, seed=None) -> float:
    """Phase witness of one setting, sampled from ``seed`` itself."""
    return phase_witness(_count_table(ctx, [PHASE_WITNESS_SETTINGS], shots, [seed]))


def run_bell(ctx: SimContext, shots: int | None = None, seed=None) -> BellResult:
    return bell_value(measurement_records(ctx, bell_settings(), shots, seed),
                      exact=shots is None)


def run_bell_sweep(ctx: SimContext, photon_index: int, scales) -> list:
    """Inequality value as one photon's distinguishability scale is dialed down."""
    rows = []
    for s in scales:
        scale = list(ctx.spec.distinguishability_scale)
        scale[photon_index] = float(s)
        spec = replace(ctx.spec, distinguishability_scale=tuple(scale))
        bell = run_bell(replace(ctx, spec=spec))
        fr = ctx.spec.fractions.x
        overlaps = [fr[photon_index] * s * fr[j] * scale[j]
                    for j in range(4) if j != photon_index]
        rows.append({"scale": float(s),
                     "min_pairwise_overlap": float(min(overlaps)),
                     "bell_value": bell.value})
    return rows


def run_phase_scan(ctx: SimContext, powers_mw, rad_per_mw: float,
                   offset_rad: float, shots: int | None = None, seed=None
                   ) -> tuple[list, PhaseScanFit]:
    """Phase witness versus heater power, plus the cosine fit.

    The scanned heater's phase is linear in electrical power, so the state
    phase at power P is ``rad_per_mw * P + offset_rad``.
    """
    powers = list(powers_mw)
    points = []
    for p, child in zip(powers, _child_seeds(shots, seed, len(powers))):
        theta = rad_per_mw * p + offset_rad
        val = run_phase_witness(ctx.with_state_phase(theta), shots=shots, seed=child)
        points.append((float(p), float(val)))
    return points, fit_phase_scan(points)


# (row, multiphoton, distinguishability, couplers, detectors); the rows with
# detectors run only when the context's detectors are not ideal.
ABLATION_ROWS = (
    ("couplers_only", False, False, True, False),
    ("multiphoton_only", True, False, False, False),
    ("distinguishability_only", False, True, False, False),
    ("combined_no_detectors", True, True, True, False),
    ("detectors_only", False, False, False, True),
    ("combined_all", True, True, True, True),
)


def run_ablation(ctx: SimContext) -> list:
    """Fidelity/purity grid, via exact tomography, with the noise sources of
    ``ctx`` switched on alone or together.

    A source switched off is ideal: multiphoton g2 = 0; distinguishability
    unit overlaps and scales; couplers reflectivity 0.5; ideal detectors.
    ``eta`` and the path phases stay as ``ctx`` has them in every row.
    """
    unit_overlaps = {p: 1.0 for p in MEASURED_PAIRS}
    rows = []
    for name, multiphoton, distinguishability, couplers, detectors in ABLATION_ROWS:
        if detectors and ctx.detectors.is_ideal:
            continue
        spec = ctx.spec if multiphoton else replace(ctx.spec, g2=0.0)
        if not distinguishability:
            spec = replace(spec, measured_overlaps=unit_overlaps,
                           distinguishability_scale=(1.0,) * 4)
        row_ctx = SimContext(
            spec=spec,
            stage=ctx.stage if couplers else replace(ctx.stage, reflectivities=(0.5,) * 4),
            detectors=ctx.detectors if detectors else DetectorModel.ideal())
        report, _ = tomography_report(run_tomography(row_ctx), n_resamples=0)
        rows.append({"row": name, "fidelity": report.fidelity,
                     "purity": report.purity})
    return rows
