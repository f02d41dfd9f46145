"""Multi-photon propagation through the chip and threshold detection.

Photons are tracked as (spatial mode, internal label) pairs.  Photons with
equal labels interfere; a label group (the photons sharing one label)
scatters independently of every other group.  Detection is modeled as
independent binomial loss per output mode followed by threshold (click /
no-click) readout; an event is kept only when every qubit's mode pair shows
exactly one clicked detector.

The post-selected outcomes come from a click-mask generating function, not
from an output histogram.  For a label group with input columns
A = U[:, modes] and an output mode set S, the probability that no detected
photon lands outside S is perm(A^dagger D_S A), where D_S is diagonal with 1
on S and 1 - eta_j elsewhere (Shchesnovich, PRL 116, 123601, 2016); the
binomial loss is folded in exactly.  A term's value is the product over its
label groups.  Evaluated on the 81 masks S that hold at most one mode per
qubit pair, these values give each outcome's probability by
inclusion-exclusion over the subsets of its four clicked detectors (Quesada
et al., PRA 98, 062322, 2018); the discard mass is the rest.  A label group
is a set of inputs, one of 15; a setting evaluates those its table holds,
with one stacked permanent per group size (at most 4x4, a sum over
permutations) over the masks' Grams of the four input columns.

A `SimContext` is the simulator's one input: source, chip stage and
detectors.  The source owns its weighted enumeration of labeled inputs,
built on first use, so every setting simulated with one source scatters the
same enumeration, whatever the chip stage or detectors.  The simulator reads
only the enumeration's `LabelGroups` table: each multiset of label groups,
as input bitmasks, and its summed weight.

`scatter_distribution` and `apply_detector_efficiency` remain as the
occupation-level model: the full output histogram of one labeled input and
its binomial thinning.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np

from .chip import PreparationStage, full_unitary
from .qmath import OUTCOME_BITS, permanent
from .source import LabelGroups, SourceSpec

OUTCOME_LABELS = tuple(format(k, "04b") for k in range(16))


@dataclass
class OutcomeDistribution:
    """Probabilities of the 16 post-selected outcomes plus the discarded mass."""

    probs: np.ndarray
    discard_mass: float

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.probs.shape != (16,):
            raise ValueError("need 16 outcome probabilities")

    @property
    def success_probability(self) -> float:
        return float(self.probs.sum())

    def conditional(self) -> np.ndarray:
        total = self.probs.sum()
        if total <= 0.0:
            raise ValueError("no post-selected probability mass")
        return self.probs / total

    def to_json_dict(self) -> dict:
        return {
            "outcomes": {lab: float(p) for lab, p in zip(OUTCOME_LABELS, self.probs)},
            "discard_mass": float(self.discard_mass),
            "success_probability": self.success_probability,
        }

    def to_csv(self) -> str:
        lines = ["outcome,probability"]
        lines += [f"{lab},{float(p)!r}" for lab, p in zip(OUTCOME_LABELS, self.probs)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DetectorModel:
    """Per-mode detection efficiencies of the 8 threshold detectors."""

    efficiencies: tuple = (1.0,) * 8

    def __post_init__(self):
        if len(self.efficiencies) != 8:
            raise ValueError("need 8 detector efficiencies")
        for e in self.efficiencies:
            if not 0.0 < e <= 1.0:
                raise ValueError(f"efficiency out of (0,1]: {e}")

    @classmethod
    def ideal(cls) -> "DetectorModel":
        return cls()

    @property
    def is_ideal(self) -> bool:
        return all(e == 1.0 for e in self.efficiencies)


@dataclass(frozen=True)
class SimContext:
    """One complete noise configuration: source, chip stage and detectors."""

    spec: SourceSpec
    stage: PreparationStage
    detectors: DetectorModel

    @classmethod
    def ideal(cls) -> "SimContext":
        return cls(spec=SourceSpec.ideal(), stage=PreparationStage(),
                   detectors=DetectorModel.ideal())

    def with_state_phase(self, theta: float) -> "SimContext":
        return replace(self, stage=replace(self.stage, state_phase=float(theta)))


@dataclass(frozen=True)
class LossBudget:
    """End-to-end loss budget entering the four-fold coincidence rate."""

    repetition_rate_hz: float = 79e6
    filling_factor: float = 0.67
    first_lens_brightness: float = 0.50
    eta_coupling: float = 0.29
    eta_demux: float = 0.75
    eta_chip: float = 0.54
    eta_detector: float = 0.65

    def __post_init__(self):
        if self.repetition_rate_hz <= 0:
            raise ValueError("repetition rate must be positive")
        for name in ("filling_factor", "first_lens_brightness", "eta_coupling",
                     "eta_demux", "eta_chip", "eta_detector"):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} out of (0,1]: {v}")


def coincidence_rate(budget: LossBudget) -> float:
    """Four-fold coincidence rate: RR * FF * (per-photon transmission)^4 / 8."""
    per_photon = (budget.first_lens_brightness * budget.eta_coupling *
                  budget.eta_demux * budget.eta_chip * budget.eta_detector)
    return budget.repetition_rate_hz * budget.filling_factor * per_photon ** 4 / 8.0


def _occupations(n_photons: int, n_modes: int):
    """All output occupation vectors with the given photon total."""
    for combo in itertools.combinations_with_replacement(range(n_modes), n_photons):
        occ = [0] * n_modes
        for m in combo:
            occ[m] += 1
        yield tuple(occ)


def _group_distribution(u: np.ndarray, modes: tuple) -> dict:
    """Output occupation distribution for identical photons at ``modes``."""
    n_modes = u.shape[0]
    k = len(modes)
    if k == 1:
        col = u[:, modes[0]]
        return {tuple(1 if j == m else 0 for j in range(n_modes)): float(abs(col[m]) ** 2)
                for m in range(n_modes) if abs(col[m]) ** 2 > 0.0}
    cols = u[:, list(modes)]
    in_mult = defaultdict(int)
    for m in modes:
        in_mult[m] += 1
    t_fact = 1.0
    for c in in_mult.values():
        t_fact *= math.factorial(c)
    dist = {}
    for occ in _occupations(k, n_modes):
        rows = [j for j, c in enumerate(occ) for _ in range(c)]
        amp = permanent(cols[rows, :])
        s_fact = 1.0
        for c in occ:
            if c > 1:
                s_fact *= math.factorial(c)
        p = abs(amp) ** 2 / (s_fact * t_fact)
        if p > 0.0:
            dist[occ] = p
    return dist


def scatter_distribution(u: np.ndarray, photons) -> dict:
    """Distribution over output occupations for labeled input photons.

    ``photons`` is a sequence of (input mode, internal label) pairs; photons
    with different labels do not interfere, so their group distributions are
    convolved.
    """
    u = np.asarray(u, dtype=complex)
    n_modes = u.shape[0]
    photons = tuple(photons)
    if not 1 <= len(photons) <= 8:
        raise ValueError("photon count must lie in 1..8")
    groups = defaultdict(list)
    for mode, label in photons:
        groups[label].append(mode)
    dist = {tuple([0] * n_modes): 1.0}
    for label in sorted(groups):
        gdist = _group_distribution(u, tuple(sorted(groups[label])))
        new = defaultdict(float)
        for occ1, p1 in dist.items():
            for occ2, p2 in gdist.items():
                new[tuple(a + b for a, b in zip(occ1, occ2))] += p1 * p2
        dist = dict(new)
    return dist


def _thin_mode(count: int, eta: float):
    """Binomial survival outcomes (kept count, probability) for one mode."""
    if count == 0:
        return ((0, 1.0),)
    return tuple((m, math.comb(count, m) * eta ** m * (1.0 - eta) ** (count - m))
                 for m in range(count + 1))


def apply_detector_efficiency(dist: dict, det: DetectorModel) -> dict:
    """Independent binomial loss on each mode's occupation."""
    if det.is_ideal:
        return dist
    etas = det.efficiencies
    out = defaultdict(float)
    for occ, p in dist.items():
        branches = [(tuple(), 1.0)]
        for j, n in enumerate(occ):
            branches = [(kept + (m,), q * pm)
                        for kept, q in branches
                        for m, pm in _thin_mode(n, etas[j])]
        for kept, q in branches:
            out[kept] += p * q
    return dict(out)


def _mask_tables() -> tuple[np.ndarray, np.ndarray]:
    """The 81 click masks as mode sets, and the 16x81 inclusion-exclusion matrix.

    A mask picks, per qubit pair, no mode, the upper rail or the lower rail.
    Outcome b clicks the rail ``b_k`` of each pair k (upper = 0); its
    probability sums the masks inside its clicked set, signed by the parity
    of the pairs the mask leaves empty.
    """
    choices = np.array(list(itertools.product(range(3), repeat=4)))
    modes = np.zeros((len(choices), 8), dtype=bool)
    modes[:, 0::2] = choices == 1
    modes[:, 1::2] = choices == 2
    inside = ((choices[None] == 0)
              | (choices[None] == 1 + OUTCOME_BITS[:, None])).all(axis=2)
    sign = (-1.0) ** (choices == 0).sum(axis=1)
    return modes, np.where(inside, sign, 0.0)


_MASK_MODES, _INCLUSION_EXCLUSION = _mask_tables()

# Cancellation in the inclusion-exclusion sum leaves outcomes that should be
# exactly zero at about -1e-16 times the largest mask value; anything more
# negative than this is a genuine numerical failure.
_ROUNDOFF_TOL = 1e-12

# The round-off of the inclusion-exclusion sum is at most eps times its
# absolute sum.  With small detector efficiencies every mask value is close
# to 1 and the post-selected mass is their tiny difference; once the bound
# exceeds this fraction of that mass the outcomes are not trustworthy.
_CANCELLATION_TOL = 1e-6


# For each group size k, the label groups of k inputs (bit i for input i,
# in mode 2i) and their inputs, one row per group.
_GROUPS_BY_SIZE = tuple(
    (np.array([sum(1 << i for i in c) for c in combos]), np.array(combos))
    for combos in (list(itertools.combinations(range(4), k)) for k in range(1, 5)))


def outcome_distribution(u: np.ndarray, table: LabelGroups,
                         det: DetectorModel = DetectorModel.ideal()
                         ) -> OutcomeDistribution:
    """Post-selected outcomes of the label-group table's terms scattered by ``u``.

    Evaluates the table's label groups on all 81 masks, with one stacked
    permanent per group size over the masks' Grams of the input columns
    (row 0 of the values, for padding, is ones), multiplies the groups of
    each label-group multiset, and applies inclusion-exclusion.  The
    discard mass is one minus the post-selected mass, so the weight missing
    from the table is counted as discarded.
    Raises ``FloatingPointError`` when round-off leaves a probability below
    tolerance, no post-selected mass at all, or a round-off bound above
    ``_CANCELLATION_TOL`` of the post-selected mass.
    """
    a = np.asarray(u, dtype=complex)[:, 0::2]
    d = np.where(_MASK_MODES, 1.0, 1.0 - np.asarray(det.efficiencies, dtype=float))
    # Each mask's A^dag D_S A as rows of one (81*4, 8) @ (8, 4) product.
    gram = ((a.conj().T * d[:, None, :]).reshape(-1, 8) @ a).reshape(-1, 4, 4)
    used = np.bincount(table.index.ravel(), minlength=16) > 0
    values = np.ones((16, len(_MASK_MODES)))
    for groups, inputs in _GROUPS_BY_SIZE:
        held = used[groups]
        if held.any():
            values[groups[held]] = permanent(
                gram[:, inputs[held, :, None], inputs[held, None, :]]).real.T
    products = np.ones((len(table.weights), len(_MASK_MODES)))
    for column in table.index.T:
        products *= values[column]
    masks = table.weights @ products
    probs = _INCLUSION_EXCLUSION @ masks
    low = float(probs.min())
    if low < -_ROUNDOFF_TOL:
        raise FloatingPointError(f"inclusion-exclusion gave probability {low:.3e}")
    probs = np.where(probs < 0.0, 0.0, probs)
    if not probs.any():
        raise FloatingPointError("no post-selected probability mass")
    mass = float(probs.sum())
    roundoff = np.finfo(float).eps * float(
        (np.abs(_INCLUSION_EXCLUSION) @ np.abs(masks)).sum())
    if roundoff > _CANCELLATION_TOL * mass:
        raise FloatingPointError(f"inclusion-exclusion round-off {roundoff:.3e} is more "
                                 f"than {_CANCELLATION_TOL:g} of the post-selected "
                                 f"mass {mass:.3e}")
    return OutcomeDistribution(probs=probs, discard_mass=1.0 - mass)


def qubit_distribution(ctx: SimContext, labels) -> OutcomeDistribution:
    """End-to-end outcome distribution of one setting, four measurement labels.

    The weight that the input enumeration dropped (fewer than four photons,
    or negligible terms) is accounted to the discard mass, so the total
    probability including discards is one.
    """
    return outcome_distribution(full_unitary(ctx.stage, labels),
                                ctx.spec.enumeration.label_groups, ctx.detectors)


def sample_counts(dist: OutcomeDistribution, shots: int, seed) -> np.ndarray:
    """Multinomial draw of post-selected events from the conditional distribution."""
    if shots < 1:
        raise ValueError("shots must be positive")
    p = dist.conditional()
    rng = np.random.default_rng(seed)
    return rng.multinomial(shots, p / p.sum())
