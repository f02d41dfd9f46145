"""Imperfect single-photon source model.

Each of the four inputs A..D receives, per shot, a statistical mixture of
labeled Fock states built from three measured numbers: the multiphoton
figure of merit g2(0), the per-photon end-to-end transmission eta, and the
master fraction x_i (probability that the photon occupies the internal
state shared by all inputs).  Internal states are tracked as integer
labels: 0 is the shared master state, and every subsidiary or noise photon
carries its own label, orthogonal to all the others.

The master fractions are fitted from the four measurable pairwise mean
wavepacket overlaps (AB, AC, BD, CD).  Those four products leave one exact
scaling freedom (scale x_A, x_D by t and x_B, x_C by 1/t): the fit pins it
by the balanced-gauge convention x_A*x_D = x_B*x_C.

A `SourceSpec` owns what derives from it alone: its master fractions
(perfect for four unit overlaps, otherwise fitted, once per overlap set per
process) and, built on first use, its weighted enumeration of labeled
inputs.  The mixture and the enumeration read the spec's own fractions.

The labels are structural.  The master label is shared, and every other
label belongs to one input, so which label groups a joint term holds (the
sets of inputs whose photons share a label) depends only on which of its
six mixture entries each input takes.  A group holds at most one photon
per input, so it is one of the 15 nonempty subsets of the four inputs and
is named by its bitmask everywhere.  One fixed table over the 6^4 joint
entries, built once per process on first use, holds each one's photon
count and a code for its multiset of groups, and a second decodes a code
into its groups.  Only the weights depend on the spec: the outer product
of the four inputs' mixtures, pruned by two masks and summed onto the
multisets with one bincount.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple

import numpy as np

from .errors import FitError

MEASURED_PAIRS = ("AB", "AC", "BD", "CD")
_PAIR_INDEX = {"AB": (0, 1), "AC": (0, 2), "BD": (1, 3), "CD": (2, 3)}

MASTER_LABEL = 0


def subsidiary_label(input_index: int) -> int:
    return 1 + 2 * input_index


def noise_label(input_index: int) -> int:
    return 2 + 2 * input_index


@dataclass(frozen=True)
class SourceSpec:
    """Measured source parameters.

    ``distinguishability_scale`` multiplies the master fraction of each
    photon before use; dialing one entry from 1 to 0 makes that photon
    fully distinguishable from the others.  ``fractions`` are the master
    fractions the overlaps give; a spec made with ``dataclasses.replace``
    shares them but builds its own ``enumeration``.
    """

    g2: float = 0.005
    measured_overlaps: dict = field(default_factory=lambda: {
        "AB": 0.924, "AC": 0.915, "BD": 0.881, "CD": 0.921})
    eta: float = 0.039
    distinguishability_scale: tuple = (1.0, 1.0, 1.0, 1.0)
    fractions: MasterFractions = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0.0 <= self.g2 < 0.5:
            raise ValueError(f"g2 must lie in [0, 0.5), got {self.g2}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1], got {self.eta}")
        if set(self.measured_overlaps) != set(MEASURED_PAIRS):
            raise ValueError(f"overlaps must cover exactly pairs {MEASURED_PAIRS}")
        for k, v in self.measured_overlaps.items():
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"overlap {k} out of [0,1]: {v}")
        if len(self.distinguishability_scale) != 4:
            raise ValueError("need 4 distinguishability scales")
        for s in self.distinguishability_scale:
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"distinguishability scale out of [0,1]: {s}")
        object.__setattr__(self, "fractions", _master_fractions(
            *(self.measured_overlaps[p] for p in MEASURED_PAIRS)))

    @classmethod
    def ideal(cls) -> "SourceSpec":
        return cls(g2=0.0, measured_overlaps={p: 1.0 for p in MEASURED_PAIRS}, eta=1.0)

    @cached_property
    def enumeration(self) -> JointInputEnumeration:
        """The weighted labeled inputs of this source, built on first use."""
        return enumerate_joint_inputs(self)


@dataclass(frozen=True)
class EmissionProbabilities:
    p0: float
    p1: float
    p2: float


@dataclass(frozen=True)
class MasterFractions:
    x: tuple  # (x_A, x_B, x_C, x_D)

    def __post_init__(self):
        if len(self.x) != 4:
            raise ValueError("need 4 master fractions")
        for v in self.x:
            if not -1e-12 <= v <= 1.0 + 1e-12:
                raise ValueError(f"master fraction out of [0,1]: {v}")
        object.__setattr__(self, "x", tuple(float(min(max(v, 0.0), 1.0)) for v in self.x))

    @classmethod
    def perfect(cls) -> "MasterFractions":
        return cls(x=(1.0, 1.0, 1.0, 1.0))


def solve_pair_probabilities(g2: float) -> EmissionProbabilities:
    """Emission probabilities from g2(0) with deterministic excitation.

    Solves 2*p2/(p1+2*p2)^2 = g2 with p0 = 0 and p1 + p2 = 1, keeping the
    root with p2 in [0, 1/2).
    """
    if not 0.0 <= g2 < 0.5:
        raise ValueError(f"g2 must lie in [0, 0.5), got {g2}")
    if g2 == 0.0:
        return EmissionProbabilities(0.0, 1.0, 0.0)
    # g*(1+p2)^2 = 2*p2  ->  g*p2^2 + (2g-2)*p2 + g = 0
    p2 = ((1.0 - g2) - math.sqrt(1.0 - 2.0 * g2)) / g2
    return EmissionProbabilities(0.0, 1.0 - p2, p2)


def _balance_gauge(x: np.ndarray) -> np.ndarray:
    """Slide along the exact scaling freedom to the point with x_A*x_D = x_B*x_C.

    The slide multiplies (x_A, x_D) by t and divides (x_B, x_C) by t, which
    leaves all four measured products untouched; t is clipped so the result
    stays inside [0, 1]^4.
    """
    a, b, c, d = x
    if min(a, b, c, d) <= 1e-12:
        return x
    t = ((b * c) / (a * d)) ** 0.25
    t_min = max(b, c)
    t_max = min(1.0 / a, 1.0 / d)
    if t_min > t_max:
        return x
    t = min(max(t, t_min), t_max)
    return np.array([a * t, b / t, c / t, d * t])


def _fit_objective(x: np.ndarray, measured: dict) -> float:
    """Sum of squared pair residuals, added in AB, AC, BD, CD order."""
    return sum((x[i] * x[j] - measured[p]) ** 2 for p, (i, j) in _PAIR_INDEX.items())


def _box_bound_candidates(m: np.ndarray):
    """Points with a unit row and a unit column fraction that may fit ``m`` best.

    Rows are (x_A, x_D) and columns (x_B, x_C).  With row i and column j at
    1, the free row value p and column value q minimize
    (q - a1)^2 + (p - a2)^2 + (pq - a3)^2.  Its stationary points in the
    interior solve a quintic in p with q = (a1 + a3 p) / (1 + p^2); on each
    edge of [0, 1]^2 the objective is a convex quadratic in the free value.
    """
    for i, j in itertools.product(range(2), repeat=2):
        a1, a2, a3 = m[i, 1 - j], m[1 - i, j], m[1 - i, 1 - j]
        roots = np.roots([1.0, -a2, 2.0, a1 * a3 - 2.0 * a2,
                          1.0 + a1 * a1 - a3 * a3, -a2 - a1 * a3])
        ps = [r.real for r in roots if abs(r.imag) <= 1e-9 and 0.0 <= r.real <= 1.0]
        pairs = [(p, min(max((a1 + a3 * p) / (1.0 + p * p), 0.0), 1.0))
                 for p in ps + [0.0, 1.0]]
        pairs += [(min(max((a2 + a3 * q) / (1.0 + q * q), 0.0), 1.0), q)
                  for q in (0.0, 1.0)]
        for p, q in pairs:
            rows, cols = [1.0, 1.0], [1.0, 1.0]
            rows[1 - i], cols[1 - j] = p, q
            yield np.array([rows[0], cols[0], cols[1], rows[1]])


def fit_master_fractions(measured: dict) -> MasterFractions:
    """Least-squares fit of the four master fractions to the measured overlaps.

    The measured products are the entries of the outer product of the rows
    (x_A, x_D) and the columns (x_B, x_C), so the fit is the best rank-1
    approximation s u v^T of M = [[AB, AC], [BD, CD]] (Eckart-Young), whose
    singular vectors are nonnegative.  It lies in [0, 1]^4 whenever
    s max(u) max(v) <= 1; otherwise the box binds with one row and one
    column fraction at 1, and the fit is the best of `_box_bound_candidates`.
    The scaling freedom left by the four products is resolved to the
    balanced gauge.
    """
    if set(measured) != set(MEASURED_PAIRS):
        raise FitError(f"overlaps must cover exactly pairs {MEASURED_PAIRS}")
    for k, v in measured.items():
        if not 0.0 <= v <= 1.0:
            raise FitError(f"overlap {k} out of [0,1]: {v}")
    m = np.array([[measured["AB"], measured["AC"]], [measured["BD"], measured["CD"]]])
    u, s, vt = np.linalg.svd(m)
    rows = np.sqrt(s[0]) * np.abs(u[:, 0])
    cols = np.sqrt(s[0]) * np.abs(vt[0])
    if rows.max() * cols.max() <= 1.0:
        t = min(max(1.0, cols.max()), 1.0 / rows.max()) if rows.max() > 0.0 else 1.0
        best_x = np.array([rows[0] * t, cols[0] / t, cols[1] / t, rows[1] * t])
    else:
        best_x = min(_box_bound_candidates(m), key=lambda x: _fit_objective(x, measured))
    return MasterFractions(x=tuple(_balance_gauge(best_x)))


@cache
def _master_fractions(ab: float, ac: float, bd: float, cd: float) -> MasterFractions:
    """Perfect fractions for four unit overlaps, otherwise the least-squares fit."""
    if ab == ac == bd == cd == 1.0:
        return MasterFractions.perfect()
    return fit_master_fractions(dict(zip(MEASURED_PAIRS, (ab, ac, bd, cd))))


# The six entries of one input's mixture, in order, as the internal states of
# their photons: M the master state all inputs share, S the input's own
# subsidiary state and N its own noise state.
_ENTRY_STATES = ("", "M", "S", "N", "MN", "SN")


def input_mixture(spec: SourceSpec, input_index: int) -> list[tuple[float, tuple]]:
    """Six-term labeled mixture for one input, as (weight, photon labels).

    Weights are exact polynomials in (eta, p1, p2, x_i), x_i the spec's
    master fraction of the input, and sum to one.
    """
    probs = solve_pair_probabilities(spec.g2)
    p1, p2 = probs.p1, probs.p2
    eta = spec.eta
    xi = spec.fractions.x[input_index] * spec.distinguishability_scale[input_index]
    w_vac = 1.0 - (eta * p1 + eta ** 2 * p2 + 2.0 * eta * (1.0 - eta) * p2)
    w_master = eta * xi * p1 + eta * (1.0 - eta) * xi * p2
    w_dist = eta * (1.0 - xi) * p1 + eta * (1.0 - eta) * (1.0 - xi) * p2
    w_noise = eta * (1.0 - eta) * p2
    w_pair_master = eta ** 2 * xi * p2
    w_pair_dist = eta ** 2 * (1.0 - xi) * p2
    label = {"M": MASTER_LABEL, "S": subsidiary_label(input_index),
             "N": noise_label(input_index)}
    weights = (w_vac, w_master, w_dist, w_noise, w_pair_master, w_pair_dist)
    return [(w, tuple(label[state] for state in states))
            for w, states in zip(weights, _ENTRY_STATES)]


class _CombinationTable(NamedTuple):
    """The 6^4 joint entries of the four inputs, in ``itertools.product`` order.

    A label group is a nonempty set of inputs, coded as its bitmask (bit i
    for input i).  ``multiset[k]`` codes the multiset of combination k's
    groups below 1296: 81 times the master group's bitmask when it spans
    two inputs or more, plus the count of each one-input group in base 3.
    """

    entries: np.ndarray  # (1296, 4) int8: the entry each input takes
    photons: np.ndarray  # (1296,) int8
    multiset: np.ndarray  # (1296,) int16


@cache
def _combination_table() -> _CombinationTable:
    """The fixed label structure of every joint entry, built on first use."""
    # entry[i, k] is the entry input i takes in combination k
    entry = np.indices((len(_ENTRY_STATES),) * 4).reshape(4, -1)

    def per_input(test):
        return np.array([test(states) for states in _ENTRY_STATES])[entry]

    inputs = np.arange(4)[:, None]
    own = per_input(lambda states: sum(state in "SN" for state in states))
    master = (per_input(lambda states: "M" in states) << inputs).sum(axis=0)
    singles = own + (master == 1 << inputs)
    spans = np.where(master & (master - 1), master, 0)
    table = _CombinationTable(
        entries=entry.T.astype(np.int8),
        photons=per_input(len).sum(axis=0).astype(np.int8),
        multiset=(81 * spans + (singles * 3 ** inputs).sum(axis=0)).astype(np.int16))
    for array in table:
        array.setflags(write=False)
    return table


@cache
def _multiset_groups() -> np.ndarray:
    """Row c lists the label groups of multiset code c as bitmasks, padded with 0.

    The spanning group comes first, then each input's one-input groups in
    input order.  Codes no combination takes decode to rows of no meaning.
    """
    code = np.arange(6 ** 4)
    singles = code[:, None] // 3 ** np.arange(4) % 3
    copies = np.where(singles[:, :, None] > np.arange(2), 1 << np.arange(4)[:, None], 0)
    slots = np.concatenate([code[:, None] // 81, copies.reshape(-1, 8)], axis=1)
    # move each row's groups to its front, keeping their order
    filled = slots != 0
    rows, _ = np.nonzero(filled)
    groups = np.zeros(slots.shape, dtype=np.uint8)
    groups[rows, np.cumsum(filled, axis=1)[filled] - 1] = slots[filled]
    groups.setflags(write=False)
    return groups


@dataclass(frozen=True)
class LabelGroups:
    """Input terms aggregated by their multiset of label groups.

    A label group is a set of inputs whose photons share one internal
    label, coded as its bitmask (bit i for input i, so one of 1..15);
    photons of different groups never interfere.  Row ``t`` of ``index``
    lists the groups of multiset ``t``, padded with 0, and ``weights[t]``
    is the summed weight of its terms.
    """

    weights: np.ndarray
    index: np.ndarray


@dataclass(frozen=True)
class JointInputEnumeration:
    """The kept terms of a source's joint input mixture.

    Row k of ``terms`` gives the mixture entry each input takes in the k-th
    kept term, in product order.  ``raw_term_count`` counts all joint
    terms, ``photon_filtered_count`` those with four photons or more, and
    ``retained_weight`` is the kept terms' weight, summed in order.
    ``label_groups`` aggregates the kept terms by label-group multiset.
    """

    terms: np.ndarray
    raw_term_count: int
    photon_filtered_count: int
    retained_weight: float
    label_groups: LabelGroups


def _label_groups(codes: np.ndarray, weights: np.ndarray) -> LabelGroups:
    """Terms with multiset ``codes`` and ``weights``, aggregated by multiset.

    Multisets come in ascending code order, and each one's weight is summed
    in term order.
    """
    present = np.flatnonzero(np.bincount(codes, minlength=6 ** 4))
    # .astype: bincount of no terms at all is an integer array
    summed = np.bincount(codes, weights=weights, minlength=6 ** 4).astype(float, copy=False)
    index = _multiset_groups()[present]
    return LabelGroups(summed[present], index[:, index.any(axis=0)])


def enumerate_joint_inputs(spec: SourceSpec, weight_cutoff: float = 1e-8
                           ) -> JointInputEnumeration:
    """Weighted product of the four input mixtures, pruned for simulation.

    Terms with fewer than four photons can never pass post-selection and
    are dropped, as are terms lighter than ``weight_cutoff`` times the
    heaviest surviving term.  The retained weight is recorded so that
    conditional probabilities can be normalized downstream.
    """
    table = _combination_table()
    a, b, c, d = (np.array([w for w, _ in input_mixture(spec, i)]) for i in range(4))
    # a term's weight is its four factors multiplied in input order
    weights = np.multiply.outer(np.multiply.outer(np.multiply.outer(a, b), c), d).ravel()
    four_photon = table.photons >= 4
    w_max = weights[four_photon].max()
    rows = np.flatnonzero(four_photon & (weights >= weight_cutoff * w_max)
                          & (w_max > 0.0))
    kept = weights[rows]
    return JointInputEnumeration(
        terms=table.entries[rows], raw_term_count=len(weights),
        photon_filtered_count=int(np.count_nonzero(four_photon)),
        retained_weight=float(np.cumsum(kept)[-1]) if len(kept) else 0.0,
        label_groups=_label_groups(table.multiset[rows], kept))
