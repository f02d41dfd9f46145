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
by the balanced-gauge convention x_A*x_D = x_B*x_C, and `overlap_bounds`
reports the full range the unmeasured BC / AD overlaps can take.

A `SourceSpec` owns what derives from it alone: its master fractions
(perfect for four unit overlaps, otherwise fitted, once per overlap set per
process) and, built on first use, its weighted enumeration of labeled
inputs.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from functools import cache, cached_property

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
        return enumerate_joint_inputs(self, self.fractions)


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


def _objective_and_gradient(x: np.ndarray, targets: dict) -> tuple[float, np.ndarray]:
    """Sum of squared pair residuals and its gradient, for the refinements."""
    a, b, c, d = x.tolist()
    r_ab = a * b - targets["AB"]
    r_ac = a * c - targets["AC"]
    r_bd = b * d - targets["BD"]
    r_cd = c * d - targets["CD"]
    f = r_ab * r_ab + r_ac * r_ac + r_bd * r_bd + r_cd * r_cd
    grad = np.array([b * r_ab + c * r_ac, a * r_ab + d * r_bd,
                     a * r_ac + d * r_cd, b * r_bd + c * r_cd])
    return f, 2.0 * grad


def _grid_starts(measured: dict) -> np.ndarray:
    """The 32 best points of the 11^4 grid, as rows (x_A, x_B, x_C, x_D).

    The objective is scored over the whole grid in one array pass, adding
    the squared residuals in AB, AC, BD, CD order; ties break on the
    coordinates, lexicographically.
    """
    grid = np.linspace(0.0, 1.0, 11)
    xa, xb, xc, xd = (g.ravel() for g in np.meshgrid(grid, grid, grid, grid,
                                                       indexing="ij"))
    f = ((xa * xb - measured["AB"]) ** 2 + (xa * xc - measured["AC"]) ** 2
         + (xb * xd - measured["BD"]) ** 2 + (xc * xd - measured["CD"]) ** 2)
    best = np.lexsort((xd, xc, xb, xa, f))[:32]
    return np.stack((xa[best], xb[best], xc[best], xd[best]), axis=1)


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


def fit_master_fractions(measured: dict) -> MasterFractions:
    """Least-squares fit of the four master fractions to the measured overlaps.

    Deterministic: the objective is scored over a fixed 11^4 grid in one
    array pass, its 32 best points seed L-BFGS-B refinements with the
    analytic gradient, and the scaling freedom left by the four products is
    resolved to the balanced gauge.
    """
    from scipy.optimize import minimize

    if set(measured) != set(MEASURED_PAIRS):
        raise FitError(f"overlaps must cover exactly pairs {MEASURED_PAIRS}")
    for k, v in measured.items():
        if not 0.0 <= v <= 1.0:
            raise FitError(f"overlap {k} out of [0,1]: {v}")
    best_x = None
    best_f = np.inf
    for start in _grid_starts(measured):
        res = minimize(_objective_and_gradient, start, args=(measured,), jac=True,
                       method="L-BFGS-B", bounds=[(0.0, 1.0)] * 4,
                       options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500})
        if res.fun < best_f - 1e-15:
            best_f = res.fun
            best_x = res.x
    if best_x is None:
        raise FitError("master-fraction fit failed to converge")
    return MasterFractions(x=tuple(_balance_gauge(best_x)))


@cache
def _master_fractions(ab: float, ac: float, bd: float, cd: float) -> MasterFractions:
    """Perfect fractions for four unit overlaps, otherwise the least-squares fit."""
    if ab == ac == bd == cd == 1.0:
        return MasterFractions.perfect()
    return fit_master_fractions(dict(zip(MEASURED_PAIRS, (ab, ac, bd, cd))))


def overlap_bounds(measured: dict) -> tuple[tuple[float, float], tuple[float, float]]:
    """Feasible ranges of the unmeasured overlaps BC and AD.

    Ranges of x_B*x_C and x_A*x_D over every x in [0,1]^4 that reproduces
    each measured product no worse than the best fit does, plus a 1e-6
    slack.  Along the exact scaling freedom the residuals are constant, so
    the ranges follow from the slide's box limits, refined by constrained
    optimization.
    """
    from scipy.optimize import minimize

    frac = fit_master_fractions(measured)
    x = np.array(frac.x)
    tol = 1e-6
    dev_star = max(abs(x[i] * x[j] - measured[p]) for p, (i, j) in _PAIR_INDEX.items())

    if min(x) <= 1e-9:
        return ((0.0, 1.0), (0.0, 1.0))

    t_min = max(x[1], x[2])
    t_max = min(1.0 / x[0], 1.0 / x[3])
    bc = x[1] * x[2]
    ad = x[0] * x[3]
    bc_lo, bc_hi = bc / t_max ** 2, bc / t_min ** 2
    ad_lo, ad_hi = ad * t_min ** 2, ad * t_max ** 2

    def max_dev(y):
        return max(abs(y[i] * y[j] - measured[p]) for p, (i, j) in _PAIR_INDEX.items())

    def refine(product_fn, start, sign):
        cons = []
        for p, (i, j) in _PAIR_INDEX.items():
            m, lim = measured[p], dev_star + tol
            cons.append({"type": "ineq",
                         "fun": lambda y, i=i, j=j, m=m, lim=lim: lim - (y[i] * y[j] - m)})
            cons.append({"type": "ineq",
                         "fun": lambda y, i=i, j=j, m=m, lim=lim: lim + (y[i] * y[j] - m)})
        res = minimize(lambda y: sign * product_fn(y), start, method="SLSQP",
                       bounds=[(0.0, 1.0)] * 4, constraints=cons,
                       options={"ftol": 1e-12, "maxiter": 300})
        if res.success and max_dev(res.x) <= dev_star + tol * 1.01:
            return sign * res.fun
        return None

    starts = {
        "bc_lo": np.array([x[0] * t_max, x[1] / t_max, x[2] / t_max, x[3] * t_max]),
        "bc_hi": np.array([x[0] * t_min, x[1] / t_min, x[2] / t_min, x[3] * t_min]),
    }
    val = refine(lambda y: y[1] * y[2], starts["bc_lo"], +1)
    if val is not None:
        bc_lo = min(bc_lo, val)
    val = refine(lambda y: y[1] * y[2], starts["bc_hi"], -1)
    if val is not None:
        bc_hi = max(bc_hi, val)
    val = refine(lambda y: y[0] * y[3], starts["bc_hi"], +1)
    if val is not None:
        ad_lo = min(ad_lo, val)
    val = refine(lambda y: y[0] * y[3], starts["bc_lo"], -1)
    if val is not None:
        ad_hi = max(ad_hi, val)
    clip = lambda v: float(min(max(v, 0.0), 1.0))
    return ((clip(bc_lo), clip(bc_hi)), (clip(ad_lo), clip(ad_hi)))


# Mixture entries: (photon labels in the input's spatial mode) keyed by name.
_VACUUM = ()


def input_mixture(spec: SourceSpec, fractions: MasterFractions, input_index: int
                  ) -> list[tuple[float, tuple]]:
    """Six-term labeled mixture for one input, as (weight, photon labels).

    Weights are exact polynomials in (eta, p1, p2, x_i) and sum to one.
    """
    probs = solve_pair_probabilities(spec.g2)
    p1, p2 = probs.p1, probs.p2
    eta = spec.eta
    xi = fractions.x[input_index] * spec.distinguishability_scale[input_index]
    dist = subsidiary_label(input_index)
    noise = noise_label(input_index)
    w_vac = 1.0 - (eta * p1 + eta ** 2 * p2 + 2.0 * eta * (1.0 - eta) * p2)
    w_master = eta * xi * p1 + eta * (1.0 - eta) * xi * p2
    w_dist = eta * (1.0 - xi) * p1 + eta * (1.0 - eta) * (1.0 - xi) * p2
    w_noise = eta * (1.0 - eta) * p2
    w_pair_master = eta ** 2 * xi * p2
    w_pair_dist = eta ** 2 * (1.0 - xi) * p2
    return [
        (w_vac, _VACUUM),
        (w_master, (MASTER_LABEL,)),
        (w_dist, (dist,)),
        (w_noise, (noise,)),
        (w_pair_master, (MASTER_LABEL, noise)),
        (w_pair_dist, (dist, noise)),
    ]


@dataclass(frozen=True)
class JointInputTerm:
    """One weighted multi-photon input configuration.

    ``photons`` holds (spatial mode, internal label) pairs; photons sharing
    an input mode always carry distinct labels.
    """

    weight: float
    photons: tuple  # of (mode, label)


@dataclass(frozen=True)
class LabelGroups:
    """Input terms aggregated by their multiset of label groups.

    A label group is the sorted tuple of input modes whose photons share one
    internal label; photons of different groups never interfere, and the
    modes of one group are distinct.  Row ``t`` of ``index`` lists the
    groups of multiset ``t`` as positions in ``groups``, padded with
    ``len(groups)``; ``weights[t]`` is the summed weight of its terms.
    """

    groups: tuple
    weights: np.ndarray
    index: np.ndarray


@dataclass(frozen=True)
class JointInputEnumeration:
    terms: tuple
    raw_term_count: int
    photon_filtered_count: int
    retained_weight: float

    @cached_property
    def label_groups(self) -> LabelGroups:
        """The terms aggregated by label-group multiset, built on first use."""
        positions: dict = {}
        multisets: dict = {}
        for term in self.terms:
            by_label = defaultdict(list)
            for mode, label in term.photons:
                by_label[label].append(mode)
            key = tuple(sorted(positions.setdefault(tuple(sorted(modes)), len(positions))
                               for modes in by_label.values()))
            multisets[key] = multisets.get(key, 0.0) + term.weight
        width = max((len(key) for key in multisets), default=1)
        index = np.full((len(multisets), width), len(positions), dtype=np.intp)
        for row, key in enumerate(multisets):
            index[row, :len(key)] = key
        return LabelGroups(tuple(positions),
                           np.array(list(multisets.values()), dtype=float), index)


def enumerate_joint_inputs(spec: SourceSpec, fractions: MasterFractions,
                           input_modes: tuple = (0, 2, 4, 6),
                           weight_cutoff: float = 1e-8) -> JointInputEnumeration:
    """Weighted product of the four input mixtures, pruned for simulation.

    Terms with fewer than four photons can never pass post-selection and
    are dropped, as are terms lighter than ``weight_cutoff`` times the
    heaviest surviving term.  The retained weight is recorded so that
    conditional probabilities can be normalized downstream.
    """
    mixtures = [input_mixture(spec, fractions, i) for i in range(4)]
    raw_count = 1
    for m in mixtures:
        raw_count *= len(m)
    four_photon: list[tuple[float, tuple]] = []
    for combo in itertools.product(*mixtures):
        total_photons = sum(len(entry[1]) for entry in combo)
        if total_photons < 4:
            continue
        weight = 1.0
        photons = []
        for mode, (w, labels) in zip(input_modes, combo):
            weight *= w
            photons.extend((mode, lab) for lab in labels)
        four_photon.append((weight, tuple(photons)))
    if not four_photon:
        return JointInputEnumeration((), raw_count, 0, 0.0)
    w_max = max(w for w, _ in four_photon)
    kept = [JointInputTerm(w, ph) for w, ph in four_photon
            if w_max > 0.0 and w >= weight_cutoff * w_max]
    retained = float(sum(t.weight for t in kept))
    return JointInputEnumeration(tuple(kept), raw_count, len(four_photon), retained)
