"""Independent reference computations used to pin expected test values.

Everything here deliberately avoids the package's computational paths:
matrices are hardcoded entry by entry, permanents expand over explicit
permutations, and qubit probabilities come from 16-dimensional state
vectors.  The occupation-histogram oracle scatters each term into its full
output histogram, thins it binomially and thresholds every occupation; it
shares only the permutation-table permanent with the click-mask path of
`qubit_distribution`, and that is checked against an explicit loop over
permutations and against closed forms.
The heater oracle solves one linear program per 2*pi lift vector with
HiGHS, where the package enumerates the vertices of every lift's program
at once; the vertex oracle is that enumeration as it stood before it
became stacked matmuls over cached tables, with einsum over tables built
per call.  The lift-0 dual oracle reads HiGHS's equality marginals, where
the package takes the dual from the inverse of the cheapest basis.  The
tomography oracles build the projector kets one outcome at a time, sum
the log-likelihood over them, and invert by summing all 256 Pauli strings' averaged expectations, where the package contracts a fixed dual
frame; each expectation is a loop over one setting's parties, where the
package multiplies the whole count table by one parity table.  The master-fraction oracle sorts an 11^4 grid point by point with
a Python objective and refines its best points with finite-difference
L-BFGS-B, where the package solves the fit in closed form.  The secret
sharing oracle runs the protocol one round at a time: it classifies each
basis choice, takes its eigenvalue from Born probabilities of the state
vector and infers the dealer's bit from the parity, where the package looks
every rule up in tables indexed by the basis and outcome indices.  The
phase-scan oracle runs nonlinear least squares on A*cos(a*P + b) from a
5 x 8 grid of starts, where the package projects out the linear
parameters and searches the frequency alone.  The MLE oracle ascends the
likelihood in a Cholesky factor of rho with a line search, where the
package takes accelerated projected gradient steps on rho itself; its
certificate and the fit's deviance are summed outcome by outcome.  The
enumeration oracle multiplies the four input mixtures term by term into
(mode, label) photon tuples and groups each term's photons by label in a
dict and names each group by the bitmask of its inputs, where the package
codes every combination's multiset in one fixed table, sums the weights
with one bincount and decodes the codes with a second table.  The
all-groups click-mask oracle is the package's click-mask evaluation as it
stood before it read only what its result uses: the full 8 x 8 Gram of
every mask, and a permanent for each of the 15 label groups whether the
table holds it or not.
"""

import itertools
import math
import random
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import curve_fit, linprog, minimize

from ghzlab.analysis import tomography_settings
from ghzlab.chip import TWO_PI, mzi_block, preparation_unitary
from ghzlab.errors import SolverError
from ghzlab.qmath import PauliLabel, permanent
from ghzlab.qss import QssReport, classify_bases
from ghzlab.source import (_PAIR_INDEX, LabelGroups, MasterFractions,
                           _balance_gauge, input_mixture)
from ghzlab.simulator import (_INCLUSION_EXCLUSION, _MASK_MODES, OutcomeDistribution,
                              apply_detector_efficiency, qubit_distribution,
                              scatter_distribution)

SQRT2 = math.sqrt(2.0)


def preparation_matrix_reference(thetas, refl=(0.5, 0.5, 0.5, 0.5)):
    """Preparation-stage scattering matrix written out row by row."""
    t = [np.exp(1j * th) for th in thetas]
    r = [math.sqrt(x) for x in refl]
    c = [1j * math.sqrt(1.0 - x) for x in refl]
    u = np.zeros((8, 8), dtype=complex)
    u[0, 0], u[0, 1] = r[0] * t[0], c[0] * t[0]
    u[1, 2], u[1, 3] = r[1] * t[1], c[1] * t[1]
    u[2, 0], u[2, 1] = c[0] * t[2], r[0] * t[2]
    u[3, 4], u[3, 5] = r[2] * t[3], c[2] * t[3]
    u[4, 2], u[4, 3] = c[1] * t[4], r[1] * t[4]
    u[5, 6], u[5, 7] = r[3] * t[5], c[3] * t[5]
    u[6, 4], u[6, 5] = c[2] * t[6], r[2] * t[6]
    u[7, 6], u[7, 7] = c[3] * t[7], r[3] * t[7]
    return u


def mzi_reference(alpha, phi):
    """Measurement MZI block from explicit 2x2 products."""
    dc = np.array([[1, 1j], [1j, 1]], dtype=complex) / SQRT2
    pa = np.diag([np.exp(1j * alpha), 1.0])
    pp = np.diag([np.exp(1j * phi), 1.0])
    return dc @ pp @ dc @ pa


def mzi_measurement(phases):
    """Measurement stage with MZI k at ``phases[k]`` = (alpha, phi), phases no
    label names: the four `mzi_block` blocks on the diagonal."""
    measurement = np.zeros((8, 8), dtype=complex)
    for k, (alpha, phi) in enumerate(phases):
        measurement[2 * k:2 * k + 2, 2 * k:2 * k + 2] = mzi_block(alpha, phi)
    return measurement


def mzi_phase_unitary(stage, phases):
    """Chip unitary with MZI k at ``phases[k]``: `mzi_measurement` after
    `preparation_unitary`, for tests that drive the simulator at random MZI
    phases.
    """
    return mzi_measurement(phases) @ preparation_unitary(stage)


def xy_labels(bases):
    """The measurement labels of a secret-sharing basis choice such as "xyxx"."""
    return tuple(PauliLabel.X if b == "x" else PauliLabel.Y for b in bases)


def permanent_by_permutations(m):
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    total = 0j
    for perm in itertools.permutations(range(n)):
        p = 1 + 0j
        for i, j in zip(range(n), perm):
            p *= m[i, j]
        total += p
    return total


def assignment_distribution(u, input_modes=(0, 2, 4, 6)):
    """Post-selected 16-outcome distribution for four single photons.

    For each outcome, the amplitude is the permutation-expanded permanent
    of the 4x4 submatrix picking one output mode per qubit pair.
    """
    probs = np.zeros(16)
    for outcome in range(16):
        out_modes = [2 * k + ((outcome >> (3 - k)) & 1) for k in range(4)]
        sub = u[np.ix_(out_modes, list(input_modes))]
        amp = permanent_by_permutations(sub)
        probs[outcome] = abs(amp) ** 2
    return probs


EIGVECS = {
    "x": (np.array([1, 1]) / SQRT2, np.array([1, -1]) / SQRT2),
    "y": (np.array([1, 1j]) / SQRT2, np.array([1, -1j]) / SQRT2),
    "z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "-x": (np.array([1, -1]) / SQRT2, np.array([1, 1]) / SQRT2),
    "-z": (np.array([0, 1], dtype=complex), np.array([1, 0], dtype=complex)),
    "x+z": (np.array([math.cos(math.pi / 8), math.sin(math.pi / 8)], dtype=complex),
            np.array([-math.sin(math.pi / 8), math.cos(math.pi / 8)], dtype=complex)),
    "x-z": (np.array([math.cos(3 * math.pi / 8), math.sin(3 * math.pi / 8)], dtype=complex),
            np.array([-math.sin(3 * math.pi / 8), math.cos(3 * math.pi / 8)], dtype=complex)),
}


def born_probabilities(state16, basis_tokens):
    """Outcome probabilities of projective measurements on a 4-qubit pure state."""
    psi = np.asarray(state16, dtype=complex)
    probs = np.zeros(16)
    for outcome in range(16):
        v = np.array([1.0], dtype=complex)
        for i, tok in enumerate(basis_tokens):
            bit = (outcome >> (3 - i)) & 1
            v = np.kron(v, EIGVECS[tok][bit])
        probs[outcome] = abs(np.vdot(v, psi)) ** 2
    return probs


def ghz_state(theta=0.0):
    v = np.zeros(16, dtype=complex)
    v[0b0101] = 1 / SQRT2
    v[0b1010] = np.exp(1j * theta) / SQRT2
    return v


def operator_expectation(state16, matrices):
    op = matrices[0]
    for m in matrices[1:]:
        op = np.kron(op, m)
    return complex(np.vdot(state16, op @ state16))


def threshold_and_postselect(dist: dict) -> OutcomeDistribution:
    """Map occupations to qubit outcomes, discarding invalid click patterns.

    A pattern is valid when each mode pair holds exactly one clicked
    detector; the clicked rail sets the qubit value (upper = 0).
    """
    probs = np.zeros(16)
    discard = 0.0
    for occ, p in dist.items():
        n_pairs = len(occ) // 2
        value = 0
        valid = True
        for k in range(n_pairs):
            up = occ[2 * k] > 0
            down = occ[2 * k + 1] > 0
            if up == down:
                valid = False
                break
            value = (value << 1) | (1 if down else 0)
        if valid:
            probs[value] += p
        else:
            discard += p
    return OutcomeDistribution(probs=probs, discard_mass=discard)


@dataclass(frozen=True)
class JointInputTerm:
    """One weighted multi-photon input configuration.

    ``photons`` holds (spatial mode, internal label) pairs; photons sharing
    an input mode always carry distinct labels.
    """

    weight: float
    photons: tuple  # of (mode, label)


@dataclass(frozen=True)
class OracleEnumeration:
    terms: tuple
    raw_term_count: int
    photon_filtered_count: int
    retained_weight: float

    @cached_property
    def label_groups(self) -> LabelGroups:
        """The terms aggregated by label-group multiset, built on first use.

        A group is the bitmask of the inputs its photons enter, bit i for
        mode 2i; a multiset is the sorted tuple of its groups.
        """
        multisets: dict = {}
        for term in self.terms:
            by_label = defaultdict(list)
            for mode, label in term.photons:
                by_label[label].append(mode)
            if any(len(set(modes)) < len(modes) for modes in by_label.values()):
                raise ValueError("a label group holds one photon per input")
            key = tuple(sorted(sum(1 << mode // 2 for mode in modes)
                               for modes in by_label.values()))
            multisets[key] = multisets.get(key, 0.0) + term.weight
        width = max((len(key) for key in multisets), default=1)
        index = np.zeros((len(multisets), width), dtype=np.intp)
        for row, key in enumerate(multisets):
            index[row, :len(key)] = key
        return LabelGroups(np.array(list(multisets.values()), dtype=float), index)


def oracle_enumerate_joint_inputs(spec, input_modes=(0, 2, 4, 6),
                                  weight_cutoff=1e-8) -> OracleEnumeration:
    """The four input mixtures multiplied out term by term, pruned as the package does."""
    mixtures = [input_mixture(spec, i) for i in range(4)]
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
        return OracleEnumeration((), raw_count, 0, 0.0)
    w_max = max(w for w, _ in four_photon)
    kept = [JointInputTerm(w, ph) for w, ph in four_photon
            if w_max > 0.0 and w >= weight_cutoff * w_max]
    retained = float(sum(t.weight for t in kept))
    return OracleEnumeration(tuple(kept), raw_count, len(four_photon), retained)


def _convolve(d1: dict, d2: dict) -> dict:
    out = defaultdict(float)
    for occ1, p1 in d1.items():
        for occ2, p2 in d2.items():
            out[tuple(a + b for a, b in zip(occ1, occ2))] += p1 * p2
    return dict(out)


def oracle_qubit_distribution(u, enumeration, det) -> OutcomeDistribution:
    """Outcome distribution through full occupation histograms, term by term.

    Each label group is scattered once per unitary and the groups of a term
    are convolved; the histogram is thinned by the detector efficiencies and
    thresholded.  The discard mass sums the discarded histogram weight and
    the weight the enumeration dropped, independently of the kept mass.
    """
    group_cache = {}
    probs = np.zeros(16)
    discard = 0.0
    for term in enumeration.terms:
        groups = defaultdict(list)
        for mode, label in term.photons:
            groups[label].append(mode)
        dist = {(0,) * u.shape[0]: 1.0}
        for modes in groups.values():
            key = tuple(sorted(modes))
            if key not in group_cache:
                group_cache[key] = scatter_distribution(u, [(m, 0) for m in key])
            dist = _convolve(dist, group_cache[key])
        od = threshold_and_postselect(apply_detector_efficiency(dist, det))
        probs += term.weight * od.probs
        discard += term.weight * od.discard_mass
    return OutcomeDistribution(probs=probs,
                               discard_mass=discard + (1.0 - enumeration.retained_weight))


# For each group size k, the label groups of k inputs (bit i for input i)
# and their modes (input i in mode 2i), one row per group.
_ALL_GROUPS_BY_SIZE = tuple(
    (np.array([sum(1 << i for i in c) for c in combos]), 2 * np.array(combos))
    for combos in (list(itertools.combinations(range(4), k)) for k in range(1, 5)))


def oracle_all_groups_distribution(u, table: LabelGroups, det) -> OutcomeDistribution:
    """`outcome_distribution` from the 8 x 8 Gram of each click mask and all
    15 label groups, with the round-off clamp and none of the guards."""
    u = np.asarray(u, dtype=complex)
    d = np.where(_MASK_MODES, 1.0, 1.0 - np.asarray(det.efficiencies, dtype=float))
    gram = (u.conj().T * d[:, None, :]) @ u
    values = np.ones((16, len(_MASK_MODES)))
    for groups, modes in _ALL_GROUPS_BY_SIZE:
        values[groups] = permanent(gram[:, modes[:, :, None], modes[:, None, :]]).real.T
    products = np.ones((len(table.weights), len(_MASK_MODES)))
    for column in table.index.T:
        products *= values[column]
    probs = _INCLUSION_EXCLUSION @ (table.weights @ products)
    probs = np.where(probs < 0.0, 0.0, probs)
    return OutcomeDistribution(probs=probs, discard_mass=1.0 - float(probs.sum()))


def oracle_heater_block(matrix_krad, base_rad, resistances, usable, max_lift=4):
    """Heater block solved by one linear program per lift vector.

    Every k in {0..max_lift}^4 gets its own fixed-lift LP and least-squares
    polish; the lowest-power solution that meets the targets wins, the first
    in lexicographic order on ties.
    """
    m = 1e3 * matrix_krad[:, usable]
    cost = resistances[usable]
    n = m.shape[1]
    best_u = None
    best_power = np.inf
    for k in itertools.product(range(max_lift + 1), repeat=4):
        b = base_rad + 2.0 * math.pi * np.array(k)
        res = linprog(cost, A_eq=m, b_eq=b, bounds=[(0, None)] * n, method="highs")
        if not res.success:
            continue
        u = np.clip(res.x, 0.0, None)
        support = u > 1e-12
        if support.any():
            sol, *_ = np.linalg.lstsq(m[:, support], b, rcond=None)
            polished = np.zeros(n)
            polished[support] = np.clip(sol, 0.0, None)
            if np.all(sol >= -1e-12) and np.max(np.abs(m @ polished - b)) <= 1e-9:
                u = polished
        if np.max(np.abs(m @ u - b)) > 1e-7:
            continue
        power = float(cost @ u)
        if power < best_power - 1e-15:
            best_power = power
            best_u = u
    if best_u is None:
        raise SolverError("no nonnegative heater solution reaches the target phases")
    full = np.zeros(8)
    full[usable] = best_u
    return full


def oracle_lift0_dual(matrix_krad, base_rad, resistances, usable):
    """HiGHS dual vector of a heater block's lift-0 program, None if infeasible."""
    m = 1e3 * matrix_krad[:, usable]
    res = linprog(resistances[usable], A_eq=m, b_eq=base_rad,
                  bounds=[(0, None)] * m.shape[1], method="highs")
    return res.eqlin.marginals if res.success else None


def oracle_vertex_block(matrix_krad, base_rad, resistances, usable, max_lift=4):
    """Heater block by vertex enumeration with einsum over tables built per call.

    The lift-by-basis enumeration the package used before its stacked
    matmuls over cached tables: the vertices come out (lift, basis, row) and
    the argmin runs over the (lift, basis) powers, so a tie goes to the
    first lift in lexicographic order and within it to the first basis.
    """
    m = 1e3 * matrix_krad[:, usable]
    cost = resistances[usable]
    n = m.shape[1]
    bases = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4)
    columns = m[:, bases].transpose(1, 0, 2)
    keep = np.linalg.matrix_rank(columns) == 4
    bases = bases[keep]
    lifts = np.array(list(itertools.product(range(max_lift + 1), repeat=4)))
    targets = base_rad[:, None] + TWO_PI * lifts.T
    vertices = np.einsum("bij,jk->kbi", np.linalg.inv(columns[keep]), targets)
    feasible = np.all(vertices >= -1e-12, axis=2)
    if not feasible.any():
        raise SolverError("no nonnegative heater solution reaches the target phases")
    power = np.where(feasible, np.einsum("bi,kbi->kb", cost[bases], vertices), np.inf)
    k, basis = np.unravel_index(np.argmin(power), power.shape)
    b = targets[:, k]
    u = np.zeros(n)
    u[bases[basis]] = np.clip(vertices[k, basis], 0.0, None)
    support = u > 1e-12
    if support.any():
        sol, *_ = np.linalg.lstsq(m[:, support], b, rcond=None)
        polished = np.zeros(n)
        polished[support] = np.clip(sol, 0.0, None)
        if np.all(sol >= -1e-12) and np.max(np.abs(m @ polished - b)) <= 1e-9:
            u = polished
    if np.max(np.abs(m @ u - b)) > 1e-7:
        raise SolverError("heater solution misses the target phases")
    full = np.zeros(8)
    full[usable] = u
    return full


def oracle_expectation(settings, counts, identity_mask=None):
    """Expectation of the product of the unsigned operators of one setting.

    Outcome bit 0 of a party counts +1 and bit 1 counts -1, and a negated
    label (-X, -Z) flips its party's count.  Parties labeled I, and the
    parties ``identity_mask`` marks, count +1, which traces them out.
    """
    counts = np.asarray(counts, dtype=float)
    total = float(counts.sum())
    if total <= 0.0:
        raise ValueError("record has zero total counts")
    p = counts / total
    if identity_mask is None:
        identity_mask = (False,) * 4
    signs = np.ones(16)
    for i, (lab, masked) in enumerate(zip(settings, identity_mask)):
        if masked or lab is PauliLabel.I:
            continue
        contrib = np.array([1.0 - 2.0 * ((k >> (3 - i)) & 1) for k in range(16)])
        if lab.sign < 0:
            contrib = -contrib
        signs = signs * contrib
    return float(p @ signs)


def oracle_linear_inversion(ts):
    """Pauli reconstruction rho = (1/16) sum <P> P over all 256 Pauli strings.

    Expectations of strings containing identities are averaged over every
    compatible setting with those parties masked.
    """
    labels = (PauliLabel.I, PauliLabel.X, PauliLabel.Y, PauliLabel.Z)
    rho = np.zeros((16, 16), dtype=complex)
    for string in itertools.product(labels, repeat=4):
        mask = tuple(lab is PauliLabel.I for lab in string)
        ev = float(np.mean([oracle_expectation(setting, row, mask)
                            for setting, row in zip(ts.settings, ts.counts)
                            if all(m or setting[i] is string[i]
                                   for i, m in enumerate(mask))]))
        op = string[0].matrix
        for lab in string[1:]:
            op = np.kron(op, lab.matrix)
        rho += ev * op
    return rho / 16.0


_ORACLE_EIG_PLUS = {
    PauliLabel.X: np.array([1.0, 1.0]) / SQRT2,
    PauliLabel.Y: np.array([1.0, 1.0j]) / SQRT2,
    PauliLabel.Z: np.array([1.0, 0.0], dtype=complex),
}
_ORACLE_EIG_MINUS = {
    PauliLabel.X: np.array([1.0, -1.0]) / SQRT2,
    PauliLabel.Y: np.array([1.0, -1.0j]) / SQRT2,
    PauliLabel.Z: np.array([0.0, 1.0], dtype=complex),
}


def oracle_projector_vectors(ts):
    """Projector kets (16 x 1296) and counts (1296,), outcome by outcome in design order."""
    vecs = []
    counts = []
    for setting, row in zip(tomography_settings(), ts.counts):
        for outcome in range(16):
            v = np.array([1.0], dtype=complex)
            for i, lab in enumerate(setting):
                bit = (outcome >> (3 - i)) & 1
                v = np.kron(v, _ORACLE_EIG_MINUS[lab] if bit else _ORACLE_EIG_PLUS[lab])
            vecs.append(v)
            counts.append(row[outcome])
    return np.array(vecs).T, np.array(counts)


def mle_log_likelihood(ts, rho):
    """Multinomial log-likelihood of a density matrix, summed outcome by outcome.

    Outcomes without counts add nothing; -inf if an observed outcome has
    zero or negative probability under ``rho``.
    """
    v, counts = oracle_projector_vectors(ts)
    total = 0.0
    for k in range(v.shape[1]):
        if counts[k] > 0.0:
            p = float(np.real(v[:, k].conj() @ rho @ v[:, k]))
            if p <= 0.0:
                return -np.inf
            total += counts[k] * math.log(p)
    return total


def oracle_mle_certificate(ts, rho):
    """max(|R rho - rho|_F, lambda_max(R) - 1), R = sum_k (n_k / (N p_k)) Pi_k,
    summed outcome by outcome over the oracle kets; 0 exactly at the MLE."""
    vecs, counts = oracle_projector_vectors(ts)
    r = np.zeros((16, 16), dtype=complex)
    for k in range(vecs.shape[1]):
        if counts[k] > 0.0:
            v = vecs[:, k]
            r += counts[k] / float(np.real(v.conj() @ rho @ v)) * np.outer(v, v.conj())
    r /= counts.sum()
    return max(float(np.linalg.norm(r @ rho - rho)),
               float(np.linalg.eigvalsh(r)[-1]) - 1.0)


def likelihood_ratio_deviance(ts, rho):
    """G^2 = 2 sum_k n_k ln(f_k / p_k): f_k the outcome's share of its
    setting's counts, p_k = Tr(Pi_k rho), outcomes without counts omitted."""
    vecs, counts = oracle_projector_vectors(ts)
    totals = np.repeat(ts.counts.sum(axis=1), 16)
    total = 0.0
    for k in range(vecs.shape[1]):
        if counts[k] > 0.0:
            p = float(np.real(vecs[:, k].conj() @ rho @ vecs[:, k]))
            total += counts[k] * math.log(counts[k] / totals[k] / p)
    return 2.0 * total


def oracle_clamp_projection(h):
    """Density matrix from a Hermitian matrix by clamping its negative
    eigenvalues to zero and renormalizing the trace."""
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (v * (w / w.sum())) @ v.conj().T


@dataclass
class CholeskyMle:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    gradient_residual: float


def oracle_mle_cholesky(ts, max_iterations=5000, rel_tol=1e-10):
    """Maximum likelihood by gradient ascent on a Cholesky factor.

    rho = T T^dag / Tr(T T^dag) with T lower triangular, started from the
    clamped linear inversion with a 1e-8 eigenvalue floor.  The gradient
    with respect to conj(T) is sum_k (n_k / q_k) Pi_k T - (N / S) T, masked
    to the lower triangle, with q_k = Tr(Pi_k T T^dag) over the oracle's
    projector kets and S = Tr(T T^dag).  A backtracking line search takes
    each step; the ascent stops when the relative likelihood gain drops
    below ``rel_tol``, which can be well short of the maximum.
    ``gradient_residual`` is |grad|_F / |(N / S) T|_F at the end.
    """
    vecs, counts = oracle_projector_vectors(ts)
    n_total = counts.sum()
    observed = counts > 0.0
    w, v = np.linalg.eigh(oracle_clamp_projection(oracle_linear_inversion(ts)))
    w = np.clip(w, 1e-8, None)
    t = np.linalg.cholesky((v * (w / w.sum())) @ v.conj().T)

    def stats(tmat):
        q = np.sum(np.abs(vecs.conj().T @ tmat) ** 2, axis=1)
        s = float(np.sum(np.abs(tmat) ** 2))
        if np.any(q[observed] <= 0.0):
            return q, s, -np.inf
        return q, s, float(counts[observed] @ np.log(q[observed])) - n_total * math.log(s)

    def gradient(tmat, q, s):
        ratio = np.divide(counts, q, out=np.zeros_like(q), where=observed)
        return np.tril((vecs * ratio) @ (vecs.conj().T @ tmat) - (n_total / s) * tmat)

    q, s, ll = stats(t)
    step, iteration = 1.0, 0
    for iteration in range(1, max_iterations + 1):
        grad = gradient(t, q, s)
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            break
        scale = np.linalg.norm(t) / gnorm
        for _ in range(60):
            t_new = t + step * scale * grad
            q_new, s_new, ll_new = stats(t_new)
            if ll_new > ll:
                break
            step *= 0.5
        else:
            break
        gain = ll_new - ll
        t, q, s, ll = t_new, q_new, s_new, ll_new
        step = min(step * 1.3, 16.0)
        if gain <= rel_tol * abs(ll):
            break
    residual = float(np.linalg.norm(gradient(t, q, s)) / np.linalg.norm((n_total / s) * t))
    rho = t @ t.conj().T
    rho = rho / np.trace(rho).real
    return CholeskyMle(rho=(rho + rho.conj().T) / 2.0, log_likelihood=ll,
                       iterations=iteration, gradient_residual=residual)


def oracle_fit_objective(x, targets):
    """Sum of squared pair residuals, added pair by pair in AB, AC, BD, CD order."""
    return sum((x[i] * x[j] - targets[p]) ** 2 for p, (i, j) in _PAIR_INDEX.items())


def oracle_grid_starts(measured):
    """The 32 first points of the 11^4 grid sorted on (objective, x_A, x_B, x_C, x_D)."""
    grid = np.linspace(0.0, 1.0, 11)
    ranked = sorted(itertools.product(grid, repeat=4),
                    key=lambda x: (oracle_fit_objective(np.array(x), measured), x))
    return np.array(ranked[:32])


def oracle_fit_master_fractions(measured):
    """Master-fraction fit refined with 2-point finite-difference gradients.

    Returns the fitted fractions and the 32 grid starts the refinements ran from.
    """
    starts = oracle_grid_starts(measured)
    best_x = None
    best_f = np.inf
    for start in starts:
        res = minimize(oracle_fit_objective, start, args=(measured,),
                       method="L-BFGS-B", bounds=[(0.0, 1.0)] * 4,
                       options={"ftol": 1e-16, "gtol": 1e-12, "maxiter": 500})
        if res.fun < best_f - 1e-15:
            best_f = res.fun
            best_x = res.x
    return MasterFractions(x=tuple(_balance_gauge(best_x))), starts


def oracle_fit_phase_scan(points):
    """(amplitude, rad_per_unit, phase_offset) of the best of 40 ``curve_fit`` runs.

    Raises `RuntimeError` when no start converges.
    """
    power = np.array([float(p) for p, _ in points])
    wit = np.array([float(w) for _, w in points])

    def model(p, amp, a, b):
        return amp * np.cos(a * p + b)

    span = np.ptp(power)
    amp0 = max(np.ptp(wit) / 2.0, 1e-6)
    best = None
    for periods in (0.5, 1.0, 1.5, 2.0, 3.0):
        a0 = 2.0 * math.pi * periods / span
        for b0 in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
            try:
                popt, _ = curve_fit(model, power, wit, p0=[amp0, a0, b0], maxfev=5000)
            except RuntimeError:
                continue
            resid = float(np.sum((model(power, *popt) - wit) ** 2))
            if best is None or resid < best[0] - 1e-15:
                best = (resid, popt)
    if best is None:
        raise RuntimeError("cosine fit did not converge")
    return tuple(float(v) for v in best[1])


def combo_sign(bases) -> int:
    """Eigenvalue of the four-fold X/Y operator on the shared state (0 if none)."""
    probs = born_probabilities(ghz_state(), list(bases))
    return int(round(sum(p * (-1) ** bin(o).count("1") for o, p in enumerate(probs))))


def infer_dealer_bit(bases, outcomes_234) -> int:
    """Dealer's bit from the outcomes of parties 2-4 (bit 1 = -1 eigenstate)."""
    sign = combo_sign(bases)
    if sign == 0:
        raise ValueError("cannot infer the dealer's bit for a discarded basis choice")
    parity = (int(outcomes_234[0]) + int(outcomes_234[1]) + int(outcomes_234[2])) % 2
    return parity ^ (0 if sign > 0 else 1)


@dataclass(frozen=True, slots=True)
class RoundRecord:
    index: int
    bases: tuple
    outcomes: tuple
    case: str
    kept: bool
    inferred: int | None
    dealer_bit: int


def oracle_expected_qber(ctx) -> float:
    """Error probability of the sifted key, summed outcome by outcome."""
    total_weight = 0.0
    total_error = 0.0
    for bases in itertools.product("xy", repeat=4):
        if classify_bases(bases) == "b":
            continue
        p = qubit_distribution(ctx, xy_labels(bases)).conditional()
        err = 0.0
        for outcome in range(16):
            bits = [(outcome >> (3 - i)) & 1 for i in range(4)]
            if infer_dealer_bit(bases, bits[1:]) != bits[0]:
                err += p[outcome]
        total_weight += 1.0
        total_error += err
    return total_error / total_weight


def oracle_run_qss(ctx, rounds, seed, public_fraction=0.0):
    """The protocol one round at a time, with a `RoundRecord` per round.

    Same stream as `run_qss`, stepped one call at a time: round r is the
    r-th ``getrandbits(64)`` of ``random.Random(seed)``, its top 4 bits the
    bases (party 1 first, y = 1) and its low 53 bits the uniform.  Then each
    sifted bit takes the next word as its key, and the public subset is the
    bits of the smallest keys, the earlier bit first on a tie.
    """
    cdfs = {}
    for bases in itertools.product("xy", repeat=4):
        cdf = qubit_distribution(ctx, xy_labels(bases)).conditional().cumsum()
        cdfs[bases] = cdf / cdf[-1]
    rng = random.Random(seed)
    transcript = []
    errors = []
    for r in range(rounds):
        word = rng.getrandbits(64)
        bases = tuple("xy"[(word >> (63 - i)) & 1] for i in range(4))
        uniform = (word % 2 ** 53) / 2 ** 53
        index = int(cdfs[bases].searchsorted(uniform, side="right"))
        outcomes = tuple((index >> (3 - i)) & 1 for i in range(4))
        case = classify_bases(bases)
        kept = case != "b"
        inferred = None
        if kept:
            inferred = infer_dealer_bit(bases, outcomes[1:])
            errors.append(1 if inferred != outcomes[0] else 0)
        transcript.append(RoundRecord(index=r, bases=bases, outcomes=outcomes, case=case,
                                      kept=kept, inferred=inferred, dealer_bit=outcomes[0]))
    sifted = len(errors)
    if sifted == 0:
        raise SolverError("no rounds survived sifting")
    if public_fraction > 0.0:
        keys = [rng.getrandbits(64) for _ in range(sifted)]
        n_pub = max(1, int(round(public_fraction * sifted)))
        errors = [errors[i] for i in sorted(range(sifted), key=keys.__getitem__)[:n_pub]]
    errors = np.asarray(errors)
    qber = float(errors.mean())
    report = QssReport(raw_length=rounds, sifted_length=sifted, sift_rate=sifted / rounds,
                       qber=qber, secure=qber <= 0.11,
                       expected_qber=oracle_expected_qber(ctx))
    return report, transcript


def oracle_transcript_to_csv(transcript) -> str:
    lines = ["round,bases,outcomes,case,kept,inferred,dealer_bit"]
    for rec in transcript:
        lines.append(",".join([
            str(rec.index),
            "".join(rec.bases),
            "".join(str(o) for o in rec.outcomes),
            rec.case,
            "1" if rec.kept else "0",
            "" if rec.inferred is None else str(rec.inferred),
            str(rec.dealer_bit),
        ]))
    return "\n".join(lines) + "\n"
