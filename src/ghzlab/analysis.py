"""State characterization from measured (or simulated) count records.

Conventions: outcome bit 0 means the upper detector clicked, which is the
+1 eigenstate of the labeled operator at that party's MZI setting.  The
raw product expectation therefore refers to the *labeled* operators; the
`expectation` function flips the contribution of negated labels (-X, -Z)
so that it always returns the expectation of the unsigned Pauli product,
and the witness / inequality evaluators reapply the operator signs where
their definitions need them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .qmath import (PauliLabel, SQRT2, check_density_matrix,
                    project_to_physical)

TOMOGRAPHY_BASES = (PauliLabel.X, PauliLabel.Y, PauliLabel.Z)

# Two-qubit Pauli projectors used for the phase witness and the inequality:
# party 1 measures (X+Z)/sqrt2 or (X-Z)/sqrt2, party 3 measures X or Z, and
# parties 2 and 4 measure -X or -Z.
M0 = (PauliLabel.XPZ, PauliLabel.MINUS_X, PauliLabel.X, PauliLabel.MINUS_X)
M1 = (PauliLabel.XMZ, PauliLabel.MINUS_Z, PauliLabel.Z, PauliLabel.MINUS_Z)

PHASE_WITNESS_SETTINGS = M0


@dataclass
class MeasurementRecord:
    """Counts (or exact probabilities) of the 16 outcomes at one setting."""

    settings: tuple
    counts: np.ndarray

    def __post_init__(self):
        self.settings = tuple(self.settings)
        if len(self.settings) != 4:
            raise ValueError("need one label per party")
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (16,):
            raise ValueError("need 16 outcome counts")
        if np.any(self.counts < 0.0):
            raise ValueError("counts must be nonnegative")

    @property
    def total(self) -> float:
        return float(self.counts.sum())

    def probabilities(self) -> np.ndarray:
        t = self.total
        if t <= 0.0:
            raise ValueError("record has zero total counts")
        return self.counts / t


_BITS = np.array([[(k >> (3 - i)) & 1 for i in range(4)] for k in range(16)])


def expectation(record: MeasurementRecord, identity_mask=None) -> float:
    """Product expectation over the non-masked parties.

    Outcome 0 contributes +1 and outcome 1 contributes -1 per party;
    negated labels flip their party's contribution, so the result is the
    expectation of the product of unsigned operators.  Masked parties (and
    parties labeled I) contribute +1 regardless, which traces them out.
    """
    p = record.probabilities()
    if identity_mask is None:
        identity_mask = tuple(lab is PauliLabel.I for lab in record.settings)
    signs = np.ones(16)
    for i, (lab, masked) in enumerate(zip(record.settings, identity_mask)):
        if masked or lab is PauliLabel.I:
            continue
        contrib = 1.0 - 2.0 * _BITS[:, i]
        if lab.sign < 0:
            contrib = -contrib
        signs = signs * contrib
    return float(p @ signs)


def _signed_expectation(record: MeasurementRecord) -> float:
    """Expectation of the product of the labeled operators, signs included."""
    sign = 1
    for lab in record.settings:
        if lab is not PauliLabel.I:
            sign *= lab.sign
    return sign * expectation(record)


def phase_witness(record: MeasurementRecord) -> float:
    """Four-party phase witness <M0 M0 M0 M0>; equals cos(theta)/sqrt(2) ideally."""
    if record.settings != PHASE_WITNESS_SETTINGS:
        raise ValueError("phase witness requires the M0 projector settings")
    return _signed_expectation(record)


@dataclass(frozen=True)
class PhaseScanFit:
    amplitude: float
    rad_per_unit: float
    phase_offset: float
    power_at_max: float


# Grid frequencies per gap between distinct powers in the global search of
# the phase-scan fit; the best one is refined by golden-section search.
PHASE_SCAN_GRID_PER_POINT = 64
_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _projected_fit(x: np.ndarray, w: np.ndarray, freqs: np.ndarray):
    """Least-squares (c, s) of w ~ c*cos(a*x) + s*sin(a*x) for each a, and residuals.

    The pseudo-inverse drops a column that vanishes on the grid (the sine or
    the cosine at a = pi/spacing on a uniform scan) instead of raising.
    """
    ax = np.multiply.outer(freqs, x)
    basis = np.stack([np.cos(ax), np.sin(ax)], axis=-1)
    coef = np.linalg.pinv(basis) @ w
    resid = w - np.einsum("kij,kj->ki", basis, coef)
    return coef, np.einsum("ki,ki->k", resid, resid)


def _search_bracket(x: np.ndarray, w: np.ndarray, m: int) -> tuple[float, float]:
    """(a - step, a + step) around the grid frequency a that explains most of w.

    The grid spans (0, pi*(m - 1)/span] for m distinct powers.  The explained
    sum of squares, which does not depend on the origin of x, solves the 2x2
    normal equations in z1 = sum(w*exp(-i*a*x)) and z2 = sum(exp(-2i*a*x)),
    or uses the longer column alone where their determinant vanishes.  When
    the powers lie on the even grid of m nodes (to 1e-6 of a gap), both sums
    are FFTs of the node-binned data, zero-padded to a power of two
    M >= 2(m - 1), one per residue of the grid index: O(M log M) time and
    O(M) memory each.  Otherwise they are summed directly, about 2**18 terms
    at a time: O(n) time per grid frequency.
    """
    per, n, lo = PHASE_SCAN_GRID_PER_POINT, len(x), float(x.min())
    span = float(x.max()) - lo
    pos = (x - lo) * ((m - 1) / span)
    node = np.rint(pos).astype(np.intp)
    if np.all(np.abs(pos - node) <= 1e-6):
        size = 1 << (2 * m - 3).bit_length()
        step, n_grid = 2.0 * math.pi * (m - 1) / (per * size * span), per * size // 2
        binned = np.stack([np.bincount(node, w, m), np.bincount(node, None, m)])
        half = np.arange(size // 2 + 1)

        def sums(q):
            mod = np.exp(-2j * math.pi * q / (per * size) * np.arange(m))
            f1, f2 = np.fft.fft(binned * np.stack([mod, mod * mod]), size)
            return per * half + q, f1[half], f2[2 * half % size]
        blocks = map(sums, range(per))
    else:
        step, n_grid = math.pi / (per * span), per * (m - 1)
        rows = max(1, (1 << 18) // n)

        def sums(k0):
            k = np.arange(k0, min(k0 + rows, n_grid + 1))
            e = np.exp(-1j * np.multiply.outer(step * k, x))
            return k, e @ w, (e * e).sum(axis=1)
        blocks = map(sums, range(1, n_grid + 1, rows))
    k_best, best = 0, -math.inf
    for k, z1, z2 in blocks:
        wc, ws = z1.real, -z1.imag
        cc, ss, cs = (n + z2.real) / 2.0, (n - z2.real) / 2.0, -z2.imag / 2.0
        det = cc * ss - cs * cs
        with np.errstate(divide="ignore", invalid="ignore"):
            score = np.where(det > 1e-12 * n * n,
                             (ss * wc * wc - 2.0 * cs * wc * ws + cc * ws * ws) / det,
                             np.where(cc >= ss, wc * wc / cc, ws * ws / ss))
        i = int(np.argmax(np.where((k >= 1) & (k <= n_grid), score, -math.inf)))
        if score[i] > best:
            k_best, best = int(k[i]), float(score[i])
    return (k_best - 1) * step, min(k_best + 1, n_grid) * step


def fit_phase_scan(points) -> PhaseScanFit:
    """Fit witness-vs-power data with A*cos(a*P + b) by variable projection.

    The heater phase is linear in electrical power, so a cosine in power
    captures the scan.  On the centred powers x = P - mean(P) the model is
    c*cos(a*x) + s*sin(a*x), linear in (c, s) for a fixed frequency a, so
    the fit is a search over a alone (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413, 1973):
    a grid of spacing pi/(`PHASE_SCAN_GRID_PER_POINT`*span) or finer over
    (0, pi*(m - 1)/span], then a golden-section refinement of the best grid
    cell.  m counts the distinct powers, and powers closer than 1e-9*span
    count as one.  On an evenly spaced scan the band ends at pi/spacing, and
    higher frequencies alias onto it.  A >= 0, a > 0, b lies in (-pi, pi],
    and ``power_at_max`` is the fitted-cosine argmax closest to the mean
    scanned power.
    """
    pts = np.array([(float(p), float(w)) for p, w in points])
    if len(pts) < 5:
        raise FitError("need at least 5 scan points")
    if not np.all(np.isfinite(pts)):
        raise FitError("scan points must be finite")
    power, wit = pts.T
    with np.errstate(over="ignore", invalid="ignore"):
        mid, span = float(power.mean()), float(np.ptp(power))
        x = power - mid
    if not (np.all(np.isfinite(x)) and math.isfinite(span)):
        raise FitError("scan powers too large to centre")
    m = 1 + int(np.count_nonzero(np.diff(np.unique(power)) > 1e-9 * span))
    if m < 3:
        raise FitError("need at least 3 distinct scan powers")
    if not math.isfinite(math.pi * m / span):
        raise FitError("scan powers too close together")
    if np.ptp(wit) < 1e-12:
        raise FitError("degenerate scan: witness does not vary")

    lo, hi = _search_bracket(x, wit, m)
    while hi - lo > 4.0 * math.ulp(hi):
        gap = _INV_GOLDEN * (hi - lo)
        r1, r2 = _projected_fit(x, wit, np.array([hi - gap, lo + gap]))[1]
        lo, hi = (lo, lo + gap) if r1 <= r2 else (hi - gap, hi)
    a = (lo + hi) / 2.0
    c, s = _projected_fit(x, wit, np.array([a]))[0][0]
    shift = math.atan2(s, c)
    b = math.remainder(-a * mid - shift, 2.0 * math.pi)
    if b <= -math.pi:
        b += 2.0 * math.pi
    fit = PhaseScanFit(amplitude=math.hypot(c, s), rad_per_unit=a, phase_offset=b,
                       power_at_max=mid + shift / a)
    if not all(map(math.isfinite, (fit.amplitude, a, b, fit.power_at_max))):
        raise FitError("cosine fit is not finite")
    return fit


@dataclass(frozen=True)
class WitnessResult:
    value: float
    fidelity_lower_bound: float
    g1_expectation: float
    stabilizer_indicator: float


def stabilizer_witness(record_x: MeasurementRecord,
                       record_z: MeasurementRecord) -> WitnessResult:
    """Stabilizer witness from the two records X^4 and Z^4.

    W = 3 - 2*[ (<XXXX>+1)/2 + P(alternating Z outcomes) ]; a negative
    value certifies entanglement and bounds the fidelity from below by
    (1 - W)/2.
    """
    if record_x.settings != (PauliLabel.X,) * 4:
        raise ValueError("first record must be measured at X on all parties")
    if record_z.settings != (PauliLabel.Z,) * 4:
        raise ValueError("second record must be measured at Z on all parties")
    g1 = expectation(record_x)
    pz = record_z.probabilities()
    indicator = float(pz[0b0101] + pz[0b1010])
    w = 3.0 - 2.0 * ((g1 + 1.0) / 2.0 + indicator)
    return WitnessResult(value=w, fidelity_lower_bound=(1.0 - w) / 2.0,
                         g1_expectation=g1, stabilizer_indicator=indicator)


def bell_settings() -> tuple:
    """The eight measurement settings of the inequality, identity parties as I."""
    I = PauliLabel.I
    return (
        (M1[0], M1[1], I, I),
        (M1[0], I, M1[2], I),
        (M1[0], I, I, M1[3]),
        (M0[0], M1[1], I, I),
        (M0[0], I, M1[2], I),
        (M0[0], I, I, M1[3]),
        (M0[0], M0[1], M0[2], M0[3]),
        (M1[0], M0[1], M0[2], M0[3]),
    )


@dataclass(frozen=True)
class BellResult:
    value: float
    expectations: tuple
    standard_error: float


def bell_value(records, exact: bool = False) -> BellResult:
    """Bell-like inequality value from the eight settings of `bell_settings`.

    I^2 = sum_i <M0(1) M1(i)> - sum_i <M1(1) M1(i)>
          + 3 <M0 M0 M0 M0> + 3 <M1 M0 M0 M0>,  classically bounded by 6.
    The standard error propagates per-record multinomial shot noise, each
    record's total being its number of events; with ``exact`` the records
    hold exact probabilities and the standard error is 0.
    """
    records = list(records)
    expected = bell_settings()
    if len(records) != 8:
        raise ValueError("need 8 records")
    for rec, setting in zip(records, expected):
        if tuple(rec.settings) != setting:
            raise ValueError(
                f"record settings {tuple(s.token for s in rec.settings)} do not match "
                f"required {tuple(s.token for s in setting)}")
    e = [_signed_expectation(rec) for rec in records]
    coeff = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 3.0, 3.0])
    value = float(coeff @ np.array(e))
    var = 0.0
    if not exact:
        for c, rec, ev in zip(coeff, records, e):
            var += c ** 2 * max(1.0 - ev ** 2, 0.0) / rec.total
    return BellResult(value=value, expectations=tuple(e),
                      standard_error=math.sqrt(var))


def tomography_settings() -> list:
    """All 81 basis tuples (X,Y,Z per party), lexicographic with x < y < z."""
    return [tuple(combo) for combo in itertools.product(TOMOGRAPHY_BASES, repeat=4)]


@dataclass(frozen=True, eq=False)
class TomographySet:
    """Outcome counts of the 81-setting design, one row per setting.

    ``counts`` is a read-only float array of shape (81, 16) whose row s holds
    the 16 outcome counts of the s-th setting of `tomography_settings`.  Party
    i's frame row at (s, o) is 2*l + ((o >> (3 - i)) & 1), l the index of its
    label in `TOMOGRAPHY_BASES`: the (label, bit) row order of `_FRAME`.
    """

    counts: np.ndarray

    def __post_init__(self):
        counts = np.array(self.counts, dtype=float)
        if counts.shape != (81, 16):
            raise ValueError(f"need (81, 16) counts, one row per tomography "
                             f"setting, got shape {counts.shape}")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
            raise ValueError("counts must be finite and nonnegative")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def to_json_dict(self) -> dict:
        return {"records": [{"settings": [s.token.lower() for s in setting],
                             "counts": [float(c) for c in row]}
                            for setting, row in zip(tomography_settings(), self.counts)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "TomographySet":
        items = data["records"]
        settings = [tuple(PauliLabel.from_token(t) for t in item["settings"])
                    for item in items]
        if settings != tomography_settings():
            raise ValueError("records must list the 81 tomography settings "
                             "in design order")
        return cls([item["counts"] for item in items])


# Per-party eigenbasis of each tomography label: column b is the ket of
# outcome bit b (0 for the +1 eigenstate).
_EIG_BASIS = {
    PauliLabel.X: np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2,
    PauliLabel.Y: np.array([[1.0, 1.0], [1.0j, -1.0j]]) / SQRT2,
    PauliLabel.Z: np.eye(2, dtype=complex),
}

# Per-party projector frame: row 2*l + b is |e_b><e_b| for the l-th
# tomography label, flattened row-major (6 x 4); each projector of the design
# is a product of four rows, one per party.  The dual frame subtracts I/3.
_FRAME = np.array([np.outer(_EIG_BASIS[lab][:, b], _EIG_BASIS[lab][:, b].conj()).ravel()
                   for lab in TOMOGRAPHY_BASES for b in (0, 1)])
_DUAL_FRAME = _FRAME - np.eye(2).ravel() / 3.0


def _frame_sum(weights: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The 16 x 16 operator sum_k w_k (x)_i frame[(label, bit) of party i in k].

    ``weights`` is an (81, 16) array in design order.  It is reshaped to a
    (6, 6, 6, 6) tensor indexed by (label, bit) per party and contracted
    once per party with the 6 x 4 frame.
    """
    t = weights.reshape((3,) * 4 + (2,) * 4).transpose(0, 4, 1, 5, 2, 6, 3, 7)
    t = t.reshape((6,) * 4)
    for _ in range(4):
        t = np.tensordot(t, frame, axes=([0], [0]))
    return t.reshape((2,) * 8).transpose(0, 2, 4, 6, 1, 3, 5, 7).reshape(16, 16)


def _frame_adjoint(rho: np.ndarray) -> np.ndarray:
    """The (81, 16) array Tr(Pi_k rho) of the design's projectors, the adjoint
    of `_frame_sum` with `_FRAME`: rho per party's (row, column) pair,
    contracted once per party with the conjugate frame.  ``rho`` must be
    Hermitian; the real part is returned.
    """
    t = rho.reshape((2,) * 8).transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape((4,) * 4)
    for _ in range(4):
        t = np.tensordot(t, _FRAME.conj(), axes=([0], [1]))
    t = t.real.reshape((3, 2) * 4).transpose(0, 2, 4, 6, 1, 3, 5, 7)
    return t.reshape(81, 16)


def linear_inversion(ts: TomographySet) -> np.ndarray:
    """Linear-inversion estimate from the dual frame of the 81-setting design.

        rho = sum_k p_k  (x)_i (|e_(k,i)><e_(k,i)| - I/3),

    summed over all 1296 (setting, outcome) pairs k, where p_k is the
    outcome's count over its setting's total and |e_(k,i)> is party i's
    eigenket of its label at its outcome bit.  This equals the Pauli
    reconstruction (1/16) sum_P <P> P over all 256 strings, each string
    with identities averaged over every compatible setting.  It is one
    contraction of p, as a (6, 6, 6, 6) tensor indexed by (label, bit) per
    party, with the 6 x 4 per-party frame.  The output is Hermitian with
    unit trace but may have negative eigenvalues.  A setting without events
    has no probabilities and raises `FitError`.
    """
    totals = ts.counts.sum(axis=1)
    empty = np.flatnonzero(totals <= 0.0)
    if empty.size:
        setting = tomography_settings()[empty[0]]
        raise FitError(f"tomography setting {''.join(s.token for s in setting)} "
                       "has no events")
    return _frame_sum(ts.counts / totals[:, None], _DUAL_FRAME)


@dataclass
class MleResult:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    gradient_residual: float


def _log_likelihood(counts: np.ndarray, q: np.ndarray, s: float, n_total: float) -> float:
    """Likelihood over outcomes with counts > 0 only; -inf if any has q <= 0."""
    observed = counts > 0.0
    q = q[observed]
    if np.any(q <= 0.0):
        return -np.inf
    return float(counts[observed] @ np.log(q)) - n_total * math.log(s)


def mle_reconstruct(ts: TomographySet, max_iterations: int = 5000,
                    rel_tol: float = 1e-10) -> MleResult:
    """Maximum-likelihood density matrix from a complete tomography set.

    The state is parametrized as rho = T T^dag / Tr(T T^dag) with T lower
    triangular (256 real parameters), which keeps every iterate physical.
    The multinomial log-likelihood is maximized by gradient ascent with a
    backtracking line search; the gradient with respect to conj(T) is

        sum_k (n_k / q_k) Pi_k T  -  (N / S) T,

    masked to the lower triangle, where q_k = Tr(Pi_k T T^dag) are
    unnormalized outcome weights and S = Tr(T T^dag).  Outcomes with
    n_k = 0 add nothing to either the likelihood or the gradient.  The q_k
    and the operator sum both come from the per-party frame, by
    `_frame_adjoint` and `_frame_sum`.  Iteration stops when the relative
    likelihood gain drops below ``rel_tol``.  ``gradient_residual`` is the
    stationarity residual |grad|_F / |(N / S) T|_F at the returned T.
    """
    counts = ts.counts
    n_total = counts.sum()
    if n_total <= 0.0:
        raise ValueError("tomography set has no counts")

    rho0 = project_to_physical(linear_inversion(ts))
    w, vec = np.linalg.eigh(rho0)
    w = np.clip(w, 1e-8, None)
    w /= w.sum()
    rho0 = (vec * w) @ vec.conj().T
    t = np.linalg.cholesky(rho0)

    def stats(tmat):
        unnormalized = tmat @ tmat.conj().T
        return _frame_adjoint(unnormalized), float(np.trace(unnormalized).real)

    def gradient(tmat, q, s):
        ratio = np.divide(counts, q, out=np.zeros_like(q), where=q > 0.0)
        return np.tril(_frame_sum(ratio, _FRAME) @ tmat - (n_total / s) * tmat)

    q, s = stats(t)
    ll = _log_likelihood(counts, q, s, n_total)
    step = 1.0
    converged = False
    iteration = 0
    for iteration in range(1, max_iterations + 1):
        grad = gradient(t, q, s)
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            converged = True
            break
        scale = np.linalg.norm(t) / gnorm
        improved = False
        for _ in range(60):
            t_new = t + step * scale * grad
            q_new, s_new = stats(t_new)
            ll_new = _log_likelihood(counts, q_new, s_new, n_total)
            if ll_new > ll:
                improved = True
                break
            step *= 0.5
        if not improved:
            converged = True
            break
        gain = ll_new - ll
        t, q, s, ll = t_new, q_new, s_new, ll_new
        step = min(step * 1.3, 16.0)
        if gain <= rel_tol * abs(ll):
            converged = True
            break
    residual = float(np.linalg.norm(gradient(t, q, s))
                     / np.linalg.norm((n_total / s) * t))
    rho = t @ t.conj().T
    rho /= np.trace(rho).real
    rho = (rho + rho.conj().T) / 2.0
    return MleResult(rho=check_density_matrix(rho, eig_tol=1e-9),
                     log_likelihood=ll, iterations=iteration, converged=converged,
                     gradient_residual=residual)


def monte_carlo_error(ts: TomographySet, statistic, n_resamples: int, seed):
    """Standard deviation of a statistic under Poisson count resampling.

    Resample r is one Poisson draw on the whole (81, 16) count array from
    child r of ``seed``.  A statistic that returns a tuple of floats gets a
    tuple of standard deviations, one per component, each the same as a
    separate run with that component alone would give.
    """
    if n_resamples < 2:
        raise ValueError("need at least 2 resamples")
    values = []
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        rng = np.random.default_rng(child)
        values.append(statistic(TomographySet(rng.poisson(ts.counts).astype(float))))
    if isinstance(values[0], tuple):
        return tuple(float(np.std([float(v) for v in column], ddof=1))
                     for column in zip(*values))
    return float(np.std([float(v) for v in values], ddof=1))


def max_fidelity_over_phase(rho: np.ndarray) -> tuple[float, float]:
    """Best fidelity to the one-parameter target family and its phase.

    F(theta) = (rho_55 + rho_AA)/2 + Re(e^{i theta} rho_5A) over the two
    alternating basis states; the coherence phase gives the argmax in
    closed form, with theta = 0 on zero coherence.
    """
    r = np.asarray(rho, dtype=complex)
    if r.shape != (16, 16):
        raise ValueError("need a 16x16 density matrix")
    coh = complex(r[0b0101, 0b1010])
    diag = (r[0b0101, 0b0101].real + r[0b1010, 0b1010].real) / 2.0
    if abs(coh) < 1e-15:
        return 0.0, float(diag)
    theta = float(-np.angle(coh))
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta, float(diag + abs(coh))
