"""State characterization from measured (or simulated) count tables.

Conventions: every experiment's counts are one `CountTable`, a row of 16
outcome counts per measurement setting.  Outcome bit 0 means the upper
detector clicked, which is the +1 eigenstate of the labeled operator at
that party's MZI setting, so a setting's parity correlator (`correlators`)
is the expectation of the product of its labeled operators, the signs of
-X and -Z included.  The witnesses and the inequality are defined on those
labeled products and read them as they are.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError
from .qmath import (OUTCOME_BITS, PauliLabel, SQRT2, _projected_eigensystem,
                    check_density_matrix)

TOMOGRAPHY_BASES = (PauliLabel.X, PauliLabel.Y, PauliLabel.Z)

# Two-qubit Pauli projectors used for the phase witness and the inequality:
# party 1 measures (X+Z)/sqrt2 or (X-Z)/sqrt2, party 3 measures X or Z, and
# parties 2 and 4 measure -X or -Z.
M0 = (PauliLabel.XPZ, PauliLabel.MINUS_X, PauliLabel.X, PauliLabel.MINUS_X)
M1 = (PauliLabel.XMZ, PauliLabel.MINUS_Z, PauliLabel.Z, PauliLabel.MINUS_Z)

PHASE_WITNESS_SETTINGS = M0


@dataclass(frozen=True, eq=False)
class CountTable:
    """Outcome counts of S measurement settings, one row per setting.

    ``settings`` is a tuple of S four-label tuples, and ``counts`` a
    read-only float array of shape (S, 16) whose row s holds the counts of
    the 16 outcomes of setting s, or in an exact run their conditional
    probabilities; party i's bit of outcome o is (o >> (3 - i)) & 1.
    Counts are finite and nonnegative.
    """

    settings: tuple
    counts: np.ndarray

    def __post_init__(self):
        settings = tuple(map(tuple, self.settings))
        if not settings or not all(
                len(s) == 4 and all(isinstance(lab, PauliLabel) for lab in s)
                for s in settings):
            raise ValueError("need at least one setting, each one label per party")
        counts = np.array(self.counts, dtype=float)
        if counts.shape != (len(settings), 16):
            raise ValueError(f"need ({len(settings)}, 16) counts, one row per "
                             f"setting, got shape {counts.shape}")
        if not np.all(np.isfinite(counts)) or np.any(counts < 0.0):
            raise ValueError("counts must be finite and nonnegative")
        counts.flags.writeable = False
        object.__setattr__(self, "settings", settings)
        object.__setattr__(self, "counts", counts)

    def probabilities(self) -> np.ndarray:
        """Each row over its total; a row without counts raises ValueError."""
        totals = self.counts.sum(axis=1)
        if np.any(totals <= 0.0):
            raise ValueError("a setting has zero total counts")
        return self.counts / totals[:, None]

    def to_json_dict(self) -> dict:
        return {"records": [{"settings": [s.token.lower() for s in setting],
                             "counts": [float(c) for c in row]}
                            for setting, row in zip(self.settings, self.counts)]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "CountTable":
        items = data["records"]
        return cls([[PauliLabel.from_token(t) for t in item["settings"]] for item in items],
                   [item["counts"] for item in items])


def correlators(table: CountTable) -> np.ndarray:
    """The S parity correlators: each setting's product of labeled operators.

    Row s of the row-normalised counts times row s of a +-1 table, the
    product of party i's column 1 - 2*bit_i over the parties not labeled I.
    Bit 0 is the +1 eigenstate of the label, so a negated label's sign is
    already in its counts.  A row without counts raises ValueError.
    """
    p = table.probabilities()
    measured = np.array([[lab is not PauliLabel.I for lab in s] for s in table.settings])
    parity = np.where(measured[:, :, None], 1.0 - 2.0 * OUTCOME_BITS.T, 1.0).prod(axis=1)
    # One dot product per row, summed in the order of a lone `p[s] @ parity[s]`.
    return (p[:, None, :] @ parity[:, :, None])[:, 0, 0]


def phase_witness(table: CountTable) -> float:
    """Four-party phase witness <M0 M0 M0 M0>; equals cos(theta)/sqrt(2) ideally."""
    if table.settings != (PHASE_WITNESS_SETTINGS,):
        raise ValueError("phase witness requires the one M0 projector setting")
    return float(correlators(table)[0])


@dataclass(frozen=True)
class PhaseScanFit:
    amplitude: float
    rad_per_unit: float
    phase_offset: float
    power_at_max: float


# Grid frequencies per gap between scan nodes in the global search of the
# phase-scan fit; the best one is refined by bisection on the slope's sign.
PHASE_SCAN_GRID_PER_POINT = 64


def _normal_fit(z1, z2, n: int):
    """Explained sum of squares and (c, s) of the least-squares w ~ c*cos(a*x) + s*sin(a*x).

    From z1 = sum(w*exp(-i*a*x)), z2 = sum(exp(-2i*a*x)) and the point count
    n, elementwise, by the closed-form 2x2 normal equations, or by the
    longer column alone where their determinant vanishes.
    """
    wc, ws = z1.real, -z1.imag
    cc, ss, cs = (n + z2.real) / 2.0, (n - z2.real) / 2.0, -z2.imag / 2.0
    det = cc * ss - cs * cs
    full, cos_only = det > 1e-12 * n * n, cc >= ss
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(full, (ss * wc - cs * ws) / det, np.where(cos_only, wc / cc, 0.0))
        s = np.where(full, (cc * ws - cs * wc) / det, np.where(cos_only, 0.0, ws / ss))
    return c * wc + s * ws, c, s


def _search_bracket(node: np.ndarray, w: np.ndarray, m: int,
                    band: float) -> tuple[float, float, float]:
    """(a - step, a + step, step) around the grid frequency a that explains most of w.

    ``node`` puts each point on one of m even nodes, and the grid spans the
    band (0, ``band``] in at least `PHASE_SCAN_GRID_PER_POINT` steps per
    node gap.  Its z1 and z2 (`_normal_fit`, with node 0 as origin) are FFTs
    of the node-binned data, zero-padded to a power of two M >= 2(m - 1),
    one per residue of the grid index: O(M log M) time and O(M) memory each.
    """
    per, n = PHASE_SCAN_GRID_PER_POINT, len(w)
    size = 1 << (2 * m - 3).bit_length()
    n_grid = per * size // 2
    step = band / n_grid
    binned = np.stack([np.bincount(node, w, m), np.bincount(node, None, m)])
    half = np.arange(size // 2 + 1)
    k_best, best = 0, -math.inf
    for q in range(per):
        mod = np.exp(-2j * math.pi * q / (per * size) * np.arange(m))
        f1, f2 = np.fft.fft(binned * np.stack([mod, mod * mod]), size)
        k = per * half + q
        score = _normal_fit(f1[half], f2[2 * half % size], n)[0]
        i = int(np.argmax(np.where((k >= 1) & (k <= n_grid), score, -math.inf)))
        if score[i] > best:
            k_best, best = int(k[i]), float(score[i])
    return (k_best - 1) * step, min(k_best + 1, n_grid) * step, step


def fit_phase_scan(points) -> PhaseScanFit:
    """Fit witness-vs-power data with A*cos(a*P + b) by variable projection.

    The heater phase is linear in electrical power, so a cosine in power
    captures the scan.  On the centred powers x = P - mean(P) the model is
    c*cos(a*x) + s*sin(a*x), linear in (c, s) for a fixed frequency a, so
    the fit is a search over a alone (Golub and Pereyra, SIAM J. Numer. Anal. 10, 413, 1973):
    an FFT grid over the band (0, pi/spacing] (`_search_bracket`), then a
    bisection of the best grid cell on the sign of the projected residual's
    slope -2 sum r_i x_i (s*cos(a*x_i) - c*sin(a*x_i)), on sums over the
    exact x, down to adjacent floats; `_normal_fit` gives (c, s) at every
    frequency.  The m distinct powers (closer than 1e-9*span count as one,
    so powers may repeat) must lie on an even grid of m nodes, to 1e-6 of a
    gap or to a few ulps of the powers, whichever is larger; higher
    frequencies alias into the band.  An uneven scan raises `FitError`, and
    so does a best fit in the bottom or top grid cell of the band with an
    amplitude above ten times the witness's range: there a column vanishes,
    and the frequency is not identifiable.  A >= 0, a > 0, b lies in (-pi, pi], and
    ``power_at_max`` is the fitted-cosine argmax closest to the mean power.
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
    pos = (power - power.min()) * ((m - 1) / span)
    node = np.rint(pos)
    ulps = 4.0 * float(np.spacing(np.abs(power).max())) * (m - 1) / span
    if np.any(np.abs(pos - node) > max(1e-6, ulps)):
        raise FitError("scan powers are not evenly spaced")

    def projection(a: float):
        """(c, s) at frequency ``a``, and the slope of the residual sum of squares."""
        e = np.exp(-1j * a * x)
        c, s = map(float, _normal_fit(e @ wit, e @ e, len(x))[1:])
        r = wit - c * e.real + s * e.imag
        return c, s, -2.0 * float(r @ (x * (s * e.real + c * e.imag)))

    band = math.pi * (m - 1) / span
    lo, hi, step = _search_bracket(node.astype(np.intp), wit, m, band)
    # Down to adjacent floats; hi > 0 is the frequency.
    while lo < (a := (lo + hi) / 2.0) < hi:
        if projection(a)[2] < 0.0:
            lo = a
        else:
            hi = a
    a = hi
    c, s = projection(a)[:2]
    amplitude, shift = math.hypot(c, s), math.atan2(s, c)
    if (a <= step or a >= band - step) and amplitude > 10.0 * np.ptp(wit):
        raise FitError("frequency not identifiable: the best fit sits at the edge of the band")
    b = math.remainder(-a * mid - shift, 2.0 * math.pi)
    if b <= -math.pi:
        b += 2.0 * math.pi
    fit = PhaseScanFit(amplitude=amplitude, rad_per_unit=a, phase_offset=b,
                       power_at_max=mid + shift / a)
    if not all(map(math.isfinite, (amplitude, a, b, fit.power_at_max))):
        raise FitError("cosine fit is not finite")
    return fit


@dataclass(frozen=True)
class WitnessResult:
    value: float
    fidelity_lower_bound: float
    g1_expectation: float
    stabilizer_indicator: float


def stabilizer_witness(table: CountTable) -> WitnessResult:
    """Stabilizer witness from the two settings X^4 and Z^4, in that order.

    W = 3 - 2*[ (<XXXX>+1)/2 + P(alternating Z outcomes) ]; a negative
    value certifies entanglement and bounds the fidelity from below by
    (1 - W)/2 (Toth and Guhne, PRL 94, 060501, 2005).
    """
    if table.settings != ((PauliLabel.X,) * 4, (PauliLabel.Z,) * 4):
        raise ValueError("stabilizer witness requires the settings X^4 and Z^4")
    g1 = float(correlators(table)[0])
    pz = table.probabilities()[1]
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


def bell_value(table: CountTable, exact: bool = False) -> BellResult:
    """Bell-like inequality value from the eight settings of `bell_settings`.

    I^2 = sum_i <M0(1) M1(i)> - sum_i <M1(1) M1(i)>
          + 3 <M0 M0 M0 M0> + 3 <M1 M0 M0 M0>,  classically bounded by 6.
    The standard error propagates per-setting multinomial shot noise, each
    row's total being its number of events; with ``exact`` the rows hold
    exact probabilities and the standard error is 0.
    """
    if table.settings != bell_settings():
        raise ValueError("need the eight settings of bell_settings, in order")
    e = correlators(table)
    coeff = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 3.0, 3.0])
    var = 0.0 if exact else float(np.sum(
        coeff ** 2 * np.maximum(1.0 - e ** 2, 0.0) / table.counts.sum(axis=1)))
    return BellResult(value=float(coeff @ e), expectations=tuple(e.tolist()),
                      standard_error=math.sqrt(var))


_DESIGN = tuple(itertools.product(TOMOGRAPHY_BASES, repeat=4))


def tomography_settings() -> list:
    """All 81 basis tuples (X,Y,Z per party), lexicographic with x < y < z.

    A tomography is the `CountTable` of these settings in this order.  Party
    i's frame row at (s, o) is 2*l + ((o >> (3 - i)) & 1), l the index of its
    label in `TOMOGRAPHY_BASES`: the (label, bit) row order of `_FRAME`.
    """
    return list(_DESIGN)


def _check_design(ts: CountTable):
    if ts.settings != _DESIGN:
        raise ValueError("tomography needs the 81 settings of "
                         "tomography_settings, in design order")


# Per-party eigenbasis of each tomography label: column b is the ket of
# outcome bit b (0 for the +1 eigenstate).
_EIG_BASIS = {
    PauliLabel.X: np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / SQRT2,
    PauliLabel.Y: np.array([[1.0, 1.0], [1.0j, -1.0j]]) / SQRT2,
    PauliLabel.Z: np.eye(2, dtype=complex),
}

# Per-party projector frame: row 2*l + b is |e_b><e_b| for the l-th
# tomography label, flattened row-major (6 x 4).  The two-party frame is its
# Kronecker square (36 x 16): row (l1 b1 l2 b2), column (r1 c1 r2 c2).  Each
# projector of the design is the product of two of its rows, one for parties
# 1-2 and one for parties 3-4.  The dual frame subtracts I/3 per party.
_FRAME = np.array([np.outer(_EIG_BASIS[lab][:, b], _EIG_BASIS[lab][:, b].conj()).ravel()
                   for lab in TOMOGRAPHY_BASES for b in (0, 1)])
_DUAL = _FRAME - np.eye(2).ravel() / 3.0


def _kron_square(frame: np.ndarray) -> np.ndarray:
    """kron(frame, frame) of a 6 x 4 frame, as one broadcast product: the
    first `np.kron` call of a process raises its peak resident set by about
    0.25 MB (numpy 2.4)."""
    return (frame[:, None, :, None] * frame[None, :, None, :]).reshape(36, 16)


_PAIR_FRAME = _kron_square(_FRAME)
_DUAL_PAIR_FRAME = _kron_square(_DUAL)
_PAIR_FRAME_CONJ = _PAIR_FRAME.conj()

# Flat indices that regroup a 16 x 16 operator between its (r1 r2 r3 r4,
# c1 c2 c3 c4) rows and columns and the two-party (r1 c1 r2 c2, r3 c3 r4 c4)
# ones, each as one `take`.
_TO_PAIRS = np.arange(256).reshape((2,) * 8).transpose(
    0, 4, 1, 5, 2, 6, 3, 7).reshape(16, 16)
_FROM_PAIRS = np.arange(256).reshape((2,) * 8).transpose(
    0, 2, 4, 6, 1, 3, 5, 7).reshape(16, 16)


def _by_pairs(weights: np.ndarray) -> np.ndarray:
    """An (81, 16) array in design order as (36, 36): row (l1 b1 l2 b2),
    column (l3 b3 l4 b4), l_i party i's label index and b_i its outcome bit."""
    t = weights.reshape((3,) * 4 + (2,) * 4).transpose(0, 4, 1, 5, 2, 6, 3, 7)
    return t.reshape(36, 36)


def _frame_sum(weights: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The 16 x 16 operator sum_k w_k Pi_k, Pi_k the product of the frame rows
    of outcome k's two party pairs.

    ``weights`` is a (36, 36) array from `_by_pairs` and ``frame`` a
    two-party frame (36 x 16).  frame^T W frame is the sum with its rows and
    columns regrouped as (r1 c1 r2 c2, r3 c3 r4 c4), and is returned
    regrouped back.
    """
    return (frame.T @ (weights @ frame)).take(_FROM_PAIRS)


def _frame_adjoint(rho: np.ndarray) -> np.ndarray:
    """The (36, 36) array Tr(Pi_k rho) of the design's projectors, laid out
    as `_by_pairs`: the adjoint of `_frame_sum` with `_PAIR_FRAME`,
    Re(conj(F) X conj(F)^T) for rho regrouped as X.  ``rho`` must be
    Hermitian; the real part is returned, as a real array of its own.
    """
    return (_PAIR_FRAME_CONJ @ rho.take(_TO_PAIRS) @ _PAIR_FRAME_CONJ.T).real.copy()


def linear_inversion(ts: CountTable) -> np.ndarray:
    """Linear-inversion estimate from the dual frame of the 81-setting design.

        rho = sum_k p_k  (x)_i (|e_(k,i)><e_(k,i)| - I/3),

    summed over all 1296 (setting, outcome) pairs k, where p_k is the
    outcome's count over its setting's total and |e_(k,i)> is party i's
    eigenket of its label at its outcome bit.  This equals the Pauli
    reconstruction (1/16) sum_P <P> P over all 256 strings, each string
    with identities averaged over every compatible setting.  It is one
    `_frame_sum` of p with the two-party dual frame.  The output is
    Hermitian with unit trace but may have negative eigenvalues.  A setting without events
    has no probabilities and raises `FitError`; a table that is not the
    design, in design order, raises `ValueError`.
    """
    _check_design(ts)
    totals = ts.counts.sum(axis=1)
    empty = np.flatnonzero(totals <= 0.0)
    if empty.size:
        setting = ts.settings[empty[0]]
        raise FitError(f"tomography setting {''.join(s.token for s in setting)} "
                       "has no events")
    return _frame_sum(_by_pairs(ts.counts / totals[:, None]), _DUAL_PAIR_FRAME)


@dataclass
class MleResult:
    rho: np.ndarray
    log_likelihood: float
    iterations: int
    converged: bool
    certificate: float
    # Hessian-vector products of the iterations' CG solves.
    cg_products: int

    @property
    def factor(self) -> np.ndarray:
        """A (16 x r), the eigenpairs of rho above `MLE_START_FLOOR`: A A^dag
        is rho less the eigenvalues at or below the floor.  One
        eigendecomposition per read."""
        w, v = np.linalg.eigh(self.rho)
        kept = w > MLE_START_FLOOR
        return v[:, kept] * np.sqrt(w[kept])


# Stop when the KKT certificate of the fit is at most this.  Round-off can
# hold a fit's certificate near 1e-7, so a tighter value may run to the cap.
MLE_CERTIFICATE_TOL = 1e-6
# Eigenvalue floor of a fit's start from a matrix, so that every outcome
# has a positive probability there, and of `MleResult.factor`.
MLE_START_FLOOR = 1e-8
# Hessian-vector products of one CG solve at most, and the shortest step of
# the line search.
_CG_MAX_PRODUCTS = 50
_NEWTON_MIN_STEP = 1e-4


def _likelihood_terms(counts: np.ndarray, p: np.ndarray):
    """(Sum_k n_k ln p_k, the ratios n_k / p_k) at the probabilities p.

    ``counts`` and ``p`` share one layout.  Outcomes without counts add
    nothing to either; the sum is -inf (and the ratios None) when an
    observed outcome has p_k <= 0.
    """
    observed = counts > 0.0
    p_obs = p[observed]
    if p_obs.min() <= 0.0:
        return -math.inf, None
    n_obs = counts[observed]
    ratio = np.zeros_like(p)
    ratio[observed] = n_obs / p_obs
    return float(n_obs @ np.log(p_obs)), ratio


def _face_jacobian(a: np.ndarray, r: np.ndarray, w2: np.ndarray,
                   d: np.ndarray) -> np.ndarray:
    """J[D] = R D + dR[D] A - D, the derivative of F(A) = R(AA^dag) A - A.

    ``r`` is R(AA^dag) and ``w2`` the weights n_k / (N p_k^2) on the
    observed outcomes (zero elsewhere), laid out as `_by_pairs`; then
    dR[D] = -sum_k w2_k Tr(Pi_k (D A^dag + A D^dag)) Pi_k, one adjoint and
    one frame sum.  J is self-adjoint under Re Tr(X^dag Y), and -J is
    positive semidefinite near a maximum on the face.
    """
    dp = _frame_adjoint(d @ a.conj().T + a @ d.conj().T)
    return r @ d - _frame_sum(w2 * dp, _PAIR_FRAME) @ a - d


def _newton_direction(a: np.ndarray, r: np.ndarray, w2: np.ndarray,
                      f: np.ndarray) -> tuple[np.ndarray, int]:
    """(D, products): truncated CG on -J[D] = F from D = 0.

    CG stops once its residual is at most min(0.1, sqrt|F|) |F|, after
    `_CG_MAX_PRODUCTS` products, or on a direction of non-positive
    curvature; that on the first product gives D = F, the gradient.
    """
    f_norm = float(np.linalg.norm(f))
    tol = min(0.1, math.sqrt(f_norm)) * f_norm
    d = np.zeros_like(f)
    res, q, rr = f, f, f_norm * f_norm
    for products in range(1, _CG_MAX_PRODUCTS + 1):
        hq = -_face_jacobian(a, r, w2, q)
        curvature = np.vdot(q, hq).real
        if curvature <= 0.0:
            return (f if products == 1 else d), products
        alpha = rr / curvature
        d = d + alpha * q
        res = res - alpha * hq
        rr_next = np.vdot(res, res).real
        if rr_next <= tol * tol:
            break
        q = res + (rr_next / rr) * q
        rr = rr_next
    return d, products


def mle_reconstruct(ts: CountTable, max_iterations: int = 5000,
                    start: np.ndarray | None = None,
                    factor: np.ndarray | None = None) -> MleResult:
    """Maximum-likelihood density matrix from the 81-setting design's counts.

    Maximizes the log-likelihood sum_k n_k ln Tr(Pi_k rho) over density
    matrices written rho = A A^dag / |A|_F^2, A a 16 x r factor (Burer and
    Monteiro, Math. Program. 95, 329, 2003), by Newton-CG steps on A
    (Nocedal and Wright, Numerical Optimization, ch. 7).  The gradient is
    N R(rho), with

        R(rho) = sum_k (n_k / (N p_k)) Pi_k,   p_k = Tr(Pi_k rho),

    from `_frame_adjoint` (the p_k) and `_frame_sum` (the operator sum),
    on the counts regrouped once by `_by_pairs`; outcomes with n_k = 0 add
    nothing.  A step solves for a root of F(A) = R(AA^dag) A - A, which is
    zero exactly at the stationary points of the likelihood on the face of
    rank-r matrices, by truncated CG (`_newton_direction`), and retracts it
    as A <- (A + tD) / |A + tD|_F, t halved from 1 down to 1e-4 until the
    likelihood does not fall; when no t keeps it from falling, the same
    search runs along F, the ascent direction.  A density matrix is the
    maximum exactly when R(rho) rho = rho and R(rho) <= I, so the fit stops
    once the certificate

        max(|R(rho) rho - rho|_F, lambda_max(R(rho)) - 1)

    is at most `MLE_CERTIFICATE_TOL`.  When its first term is met but not
    its second, the maximum lies off the face, and the step appends R's top
    eigenvector u as a column instead, A <- [A, t u], t halved from 1 as
    above: a Frank-Wolfe step toward u u^dag that raises the rank by one.
    Where no such t keeps the likelihood, the maximum is on the face after
    all, below the resolution of the likelihood, and the step is a Newton
    step; so is every step of a factor with 16 columns, which spans the
    whole space already.  A fit whose step finds no t ends there,
    uncertified; it never takes a step of length zero.

    ``converged`` says the certificate was met within ``max_iterations``
    steps, ``iterations`` counts the steps taken and ``cg_products`` the
    Hessian-vector products of their CG solves.  While the certificate's
    first term exceeds the tolerance it decides the stop alone, so
    lambda_max is computed only once it does not, and for the certificate
    returned.  The fit starts on ``factor`` (any 16 x r matrix at which
    every observed outcome has a positive probability; any other shape
    and a zero or non-finite one raise ValueError) when one is given; otherwise on the
    eigenpairs of ``start`` (a Hermitian matrix, by default the linear
    inversion) projected onto the density matrices with no eigenvalue
    below `MLE_START_FLOOR`, a full-rank face.
    """
    _check_design(ts)
    counts = _by_pairs(ts.counts)
    n_total = float(counts.sum())
    if n_total <= 0.0:
        raise ValueError("tomography set has no counts")
    if factor is None:
        w, v = _projected_eigensystem(linear_inversion(ts) if start is None else start,
                                      MLE_START_FLOOR)
        factor = v * np.sqrt(w)
    a = np.asarray(factor, dtype=complex)
    if a.ndim != 2 or a.shape[0] != 16:
        raise ValueError(f"factor must be 16 x r, got shape {a.shape}")
    largest = max(np.abs(a.real).max(initial=0.0), np.abs(a.imag).max(initial=0.0))
    if not 0.0 < largest < math.inf:
        raise ValueError("factor must be finite and nonzero")
    if not 1e-150 <= largest <= 1e150:
        # Rescaled first, so that its squared norm neither overflows nor underflows.
        factor = a = a / largest
    a = a / np.linalg.norm(factor)
    observed = counts > 0.0
    x = a @ a.conj().T
    p_x = _frame_adjoint(x)
    ll_x, ratio_x = _likelihood_terms(counts, p_x)
    if ratio_x is None:
        raise ValueError("start point gives an observed outcome zero probability")
    r_x = _frame_sum(ratio_x / n_total, _PAIR_FRAME)

    def certificate(rho, r):
        """(The certificate, or its first term alone while that exceeds the
        tolerance; R's top eigenvector as a column once the first term is
        within it, else None)."""
        stationarity = float(np.linalg.norm(r @ rho - rho))
        if stationarity > MLE_CERTIFICATE_TOL:
            return stationarity, None
        w, v = np.linalg.eigh(r)
        return max(stationarity, float(w[-1]) - 1.0), v[:, -1:]

    def search(trial_at):
        """The first factor trial_at(t), t halved from 1 down to
        `_NEWTON_MIN_STEP`, whose likelihood is not below the iterate's, with
        its terms; None when there is none."""
        t = 1.0
        while t >= _NEWTON_MIN_STEP:
            trial = trial_at(t)
            trial /= np.linalg.norm(trial)
            rho = trial @ trial.conj().T
            p = _frame_adjoint(rho)
            ll, ratio = _likelihood_terms(counts, p)
            if ratio is not None and ll >= ll_x:
                return trial, rho, p, ll, ratio
            t /= 2.0
        return None

    cert, top = certificate(x, r_x)
    iteration = cg_products = 0
    while cert > MLE_CERTIFICATE_TOL and iteration < max_iterations:
        step = (None if top is None or a.shape[1] >= 16
                else search(lambda t: np.hstack([a, t * top])))
        if step is None:
            w2 = np.divide(ratio_x, n_total * p_x, out=np.zeros_like(p_x), where=observed)
            f = r_x @ a - a
            d, products = _newton_direction(a, r_x, w2, f)
            cg_products += products
            step = search(lambda t: a + t * d) or search(lambda t: a + t * f)
        if step is None:
            break
        iteration += 1
        a, x, p_x, ll_x, ratio_x = step
        r_x = _frame_sum(ratio_x / n_total, _PAIR_FRAME)
        cert, top = certificate(x, r_x)
    if top is None:
        cert = max(cert, float(np.linalg.eigvalsh(r_x)[-1]) - 1.0)
    return MleResult(rho=check_density_matrix(x), log_likelihood=ll_x,
                     iterations=iteration, converged=cert <= MLE_CERTIFICATE_TOL,
                     certificate=cert, cg_products=cg_products)


def monte_carlo_error(ts: CountTable, statistic, n_resamples: int, seed):
    """Standard deviations of a tuple-valued statistic under Poisson count
    resampling, one per component.

    Resample r is one Poisson draw on the whole (S, 16) count array from
    child r of ``seed``, with the same settings.  Each component's standard
    deviation is the same as a separate run with that component alone would
    give.
    """
    if n_resamples < 2:
        raise ValueError("need at least 2 resamples")
    values = []
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        rng = np.random.default_rng(child)
        values.append(statistic(CountTable(ts.settings,
                                           rng.poisson(ts.counts).astype(float))))
    return tuple(float(np.std([float(v) for v in column], ddof=1))
                 for column in zip(*values))


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
    theta = 0.0 - float(np.angle(coh))  # not -angle: a real coherence gives +0.0
    if theta <= -math.pi:
        theta += 2.0 * math.pi
    return theta, float(diag + abs(coh))
