"""Model of the reconfigurable photonic chip.

The chip has two stages acting on 8 spatial modes (two rails per qubit,
upper rail = |0>):

* a preparation stage -- four directional couplers on mode pairs (1,2),
  (3,4), (5,6), (7,8), a fixed network of waveguide crossings, and static
  path phases, of which one signed sum, the state phase, reaches an
  outcome;
* a measurement stage -- four thermally tuned Mach-Zehnder interferometers
  (MZI), one per qubit, each implementing a single-qubit projective
  measurement selected by two phases (alpha before the first coupler on the
  upper rail, phi between the arms).

The thermal phase shifters are driven by 16 resistors whose currents map
quadratically to the MZI phases through dense crosstalk matrices; this
module also provides the forward map and its power-minimizing inverse.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import SolverError
from .qmath import PauliLabel

TWO_PI = 2.0 * math.pi

# Output mode k (top to bottom) receives post-coupler mode CROSSING[k]:
# three waveguide crossings swap the inner mode pairs.
CROSSING = (0, 2, 1, 4, 3, 6, 5, 7)


def coupler(reflectivity: float) -> np.ndarray:
    """2x2 directional coupler: BAR amplitude sqrt(R), CROSS amplitude i*sqrt(1-R)."""
    r = float(reflectivity)
    if not 0.0 < r < 1.0:
        raise ValueError(f"reflectivity must lie in (0,1), got {r}")
    return np.array(
        [[math.sqrt(r), 1j * math.sqrt(1.0 - r)],
         [1j * math.sqrt(1.0 - r), math.sqrt(r)]],
        dtype=complex,
    )


def phase_on_upper(x: float) -> np.ndarray:
    return np.array([[np.exp(1j * x), 0.0], [0.0, 1.0]], dtype=complex)


def state_phase_of(path_phases: Sequence[float]) -> float:
    """Minus th1-th2-th3+th4+th5-th6-th7+th8 of the eight static path phases.

    The rest is gauge: a phase common to one coupler's outputs or to one
    qubit's mode pair is global to a source term or an output state, and
    through the crossings these eight gauges span all but this sum.
    """
    t = path_phases
    return -t[0] + t[1] + t[2] - t[3] - t[4] + t[5] + t[6] - t[7]


@dataclass(frozen=True)
class PreparationStage:
    """Static preparation-stage parameters.

    ``state_phase`` (radians) is theta of the post-selected state
    (|0101> + e^{i*theta}|1010>)/sqrt(2), carried on mode 2 between the
    couplers and the measurement stage (see `state_phase_of`);
    ``reflectivities`` are the power fractions remaining in the BAR mode of
    the four couplers.  The stage owns its ``unitary``, built on first use;
    a stage made with ``dataclasses.replace`` builds its own.
    """

    state_phase: float = 0.0
    reflectivities: tuple = (0.5, 0.5, 0.5, 0.5)

    def __post_init__(self):
        if not math.isfinite(self.state_phase):
            raise ValueError(f"state phase must be finite, got {self.state_phase}")
        if len(self.reflectivities) != 4:
            raise ValueError("need 4 coupler reflectivities")
        for r in self.reflectivities:
            if not 0.0 < float(r) < 1.0:
                raise ValueError(f"reflectivity must lie in (0,1), got {r}")

    @functools.cached_property
    def unitary(self) -> np.ndarray:
        """`preparation_unitary` of this stage, read-only."""
        u = preparation_unitary(self)
        u.flags.writeable = False
        return u


def preparation_unitary(stage: PreparationStage) -> np.ndarray:
    """8x8 scattering matrix of the preparation stage (couplers, crossings, phase)."""
    c = np.zeros((8, 8), dtype=complex)
    for k in range(4):
        c[2 * k:2 * k + 2, 2 * k:2 * k + 2] = coupler(stage.reflectivities[k])
    perm = np.zeros((8, 8), dtype=complex)
    for out, pc in enumerate(CROSSING):
        perm[out, pc] = 1.0
    phases = np.ones(8, dtype=complex)
    phases[1] = np.exp(1j * stage.state_phase)
    return (phases[:, None] * perm) @ c


# Phases (alpha, phi) realizing each projective measurement; the +1 eigenstate
# cos(chi)|0> + e^{i*psi} sin(chi)|1> of the labeled operator exits on the
# upper output with probability one (validated in the test suite).  A party
# measured with I is read out at Z.
_PROJECTOR_TABLE = {
    PauliLabel.I: (0.0, math.pi),
    PauliLabel.X: (0.0, math.pi / 2),
    PauliLabel.MINUS_X: (0.0, 3 * math.pi / 2),
    PauliLabel.Y: (math.pi / 2, math.pi / 2),
    PauliLabel.Z: (0.0, math.pi),
    PauliLabel.MINUS_Z: (0.0, 0.0),
    PauliLabel.XPZ: (0.0, 3 * math.pi / 4),
    PauliLabel.XMZ: (0.0, math.pi / 4),
}


def mzi_block(alpha: float, phi: float) -> np.ndarray:
    """2x2 transfer matrix: coupler . phi-shift . coupler . alpha-shift."""
    dc = coupler(0.5)
    return dc @ phase_on_upper(phi) @ dc @ phase_on_upper(alpha)


_MZI_BLOCKS = {label: mzi_block(*phases) for label, phases in _PROJECTOR_TABLE.items()}


def measurement_unitary(labels: Sequence[PauliLabel]) -> np.ndarray:
    """Block-diagonal 8x8 unitary of the four measurement MZIs, one label per qubit."""
    if len(labels) != 4:
        raise ValueError("need one measurement label per qubit")
    u = np.zeros((8, 8), dtype=complex)
    for k, label in enumerate(labels):
        u[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _MZI_BLOCKS[label]
    return u


def full_unitary(stage: PreparationStage, labels: Sequence[PauliLabel]) -> np.ndarray:
    """The measurement MZIs after the preparation stage."""
    return measurement_unitary(labels) @ stage.unitary


# --------------------------------------------------------------------------
# Thermal phase-shifter network
# --------------------------------------------------------------------------

_ALPHA_MATRIX_KRAD = np.array([
    [53.031, -54.123, -10.807, -4.293, -2.302, -1.307, -1.000, -0.733],
    [2.915, 9.016, 49.504, -48.858, -9.342, -3.271, -1.604, -0.801],
    [1.094, 1.304, 4.330, 9.644, 51.987, -53.094, -11.325, -3.920],
    [0.828, 1.124, 1.604, 2.203, 4.162, 11.675, 54.696, -51.980],
])

_PHI_MATRIX_KRAD = np.array([
    [53.604, -52.942, -12.937, -4.535, -2.067, -1.504, 0.0, -0.730],
    [3.779, 10.918, 52.829, -54.752, -9.796, -3.963, 0.0, -1.201],
    [1.165, 1.870, 3.826, 11.283, 48.144, -54.833, 0.0, -3.791],
    [0.706, 0.926, 1.338, 2.199, 3.731, 11.630, 0.0, -52.863],
])

_PHI_OFFSET_RAD = np.array([3.8656, 2.838, 0.798, 0.990])

# Entry (i, j) is True where column j is in row i's diagonal block.
_DIAGONAL_BLOCK = np.arange(8) // 2 == np.arange(4)[:, None]


@dataclass(frozen=True)
class HeaterCalibration:
    """Current-to-phase calibration of the 16 thermal shifters.

    ``alpha_matrix`` / ``phi_matrix`` are 4x8 crosstalk matrices in krad/A^2
    mapping squared currents of resistors 1-8 (alpha phases) and 9-16 (phi
    phases); ``phi_offset`` is the zero-current phi vector in radians.
    Resistor numbering is 1-based; dead channels must carry no current.
    Every entry of the four arrays must be finite.
    """

    alpha_matrix: np.ndarray = field(default_factory=lambda: _ALPHA_MATRIX_KRAD.copy())
    phi_matrix: np.ndarray = field(default_factory=lambda: _PHI_MATRIX_KRAD.copy())
    phi_offset: np.ndarray = field(default_factory=lambda: _PHI_OFFSET_RAD.copy())
    resistances: np.ndarray = field(default_factory=lambda: np.full(16, 420.0))
    dead_channels: frozenset = frozenset({15})

    def __post_init__(self):
        a = np.asarray(self.alpha_matrix, dtype=float)
        b = np.asarray(self.phi_matrix, dtype=float)
        offset = np.asarray(self.phi_offset, dtype=float)
        r = np.asarray(self.resistances, dtype=float)
        if a.shape != (4, 8) or b.shape != (4, 8):
            raise ValueError("crosstalk matrices must be 4x8")
        if offset.shape != (4,):
            raise ValueError("phi offset must have 4 entries")
        if r.shape != (16,):
            raise ValueError("need 16 resistances")
        if not all(np.all(np.isfinite(x)) for x in (a, b, offset, r)):
            raise ValueError("calibration entries must be finite")
        if np.any(r < 400.0) or np.any(r > 440.0):
            raise ValueError("resistances out of the plausible 400-440 ohm range")
        object.__setattr__(self, "alpha_matrix", a)
        object.__setattr__(self, "phi_matrix", b)
        object.__setattr__(self, "phi_offset", offset)
        object.__setattr__(self, "resistances", r)
        for ch in self.dead_channels:
            if not 1 <= ch <= 16:
                raise ValueError(f"dead channel {ch} out of range 1-16")
            if ch >= 9 and np.any(b[:, ch - 9] != 0.0):
                raise ValueError(f"dead channel {ch} has nonzero crosstalk column")
        # A dead column counts on neither side of its row's comparison, and a
        # side left empty reduces to -inf or +inf, which never fails.
        counted = ~self.dead_mask().reshape(2, 1, 8)
        mags = np.abs((a, b))
        off_max = np.where(counted & ~_DIAGONAL_BLOCK, mags, -np.inf).max(axis=2)
        diag_min = np.where(counted & _DIAGONAL_BLOCK, mags, np.inf).min(axis=2)
        failing = np.flatnonzero((off_max >= diag_min).any(axis=0))
        if failing.size:
            raise ValueError(f"row {failing[0] + 1}: diagonal-block entries do not dominate")

    def dead_mask(self) -> np.ndarray:
        mask = np.zeros(16, dtype=bool)
        for ch in self.dead_channels:
            mask[ch - 1] = True
        return mask

    def to_text(self) -> str:
        lines = ["# heater calibration", "units krad/A^2 ; phases rad ; resistances ohm"]
        for row in self.alpha_matrix:
            lines.append("alpha_row " + " ".join(map(repr, row.tolist())))
        for row in self.phi_matrix:
            lines.append("phi_row " + " ".join(map(repr, row.tolist())))
        lines.append("phi_offset " + " ".join(map(repr, self.phi_offset.tolist())))
        lines.append("resistances " + " ".join(map(repr, self.resistances.tolist())))
        lines.append("dead_channels " + " ".join(str(c) for c in sorted(self.dead_channels)))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "HeaterCalibration":
        alpha_rows, phi_rows = [], []
        offset = resist = None
        dead: frozenset = frozenset()
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#") or line.startswith("units"):
                continue
            key, *vals = line.split()
            if key == "alpha_row":
                alpha_rows.append([float(v) for v in vals])
            elif key == "phi_row":
                phi_rows.append([float(v) for v in vals])
            elif key == "phi_offset":
                offset = [float(v) for v in vals]
            elif key == "resistances":
                resist = [float(v) for v in vals]
            elif key == "dead_channels":
                dead = frozenset(int(v) for v in vals)
            else:
                raise ValueError(f"unknown key {key!r} in calibration file")
        if len(alpha_rows) != 4 or len(phi_rows) != 4 or offset is None or resist is None:
            raise ValueError("incomplete calibration file")
        return cls(alpha_matrix=np.array(alpha_rows), phi_matrix=np.array(phi_rows),
                   phi_offset=np.array(offset), resistances=np.array(resist),
                   dead_channels=dead)

    @classmethod
    def from_file(cls, path: str | Path) -> "HeaterCalibration":
        return cls.from_text(Path(path).read_text())


def heater_forward(cal: HeaterCalibration, currents: Sequence[float]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Phases (alpha 4-vector, phi 4-vector) produced by the given currents (A)."""
    c = np.asarray(currents, dtype=float)
    if c.shape != (16,):
        raise ValueError("need 16 currents")
    if not np.all(np.isfinite(c)):
        raise ValueError("currents must be finite")
    if np.any(c < 0.0):
        raise ValueError("currents must be nonnegative")
    dead = cal.dead_mask()
    if np.any(c[dead] != 0.0):
        raise ValueError("nonzero current on a dead channel")
    sq = c ** 2
    alpha = 1e3 * cal.alpha_matrix @ sq[:8]
    phi = cal.phi_offset + 1e3 * cal.phi_matrix @ sq[8:]
    return alpha, phi


@functools.cache
def _bases(n: int) -> np.ndarray:
    """Read-only (C(n, 4), 4) table of every choice of four of n columns."""
    table = np.array(list(itertools.combinations(range(n), 4)), dtype=np.intp).reshape(-1, 4)
    table.flags.writeable = False
    return table


@functools.cache
def _lifts(max_lift: int) -> np.ndarray:
    """Read-only (4, (max_lift+1)^4) table of lifts, columns in product order."""
    table = np.ascontiguousarray(
        np.array(list(itertools.product(range(max_lift + 1), repeat=4))).T)
    table.flags.writeable = False
    return table


def _solve_block(matrix_krad: np.ndarray, base_rad: np.ndarray,
                 resistances: np.ndarray, usable: np.ndarray,
                 max_lift: int = 4) -> np.ndarray:
    """Power-minimal squared currents with M @ u = base + 2*pi*k, u >= 0.

    Over the lifts k in {0..max_lift}^4, the linear program min R.u has an
    optimal basic feasible solution, so every nonsingular choice of four
    columns of M is solved for every lift at once: the inverse of each
    basis, stacked, times the (4, lifts) target table gives the vertices as
    a (basis, row, lift) array in one matmul, and one more matmul with each
    basis's costs gives their powers.  The basis and lift tables depend only
    on the number of live columns and on max_lift, so they are built once.

    Most lifts are pruned first by weak duality.  The lift-0 program is
    solved from the same inverses; if its cheapest basis B has a dual
    vector y = R_B B^-1 with M^T y <= R (to a relative 1e-12), every lift k
    costs at least P(0) + 2*pi*y.k, so only the lifts with
    2*pi*y.k <= 1e-9*|P(0)| are enumerated, in table order.  The slack
    covers rounding in the powers.  If lift 0 has no vertex with
    u >= -1e-12, or its basis is not dual feasible, every lift is.

    The cheapest vertex with u >= -1e-12 wins; the argmin runs over the
    transposed (lift, basis) powers, so ties go to the first lift in
    lexicographic order and within it to the first basis.  Least squares on
    the support of its u polishes the solution to machine-precision
    equality at that lift.
    """
    m = 1e3 * matrix_krad[:, usable]
    cost = resistances[usable]
    n = m.shape[1]
    bases = _bases(n)
    columns = m[:, bases].transpose(1, 0, 2)
    keep = np.linalg.matrix_rank(columns) == 4
    bases = bases[keep]
    inverses = np.linalg.inv(columns[keep])
    lifts = _lifts(max_lift)
    vertex0 = inverses @ base_rad
    power0 = np.where((vertex0 >= -1e-12).all(axis=1),
                      (cost[bases] * vertex0).sum(axis=1), np.inf)
    if np.isfinite(power0).any():
        best = np.argmin(power0)
        dual = cost[bases[best]] @ inverses[best]
        if np.all(dual @ m <= cost * (1.0 + 1e-12)):
            lifts = lifts[:, TWO_PI * (dual @ lifts) <= 1e-9 * abs(power0[best])]
    targets = base_rad[:, None] + TWO_PI * lifts
    vertices = inverses @ targets
    feasible = (vertices >= -1e-12).all(axis=1)
    if not feasible.any():
        raise SolverError("no nonnegative heater solution reaches the target phases")
    power = np.where(feasible, (cost[bases][:, None, :] @ vertices)[:, 0, :], np.inf)
    k, basis = np.unravel_index(np.argmin(power.T), power.T.shape)
    b = targets[:, k]
    u = np.zeros(n)
    u[bases[basis]] = np.clip(vertices[basis, :, k], 0.0, None)
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


def heater_solve(cal: HeaterCalibration, alpha_target: Sequence[float],
                 phi_target: Sequence[float]) -> np.ndarray:
    """Currents (16-vector, A) realizing the target phases modulo 2*pi.

    The alpha and phi blocks are solved independently, each for the squared
    currents and the 2*pi lifts of its four targets that minimize the total
    dissipated power; dead channels stay at zero.
    """
    at = np.asarray(alpha_target, dtype=float)
    pt = np.asarray(phi_target, dtype=float)
    if at.shape != (4,) or pt.shape != (4,):
        raise ValueError("need 4 alpha and 4 phi targets")
    if not (np.all(np.isfinite(at)) and np.all(np.isfinite(pt))):
        raise ValueError("targets must be finite")
    dead = cal.dead_mask()
    usable_a = ~dead[:8]
    usable_p = ~dead[8:]
    base_a = np.mod(at, TWO_PI)
    base_p = np.mod(pt - cal.phi_offset, TWO_PI)
    u_alpha = _solve_block(cal.alpha_matrix, base_a, cal.resistances[:8], usable_a)
    u_phi = _solve_block(cal.phi_matrix, base_p, cal.resistances[8:], usable_p)
    return np.sqrt(np.concatenate([u_alpha, u_phi]))
