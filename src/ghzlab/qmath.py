"""Dense complex linear algebra for few-qubit / few-mode photonics.

Everything here operates on plain numpy arrays in 64-bit complex arithmetic:
unitaries and scattering matrices are square ``complex128`` matrices, pure
states are normalized vectors, density matrices are Hermitian PSD trace-one
matrices.  All functions are pure and safe to call from multiple threads.

Qubit ordering convention: the computational basis index of ``|q1 q2 q3 q4>``
is ``q1*8 + q2*4 + q3*2 + q4`` (first qubit most significant), so outcome
labels read left to right in the order 0000, 0001, ..., 1111.
"""

from __future__ import annotations

import enum
import itertools
import math
from functools import cache
from typing import Sequence

import numpy as np

SQRT2 = math.sqrt(2.0)

# Row o, column i: qubit i's bit of basis index (or outcome) o under the
# ordering above, (o >> (3 - i)) & 1 for four qubits.  Read-only.
OUTCOME_BITS = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
OUTCOME_BITS.flags.writeable = False

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


class PauliLabel(enum.Enum):
    """Single-qubit measurement label.

    Besides the identity and the three Pauli operators, the rotated
    combinations (X+Z)/sqrt(2) and (X-Z)/sqrt(2) and the negated operators
    -X and -Z are supported; all non-identity labels are Hermitian with
    eigenvalues +-1.
    """

    I = "I"
    X = "X"
    Y = "Y"
    Z = "Z"
    MINUS_X = "-X"
    MINUS_Z = "-Z"
    XPZ = "(X+Z)/sqrt2"
    XMZ = "(X-Z)/sqrt2"

    @property
    def sign(self) -> int:
        return -1 if self in (PauliLabel.MINUS_X, PauliLabel.MINUS_Z) else 1

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 Hermitian operator this label names (sign included)."""
        return _LABEL_MATRICES[self].copy()

    @classmethod
    def from_token(cls, token: str) -> "PauliLabel":
        t = token.strip().lower()
        if t not in _TOKEN_LABELS:
            raise ValueError(f"unknown measurement label {token!r}")
        return _TOKEN_LABELS[t]

    @property
    def token(self) -> str:
        return _LABEL_TOKENS[self]


_LABEL_MATRICES = {
    PauliLabel.I: PAULI_I,
    PauliLabel.X: PAULI_X,
    PauliLabel.Y: PAULI_Y,
    PauliLabel.Z: PAULI_Z,
    PauliLabel.MINUS_X: -PAULI_X,
    PauliLabel.MINUS_Z: -PAULI_Z,
    PauliLabel.XPZ: (PAULI_X + PAULI_Z) / SQRT2,
    PauliLabel.XMZ: (PAULI_X - PAULI_Z) / SQRT2,
}

_LABEL_TOKENS = {
    PauliLabel.I: "I", PauliLabel.X: "X", PauliLabel.Y: "Y",
    PauliLabel.Z: "Z", PauliLabel.MINUS_X: "-X",
    PauliLabel.MINUS_Z: "-Z", PauliLabel.XPZ: "X+Z",
    PauliLabel.XMZ: "X-Z",
}

_TOKEN_LABELS = {
    "i": PauliLabel.I, "1": PauliLabel.I,
    "x": PauliLabel.X, "y": PauliLabel.Y, "z": PauliLabel.Z,
    "-x": PauliLabel.MINUS_X, "-z": PauliLabel.MINUS_Z,
    "x+z": PauliLabel.XPZ, "(x+z)/sqrt2": PauliLabel.XPZ,
    "x-z": PauliLabel.XMZ, "(x-z)/sqrt2": PauliLabel.XMZ,
}


def check_square(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    return a


def check_density_matrix(rho: np.ndarray) -> np.ndarray:
    """``rho``, checked Hermitian and of unit trace to 1e-10, eigenvalues >= -1e-9."""
    a = check_square(rho)
    if np.linalg.norm(a - a.conj().T) > 1e-10:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(a).real - 1.0) > 1e-10:
        raise ValueError(f"density matrix trace {np.trace(a).real} != 1")
    wmin = float(np.linalg.eigvalsh(a).min())
    if wmin < -1e-9:
        raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return a


@cache
def _permutations(n: int) -> np.ndarray:
    """The n! permutations of range(n) as rows, in lexicographic order (read-only)."""
    table = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
    table = table.reshape(math.factorial(n), n)
    table.setflags(write=False)
    return table


def permanent(m: np.ndarray):
    """Permanent of a square complex matrix as a sum over permutations.

    Each permutation's product is built row by row, so a matrix gives the
    same bits alone as in a stack.  Dimensions up to 8 are accepted, the
    most photons one scattered input holds.

    A stack of matrices with shape ``(..., n, n)`` gives an array of shape
    ``(...)`` holding each matrix's permanent; a single ``(n, n)`` matrix
    gives a complex scalar.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    n = a.shape[-1]
    if n > 8:
        raise ValueError(f"permanent limited to n <= 8, got {n}")
    perms = _permutations(n)
    terms = np.ones(a.shape[:-2] + (len(perms),), dtype=complex)
    for row in range(n):
        terms *= a[..., row, perms[:, row]]
    total = terms.sum(axis=-1)
    return complex(total) if a.ndim == 2 else total


def pauli_operator(labels: Sequence[PauliLabel]) -> np.ndarray:
    """Kronecker product of single-qubit operators, first label most significant."""
    labels = list(labels)
    if len(labels) < 1:
        raise ValueError("at least one qubit label required")
    op = labels[0].matrix
    for lab in labels[1:]:
        op = np.kron(op, lab.matrix)
    return op


def ghz4(theta: float = 0.0) -> np.ndarray:
    """Four-qubit target state (|0101> + e^{i*theta}|1010>)/sqrt(2)."""
    v = np.zeros(16, dtype=complex)
    v[0b0101] = 1.0 / SQRT2
    v[0b1010] = np.exp(1j * theta) / SQRT2
    return v


def fidelity_to_pure(rho: np.ndarray, psi: np.ndarray) -> float:
    """<psi|rho|psi>, checked to be real."""
    r = np.asarray(rho, dtype=complex)
    v = np.asarray(psi, dtype=complex).ravel()
    if r.shape != (v.size, v.size):
        raise ValueError(f"dimension mismatch: rho {r.shape} vs psi {v.size}")
    val = complex(np.vdot(v, r @ v))
    if abs(val.imag) > 1e-10:
        raise ValueError(f"fidelity has non-negligible imaginary part {val.imag:.3e}")
    return float(val.real)


def purity(rho: np.ndarray) -> float:
    """Tr(rho^2)."""
    r = check_square(rho)
    return float(np.trace(r @ r).real)


def project_to_physical(h: np.ndarray, min_eigenvalue: float = 0.0) -> np.ndarray:
    """The Frobenius-nearest density matrix to a Hermitian matrix.

    Keeps the eigenvectors and projects the eigenvalues onto the probability
    simplex (Smolin, Gambetta and Smith, PRL 108, 070502, 2012): each is
    shifted by one common amount and clamped at zero, the shift chosen so
    the trace is one.  With ``min_eigenvalue`` > 0 the eigenvalues are
    projected onto the simplex shifted by that floor instead, which gives
    the nearest density matrix with no eigenvalue below it.  An n x n input
    with |h - h^dag|_F <= 1e-8 and no real or imaginary part above the largest
    float / (4 n^2) in magnitude has one, and no step overflows; others raise
    ValueError, as does (LinAlgError) an eigensolver that does not converge.
    """
    w, v = _projected_eigensystem(h, min_eigenvalue)
    return (v * w) @ v.conj().T


def _projected_eigensystem(h: np.ndarray, min_eigenvalue: float = 0.0):
    """(w, v): the eigenvectors v of ``h``'s Hermitian part (columns,
    ascending eigenvalues) and its eigenvalues projected onto the simplex,
    so that `project_to_physical` is (v * w) @ v^dag.  The eigenvalues the
    projection clamps are exactly ``min_eigenvalue`` (zero by default).
    Raises ValueError as `project_to_physical` does.
    """
    a = check_square(h)
    n = a.shape[0]
    # The bound keeps the eigenvalue gaps and their sums finite, and the
    # largest entry of h - h^dag, checked first, the squares of its norm.
    bound = np.finfo(float).max / (4 * n * n)
    if not (np.abs(a.real).max() <= bound and np.abs(a.imag).max() <= bound):
        raise ValueError(f"input is not a finite Hermitian matrix of entries <= {bound:.3g}")
    d = a - a.conj().T
    if np.abs(d).max() > 1e-8 or np.linalg.norm(d) > 1e-8:
        raise ValueError("input is not a finite Hermitian matrix")
    if not 0.0 <= min_eigenvalue * n < 1.0:
        raise ValueError(f"eigenvalue floor {min_eigenvalue} leaves no trace to share")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    # gap: distances below the largest eigenvalue.  The k + 1 largest stay
    # positive, k the largest index with (k + 1) * gap[k] < sums[k], largest
    # first; k = 0 always qualifies, however large the eigenvalues are.
    gap = w[-1] - w
    sums = np.cumsum(gap[::-1]) + (1.0 - n * min_eigenvalue)
    k = np.flatnonzero(gap[::-1] * np.arange(1, n + 1) < sums)[-1]
    w = np.maximum(sums[k] / (k + 1) - gap, 0.0) + min_eigenvalue
    return w, v
