"""Four-party quantum secret sharing on the simulated chip.

The dealer holds qubit 1 and distributes the rest.  Every round, each
party measures in X or Y chosen uniformly at random; a round is kept when
the four-fold product operator has the shared state as an eigenstate, in
which case parties 2-4 can reconstruct the dealer's bit from the parity of
their outcomes and the eigenvalue of the basis combination.

A round is two 4-bit indices, party 1 most significant: the basis choice
``b`` (bit 1 = Y) and the outcome ``o``.  Every rule of the protocol is a
table over them, built once at import: the eigenvalue ``_SIGN[b]``, the
case ``_CASE[b]``, the inferred dealer bit ``_INFERRED[b, o]`` (-1 when
discarded) and the error flag ``_ERROR[b, o]``.

All of a run's randomness is one stdlib ``random.Random(seed)`` stream
(MT19937), read 64 bits per round and then 64 bits per sifted bit of the
public subset.  It is loaded with ``numpy`` already, so a run without
sampled probabilities never imports ``numpy.random``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SolverError
from .experiments import measurement_records
from .qmath import OUTCOME_BITS, PauliLabel, ghz4, pauli_operator
from .simulator import SimContext

BASIS_TOKENS = ("x", "y")

# Qubits 1 & 3 (and 2 & 4) are correlated in the shared state; any other
# same-basis pair is anti-correlated.
_CORRELATED_PAIRS = ({0, 2}, {1, 3})

_BASES = tuple("".join(BASIS_TOKENS[bit] for bit in bits) for bits in OUTCOME_BITS)

# A run whose sifted error rate is at most this is reported secure.
QBER_THRESHOLD = 0.11

# Rounds per write of ``transcript.csv``; memory holds one chunk of text.
CSV_CHUNK_ROUNDS = 1 << 14
_CSV_HEADER = "round,bases,outcomes,case,kept,inferred,dealer_bit\n"

_ROUND_DTYPE = np.dtype([("basis", np.uint8), ("outcome", np.uint8), ("case", "U1")])


def classify_bases(bases) -> str:
    """Protocol case for one basis choice: a, b, c, or d.

    (a) all parties share one basis; (c) the two equal-basis parties are a
    correlated pair; (d) they are an anti-correlated pair; (b) one party
    differs from the other three, making the round useless.
    """
    b = tuple(bases)
    if len(b) != 4 or any(v not in BASIS_TOKENS for v in b):
        raise ValueError(f"invalid basis choice {bases!r}")
    x_set = {i for i, v in enumerate(b) if v == "x"}
    if len(x_set) in (0, 4):
        return "a"
    if len(x_set) in (1, 3):
        return "b"
    return "c" if x_set in _CORRELATED_PAIRS else "d"


# The four measurement labels of each basis choice, one tuple per ``b``.
_LABELS = tuple(tuple(PauliLabel.X if v == "x" else PauliLabel.Y for v in bases)
                for bases in _BASES)

# Eigenvalue of the four-fold basis operator on the shared state: +1 for
# cases a and d, -1 for case c, 0 for case b.
_SIGN = np.array([np.vdot(ghz4(), pauli_operator(labels) @ ghz4()).real
                  for labels in _LABELS]).round().astype(np.int8)
_CASE = np.array([classify_bases(bases) for bases in _BASES])
# The dealer's bit is the parity of parties 2-4, flipped on a -1 eigenvalue.
_INFERRED = np.where(
    _SIGN[:, None] == 0, -1,
    (OUTCOME_BITS[:, 1:].sum(axis=1) + (_SIGN[:, None] < 0)) % 2).astype(np.int8)
_ERROR = (_INFERRED >= 0) & (_INFERRED != OUTCOME_BITS[:, 0])
# Row text after the round number, indexed by 16 * b + o.
_CSV_SUFFIX = tuple(
    f"{_BASES[b]},{''.join(map(str, OUTCOME_BITS[o]))},{_CASE[b]},{int(_SIGN[b] != 0)},"
    f"{'' if _INFERRED[b, o] < 0 else _INFERRED[b, o]},{OUTCOME_BITS[o, 0]}\n"
    for b in range(16) for o in range(16))


@dataclass(frozen=True)
class QssReport:
    raw_length: int
    sifted_length: int
    sift_rate: float
    qber: float
    secure: bool
    expected_qber: float


def _conditionals(ctx: SimContext) -> np.ndarray:
    """Conditional outcome distribution of each basis choice, one row per ``b``."""
    return measurement_records(ctx, _LABELS, None, None).counts


def _error_rate(conditionals: np.ndarray) -> float:
    return float(np.vdot(conditionals, _ERROR)) / int(np.count_nonzero(_SIGN))


def expected_qber(ctx: SimContext) -> float:
    """Exact error probability of the sifted key, averaged over kept bases."""
    return _error_rate(_conditionals(ctx))


# Rounds drawn at a time; memory holds one chunk of 64-bit words.
DRAW_CHUNK_ROUNDS = 1 << 13
_MASK53 = (1 << 53) - 1


def _words(rng: random.Random, n: int) -> np.ndarray:
    """The next ``n`` outputs of ``rng.getrandbits(64)``, as ``uint64``.

    ``randbytes(8 * n)`` is ``getrandbits(64 * n)`` in little-endian bytes,
    and that fills its 32-bit words in the order of ``n`` calls of
    ``getrandbits(64)``, so the words do not depend on how they are chunked.
    """
    return np.frombuffer(rng.randbytes(8 * n), dtype="<u8")


def run_qss(ctx: SimContext, rounds: int, seed: int,
            public_fraction: float = 0.0) -> tuple[QssReport, np.recarray]:
    """Run the protocol for ``rounds`` post-selected events.

    Each round waits for one valid four-fold coincidence (sampling from the
    conditional outcome distribution of the chosen bases).  ``seed`` is a
    non-negative int that seeds one ``random.Random`` (MT19937) stream.
    Round r reads the r-th ``getrandbits(64)`` word of it: the top 4 bits
    are the basis index, and the low 53 bits over 2**53 are the uniform
    whose inverse CDF is the outcome.  With ``public_fraction`` > 0 the
    error rate is evaluated on a random subset of the sifted key instead of
    the whole key: after the rounds, each sifted bit takes the next word as
    its key, and the bits with the smallest keys are public (ties go to the
    earlier bit).

    The transcript is a record array with one row per round: ``basis`` and
    ``outcome`` indices (``uint8``) and the protocol ``case``.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be a non-negative int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed}")
    if rounds < 1:
        raise ValueError(f"rounds must be at least 1, got {rounds}")
    conditionals = _conditionals(ctx)
    cdfs = conditionals.cumsum(axis=1)
    cdfs = cdfs / cdfs[:, -1:]

    rng = random.Random(seed)
    transcript = np.empty(rounds, dtype=_ROUND_DTYPE).view(np.recarray)
    basis, outcome = transcript.basis, transcript.outcome
    for start in range(0, rounds, DRAW_CHUNK_ROUNDS):
        stop = min(start + DRAW_CHUNK_ROUNDS, rounds)
        words = _words(rng, stop - start)
        chunk_basis = (words >> 60).astype(np.uint8)
        uniform = (words & _MASK53) * 2.0 ** -53
        basis[start:stop] = chunk_basis
        chunk_outcome = outcome[start:stop]
        for b in range(16):
            rows = chunk_basis == b
            chunk_outcome[rows] = cdfs[b].searchsorted(uniform[rows], side="right")
    transcript.case = _CASE[basis]
    kept = _SIGN[basis] != 0
    sifted = int(np.count_nonzero(kept))
    if sifted == 0:
        raise SolverError("no rounds survived sifting")
    errors = _ERROR[basis[kept], outcome[kept]]
    if public_fraction > 0.0:
        n_pub = max(1, int(round(public_fraction * sifted)))
        errors = errors[np.argsort(_words(rng, sifted), kind="stable")[:n_pub]]
    qber = float(errors.mean())
    report = QssReport(raw_length=rounds, sifted_length=sifted,
                       sift_rate=sifted / rounds, qber=qber, secure=qber <= QBER_THRESHOLD,
                       expected_qber=_error_rate(conditionals))
    return report, transcript


def write_transcript_csv(transcript: np.recarray, path: Path) -> None:
    """Write one CSV row per round, ``CSV_CHUNK_ROUNDS`` rows at a time."""
    with path.open("w") as f:
        f.write(_CSV_HEADER)
        for start in range(0, len(transcript), CSV_CHUNK_ROUNDS):
            chunk = transcript[start:start + CSV_CHUNK_ROUNDS]
            keys = (16 * chunk.basis.astype(np.intp) + chunk.outcome).tolist()
            f.write("".join([f"{r},{_CSV_SUFFIX[k]}" for r, k in enumerate(keys, start)]))
