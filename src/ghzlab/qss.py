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
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import SolverError
from .experiments import measurement_records
from .qmath import PauliLabel, ghz4, pauli_operator
from .simulator import SimContext

BASIS_TOKENS = ("x", "y")

# Qubits 1 & 3 (and 2 & 4) are correlated in the shared state; any other
# same-basis pair is anti-correlated.
_CORRELATED_PAIRS = ({0, 2}, {1, 3})

_BIT_WEIGHTS = np.array([8, 4, 2, 1])
_BITS = (np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1
_BASES = tuple("".join(BASIS_TOKENS[bit] for bit in bits) for bits in _BITS)

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
_INFERRED = np.where(_SIGN[:, None] == 0, -1,
                     (_BITS[:, 1:].sum(axis=1) + (_SIGN[:, None] < 0)) % 2).astype(np.int8)
_ERROR = (_INFERRED >= 0) & (_INFERRED != _BITS[:, 0])
# Row text after the round number, indexed by 16 * b + o.
_CSV_SUFFIX = tuple(
    f"{_BASES[b]},{''.join(map(str, _BITS[o]))},{_CASE[b]},{int(_SIGN[b] != 0)},"
    f"{'' if _INFERRED[b, o] < 0 else _INFERRED[b, o]},{_BITS[o, 0]}\n"
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


def run_qss(ctx: SimContext, rounds: int, seed,
            public_fraction: float = 0.0) -> tuple[QssReport, np.recarray]:
    """Run the protocol for ``rounds`` post-selected events.

    Each round waits for one valid four-fold coincidence (sampling from the
    conditional outcome distribution of the chosen bases).  Round r draws
    from child r of ``seed`` and the public subset from child ``rounds``;
    each child is spawned when it is needed, not all of them up front.
    With ``public_fraction`` > 0 the error rate is evaluated on that random
    subset of the sifted key instead of the whole key.

    The transcript is a record array with one row per round: ``basis`` and
    ``outcome`` indices (``uint8``) and the protocol ``case``.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    conditionals = _conditionals(ctx)
    # Outcomes are drawn by inverse CDF, the algorithm of ``Generator.choice``
    # with ``p``, so a seed gives the same transcript as a draw by ``choice``.
    cdfs = conditionals.cumsum(axis=1)
    cdfs = list(cdfs / cdfs[:, -1:])

    master = np.random.SeedSequence(seed)
    transcript = np.empty(rounds, dtype=_ROUND_DTYPE).view(np.recarray)
    basis, outcome = transcript.basis, transcript.outcome
    for r in range(rounds):
        rng = np.random.default_rng(master.spawn(1)[0])
        b = rng.integers(0, 2, size=4) @ _BIT_WEIGHTS
        basis[r] = b
        outcome[r] = cdfs[b].searchsorted(rng.random(), side="right")
    transcript.case = _CASE[basis]
    kept = _SIGN[basis] != 0
    sifted = int(np.count_nonzero(kept))
    if sifted == 0:
        raise SolverError("no rounds survived sifting")
    errors = _ERROR[basis[kept], outcome[kept]]
    if public_fraction > 0.0:
        rng = np.random.default_rng(master.spawn(1)[0])
        n_pub = max(1, int(round(public_fraction * sifted)))
        errors = errors[rng.choice(sifted, size=n_pub, replace=False)]
    qber = float(errors.mean())
    report = QssReport(raw_length=rounds, sifted_length=sifted,
                       sift_rate=sifted / rounds, qber=qber, secure=qber <= 0.11,
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
