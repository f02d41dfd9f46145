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


# Round r draws from child r of ``SeedSequence(seed)``: its basis bits and
# uniform are read off the first three outputs of that child's PCG64, which
# are computed for many children at once.  Both algorithms are fixed by
# NumPy (NEP 19); the constants are theirs.
_MASK32 = 0xFFFFFFFF
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT_HI, _PCG_MULT_LO = 2549297995355413924, 4865540595714422341
# A child index is one 32-bit spawn-key word.
_MAX_ROUNDS = 1 << 32

# Rounds drawn at a time; memory holds one chunk of 64-bit intermediates.
DRAW_CHUNK_ROUNDS = 1 << 13


def _hashmix(value, hash_const: int):
    """SeedSequence's ``hashmix`` of a word; returns it and the next constant."""
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    """SeedSequence's ``mix`` of two words, both Python ints or both arrays."""
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> _XSHIFT


def _absorb(pool: list, word, hash_const: int) -> int:
    """Mix an entropy word beyond the pool size into every pool word."""
    for dst in range(len(pool)):
        value, hash_const = _hashmix(word, hash_const)
        pool[dst] = _mix(pool[dst], value)
    return hash_const


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products of ``uint64`` words ``a`` and ``b``."""
    a_lo, a_hi = a & _MASK32, a >> 32
    b_lo, b_hi = b & _MASK32, b >> 32
    p_lh, p_hl = a_lo * b_hi, a_hi * b_lo
    mid = (a_lo * b_lo >> 32) + (p_lh & _MASK32) + (p_hl & _MASK32)
    return a_hi * b_hi + (p_lh >> 32) + (p_hl >> 32) + (mid >> 32)


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * MULT + inc`` mod 2**128, on (hi, lo) words."""
    lo_mult = lo * _PCG_MULT_LO
    hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi(lo, _PCG_MULT_LO) + inc_hi
    lo = lo_mult + inc_lo
    return hi + (lo < inc_lo), lo


def _child_pools(seed: int, first: int, n: int) -> list:
    """SeedSequence's pool of children ``first`` to ``first + n - 1``, four ``uint32`` arrays.

    The entropy is the seed's little-endian 32-bit words, zero-padded to the
    pool size of 4, then the child index.  Only that last word differs
    between children, so the words before it are mixed once, as Python ints.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (4 - len(words))
    hash_const = _INIT_A
    pool = []
    for word in words[:4]:
        value, hash_const = _hashmix(word, hash_const)
        pool.append(value)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                value, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], value)
    for word in words[4:]:
        hash_const = _absorb(pool, word, hash_const)
    pool = [np.full(n, word, dtype=np.uint32) for word in pool]
    _absorb(pool, np.arange(first, first + n, dtype=np.uint32), hash_const)
    return pool


def _generate_state(pool: list) -> list:
    """SeedSequence's ``generate_state(4, np.uint64)`` of each child's pool.

    Eight 32-bit words cycle over the pool and pair little-endian into four
    ``uint64`` words.
    """
    hash_const = _INIT_B
    state = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state.append((value ^ value >> _XSHIFT).astype(np.uint64))
    return [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]


def _child_draws(seed: int, first: int, n: int) -> np.ndarray:
    """The first three PCG64 outputs of children ``first`` to ``first + n - 1``.

    Row i equals ``PCG64(SeedSequence(seed).spawn(first + n)[first + i])
    .random_raw(3)``, as an ``(n, 3)`` ``uint64`` array.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = _generate_state(_child_pools(seed, first, n))
    # PCG64's set-seq seeding, then three steps, each with its XSL-RR output:
    # the xor of the state's halves rotated right by its top six bits.
    inc_hi = seq_hi << 1 | seq_lo >> 63
    inc_lo = seq_lo << 1 | 1
    lo = inc_lo + seed_lo
    hi, lo = _pcg_step(inc_hi + seed_hi + (lo < seed_lo), lo, inc_hi, inc_lo)
    draws = np.empty((n, 3), dtype=np.uint64)
    for k in range(3):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        xored, rot = hi ^ lo, hi >> 58
        draws[:, k] = xored >> rot | xored << ((64 - rot) & 63)
    return draws


def _round_draws(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Basis index and uniform of each round, from its child's three outputs.

    They equal ``integers(0, 2, size=4) @ (8, 4, 2, 1)`` and ``random()`` of
    the child's ``Generator``.  ``integers`` reads the low and then the high
    32-bit half of the first two outputs, and Lemire's method with range 2
    never rejects, so each bit is the top bit of its half.  ``random()`` is
    the third output's top 53 bits over 2**53.
    """
    u0, u1, u2 = draws.T
    basis = (u0 >> 28 & 8) | (u0 >> 61 & 4) | (u1 >> 30 & 2) | u1 >> 63
    return basis.astype(np.uint8), (u2 >> 11) * 2.0 ** -53


def run_qss(ctx: SimContext, rounds: int, seed: int,
            public_fraction: float = 0.0) -> tuple[QssReport, np.recarray]:
    """Run the protocol for ``rounds`` post-selected events.

    Each round waits for one valid four-fold coincidence (sampling from the
    conditional outcome distribution of the chosen bases).  ``seed`` is a
    non-negative int, and ``rounds`` is below 2**32.  Round r's basis bits
    and uniform are read off the first three outputs of the PCG64 seeded by
    child r of ``SeedSequence(seed)``, for many rounds at once; they equal
    that child's ``default_rng`` draws ``integers(0, 2, size=4)`` and
    ``random()``.  The public subset is drawn from child ``rounds``.
    With ``public_fraction`` > 0 the error rate is evaluated on that random
    subset of the sifted key instead of the whole key.

    The transcript is a record array with one row per round: ``basis`` and
    ``outcome`` indices (``uint8``) and the protocol ``case``.
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise TypeError(f"seed must be a non-negative int, got {seed!r}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative int, got {seed}")
    if not 1 <= rounds < _MAX_ROUNDS:
        raise ValueError(f"rounds must be at least 1 and below 2**32, got {rounds}")
    conditionals = _conditionals(ctx)
    # Outcomes are drawn by inverse CDF, the algorithm of ``Generator.choice``
    # with ``p``, so a seed gives the same transcript as a draw by ``choice``.
    cdfs = conditionals.cumsum(axis=1)
    cdfs = cdfs / cdfs[:, -1:]

    transcript = np.empty(rounds, dtype=_ROUND_DTYPE).view(np.recarray)
    basis, outcome = transcript.basis, transcript.outcome
    for start in range(0, rounds, DRAW_CHUNK_ROUNDS):
        stop = min(start + DRAW_CHUNK_ROUNDS, rounds)
        chunk_basis, uniform = _round_draws(_child_draws(seed, start, stop - start))
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
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(rounds,)))
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
