"""Four-party quantum secret sharing on the simulated chip.

The dealer holds qubit 1 and distributes the rest.  Every round, each
party measures in X or Y chosen uniformly at random; a round is kept when
the four-fold product operator has the shared state as an eigenstate, in
which case parties 2-4 can reconstruct the dealer's bit from the parity of
their outcomes and the eigenvalue of the basis combination.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import simulator
from .chip import setting_for_projector
from .errors import SolverError
from .qmath import PauliLabel, ghz4, pauli_operator
from .simulator import SimContext

BASIS_TOKENS = ("x", "y")

# Qubits 1 & 3 (and 2 & 4) are correlated in the shared state; any other
# same-basis pair is anti-correlated.
_CORRELATED_PAIRS = ({0, 2}, {1, 3})

# Basis choice and outcome bits of each 4-bit index, party 1 most significant;
# every round shares these tuples instead of building its own.
_BITS = tuple(tuple((k >> (3 - i)) & 1 for i in range(4)) for k in range(16))
_BASES = tuple(tuple(BASIS_TOKENS[bit] for bit in bits) for bits in _BITS)
_BIT_WEIGHTS = np.array([8, 4, 2, 1])


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


def _build_sign_table() -> dict:
    """Eigenvalue of the four-fold basis operator on the shared state.

    Generated from the 16-dimensional state vector and cross-checked
    against the case classification: +1 for cases a and d, -1 for case c,
    0 for case b.
    """
    state = ghz4()
    table = {}
    for bases in itertools.product(BASIS_TOKENS, repeat=4):
        labels = [PauliLabel.X if v == "x" else PauliLabel.Y for v in bases]
        op = pauli_operator(labels)
        val = complex(np.vdot(state, op @ state))
        if abs(val.imag) > 1e-12:
            raise AssertionError("basis operator expectation is not real")
        sign = int(round(val.real))
        if abs(val.real - sign) > 1e-12 or sign not in (-1, 0, 1):
            raise AssertionError(f"unexpected eigenvalue {val.real} for {bases}")
        case = classify_bases(bases)
        expected = {"a": 1, "c": -1, "d": 1, "b": 0}[case]
        if sign != expected:
            raise AssertionError(f"sign {sign} contradicts case {case} for {bases}")
        table[bases] = sign
    return table


_SIGN_TABLE = _build_sign_table()


def combo_sign(bases) -> int:
    """+1 or -1 for kept basis choices, 0 for the discarded case."""
    return _SIGN_TABLE[tuple(bases)]


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


@dataclass(frozen=True)
class QssReport:
    raw_length: int
    sifted_length: int
    sift_rate: float
    qber: float
    secure: bool


def _basis_settings(bases):
    return tuple(setting_for_projector(
        PauliLabel.X if v == "x" else PauliLabel.Y) for v in bases)


def run_qss(ctx: SimContext, rounds: int, seed,
            public_fraction: float = 0.0) -> tuple[QssReport, list]:
    """Run the protocol for ``rounds`` post-selected events.

    Each round waits for one valid four-fold coincidence (sampling from the
    conditional outcome distribution of the chosen bases).  Round r draws
    from child r of ``seed`` and the public subset from child ``rounds``;
    each child is spawned when it is needed, not all of them up front.
    With ``public_fraction`` > 0 the error rate is evaluated on that random
    subset of the sifted key instead of the whole key.
    """
    if rounds < 1:
        raise ValueError("need at least one round")
    # Outcomes are drawn by inverse CDF, the algorithm of ``Generator.choice``
    # with ``p``, so a seed gives the same transcript as a draw by ``choice``.
    cdfs: dict = {}
    for bases in itertools.product(BASIS_TOKENS, repeat=4):
        cdf = simulator.qubit_distribution(ctx, _basis_settings(bases)).conditional().cumsum()
        cdfs[bases] = cdf / cdf[-1]

    master = np.random.SeedSequence(seed)
    transcript = []
    sifted = 0
    errors_all = []
    for r in range(rounds):
        rng = np.random.default_rng(master.spawn(1)[0])
        bases = _BASES[int(rng.integers(0, 2, size=4) @ _BIT_WEIGHTS)]
        outcomes = _BITS[int(cdfs[bases].searchsorted(rng.random(), side="right"))]
        case = classify_bases(bases)
        kept = case != "b"
        inferred = None
        if kept:
            inferred = infer_dealer_bit(bases, outcomes[1:])
            sifted += 1
            errors_all.append(1 if inferred != outcomes[0] else 0)
        transcript.append(RoundRecord(index=r, bases=bases, outcomes=outcomes,
                                      case=case, kept=kept, inferred=inferred,
                                      dealer_bit=outcomes[0]))
    if sifted == 0:
        raise SolverError("no rounds survived sifting")
    errors = np.asarray(errors_all)
    if public_fraction > 0.0:
        rng = np.random.default_rng(master.spawn(1)[0])
        n_pub = max(1, int(round(public_fraction * sifted)))
        idx = rng.choice(sifted, size=n_pub, replace=False)
        qber = float(errors[idx].mean())
    else:
        qber = float(errors.mean())
    report = QssReport(raw_length=rounds, sifted_length=sifted,
                       sift_rate=sifted / rounds, qber=qber,
                       secure=qber <= 0.11)
    return report, transcript


def expected_qber(ctx: SimContext) -> float:
    """Exact error probability of the sifted key, averaged over kept bases."""
    total_weight = 0.0
    total_error = 0.0
    for bases in itertools.product(BASIS_TOKENS, repeat=4):
        if classify_bases(bases) == "b":
            continue
        p = simulator.qubit_distribution(ctx, _basis_settings(bases)).conditional()
        err = 0.0
        for outcome_index, outcomes in enumerate(_BITS):
            if infer_dealer_bit(bases, outcomes[1:]) != outcomes[0]:
                err += p[outcome_index]
        total_weight += 1.0
        total_error += err
    return total_error / total_weight


def transcript_to_csv(transcript) -> str:
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
