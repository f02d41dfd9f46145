import bisect
import itertools
import math
import random
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from ghzlab import qss
from ghzlab.config import default_config, parse_config
from ghzlab.errors import SolverError
from ghzlab.qss import (_CASE, _ERROR, _INFERRED, _SIGN, classify_bases,
                        expected_qber, run_qss, write_transcript_csv)
from ghzlab.simulator import SimContext, qubit_distribution

from oracles import (born_probabilities, combo_sign, ghz_state, infer_dealer_bit,
                     oracle_run_qss, oracle_transcript_to_csv, xy_labels)


def basis_index(bases) -> int:
    """Index b of a basis choice, party 1 most significant, y = 1."""
    return sum("xy".index(v) << (3 - i) for i, v in enumerate(bases))


def bits(index) -> tuple:
    return tuple((int(index) >> (3 - i)) & 1 for i in range(4))


class TestClassification:
    def test_examples(self):
        assert classify_bases(("x", "x", "x", "x")) == "a"
        assert classify_bases(("y", "y", "y", "y")) == "a"
        assert classify_bases(("x", "y", "x", "y")) == "c"
        assert classify_bases(("y", "x", "y", "x")) == "c"
        assert classify_bases(("x", "x", "y", "y")) == "d"
        assert classify_bases(("x", "y", "y", "x")) == "d"
        assert classify_bases(("x", "y", "y", "y")) == "b"

    def test_census_over_all_choices(self):
        census = Counter(classify_bases(b)
                         for b in itertools.product("xy", repeat=4))
        assert census == {"a": 2, "b": 8, "c": 2, "d": 4}

    def test_invalid_bases(self):
        with pytest.raises(ValueError):
            classify_bases(("x", "z", "x", "x"))


class TestComboSign:
    def test_case_values(self):
        for bases, sign in ((("x", "x", "x", "x"), 1), (("x", "y", "x", "y"), -1),
                            (("x", "y", "y", "y"), 0)):
            assert combo_sign(bases) == sign
            assert _SIGN[basis_index(bases)] == sign

    def test_matches_case_rule_everywhere(self):
        for b, bases in enumerate(itertools.product("xy", repeat=4)):
            case = classify_bases(bases)
            assert _CASE[b] == case
            assert _SIGN[b] == {"a": 1, "c": -1, "d": 1, "b": 0}[case]
            assert combo_sign(bases) == _SIGN[b]


class TestInference:
    def test_examples(self):
        for bases, outcomes_234, dealer_bit in ((("x", "x", "x", "x"), (0, 0, 0), 0),
                                                (("x", "y", "x", "y"), (0, 0, 0), 1),
                                                (("x", "x", "y", "y"), (1, 0, 1), 0)):
            assert infer_dealer_bit(bases, outcomes_234) == dealer_bit
            for first in (0, 1):
                o = int("".join(map(str, (first, *outcomes_234))), 2)
                assert _INFERRED[basis_index(bases), o] == dealer_bit
                assert _ERROR[basis_index(bases), o] == (first != dealer_bit)

    def test_discarded_case_rejected(self):
        with pytest.raises(ValueError):
            infer_dealer_bit(("x", "y", "y", "y"), (0, 0, 0))
        for b, bases in enumerate(itertools.product("xy", repeat=4)):
            if classify_bases(bases) == "b":
                assert (_INFERRED[b] == -1).all()
                assert not _ERROR[b].any()

    def test_tables_match_oracle_everywhere(self):
        for b, bases in enumerate(itertools.product("xy", repeat=4)):
            if classify_bases(bases) == "b":
                continue
            for o in range(16):
                inferred = infer_dealer_bit(bases, bits(o)[1:])
                assert _INFERRED[b, o] == inferred
                assert _ERROR[b, o] == (inferred != bits(o)[0])

    def test_perfect_inference_on_ideal_state(self):
        state = ghz_state()
        for bases in itertools.product("xy", repeat=4):
            if classify_bases(bases) == "b":
                continue
            probs = born_probabilities(state, list(bases))
            for outcome in range(16):
                if probs[outcome] < 1e-12:
                    continue
                bits = [(outcome >> (3 - i)) & 1 for i in range(4)]
                assert infer_dealer_bit(bases, bits[1:]) == bits[0]
                assert not _ERROR[basis_index(bases), outcome]

    def test_case_b_gives_no_information(self):
        # dealer outcome statistically independent of the others' joint outcome
        state = ghz_state()
        for bases in itertools.product("xy", repeat=4):
            if classify_bases(bases) != "b":
                continue
            probs = born_probabilities(state, list(bases))
            joint = probs.reshape(2, 8)  # dealer bit x parties 2-4 outcomes
            p_dealer = joint.sum(axis=1)
            p_rest = joint.sum(axis=0)
            mutual = 0.0
            for a in range(2):
                for r in range(8):
                    if joint[a, r] > 1e-15:
                        mutual += joint[a, r] * math.log(
                            joint[a, r] / (p_dealer[a] * p_rest[r]))
            assert abs(mutual) < 1e-9


class TestRunQss:
    def test_ideal_run(self, ideal_ctx):
        report, transcript = run_qss(ideal_ctx, rounds=10000, seed=1)
        assert report.qber == 0.0
        assert report.secure
        # sift rate within 5 sigma of 1/2
        sigma = math.sqrt(0.25 / 10000)
        assert abs(report.sift_rate - 0.5) < 5 * sigma
        assert report.sifted_length == sum(1 for r in transcript if r.case != "b")

    def test_transcript_consistency(self, ideal_ctx, tmp_path):
        report, transcript = run_qss(ideal_ctx, rounds=200, seed=2)
        assert transcript.dtype.names == ("basis", "outcome", "case")
        assert transcript.basis.dtype == transcript.outcome.dtype == np.uint8
        write_transcript_csv(transcript, tmp_path / "t.csv")
        rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
        assert len(rows) == len(transcript) == 200
        for r, (rec, row) in enumerate(zip(transcript, rows)):
            index, bases, outcomes, case, kept, inferred, dealer_bit = row.split(",")
            assert int(index) == r
            assert bases == "".join("xy"[bit] for bit in bits(rec.basis))
            assert outcomes == "".join(map(str, bits(rec.outcome)))
            assert case == rec.case == classify_bases(bases)
            assert kept == ("1" if rec.case != "b" else "0")
            if rec.case != "b":
                assert inferred in ("0", "1")
                assert int(inferred) == infer_dealer_bit(bases, bits(rec.outcome)[1:])
            else:
                assert inferred == ""
            assert dealer_bit == outcomes[0]

    def test_deterministic_given_seed(self, ideal_ctx):
        r1, t1 = run_qss(ideal_ctx, rounds=300, seed=5)
        r2, t2 = run_qss(ideal_ctx, rounds=300, seed=5)
        assert r1 == r2
        assert np.array_equal(t1, t2)
        r3, t3 = run_qss(ideal_ctx, rounds=300, seed=6)
        assert not np.array_equal(t3, t1)

    def test_public_fraction_subset(self, ideal_ctx):
        report, _ = run_qss(ideal_ctx, rounds=500, seed=3, public_fraction=0.2)
        assert report.qber == 0.0

    def test_round_r_draws_word_r(self, ideal_ctx):
        # photon A fully distinguishable, so the sifted key carries errors
        spec = replace(ideal_ctx.spec, distinguishability_scale=(0.0, 1.0, 1.0, 1.0))
        ctx = replace(ideal_ctx, spec=spec)
        rounds, seed = 40, 11
        report, transcript = run_qss(ctx, rounds=rounds, seed=seed, public_fraction=0.5)
        stream = random.Random(seed)
        errors = []
        for rec in transcript:
            word = stream.getrandbits(64)
            bases = tuple("xy"[bit] for bit in bits(word >> 60))
            p = qubit_distribution(ctx, xy_labels(bases)).conditional()
            cdf = list(itertools.accumulate(p))
            index = bisect.bisect_right([c / cdf[-1] for c in cdf], (word % 2 ** 53) / 2 ** 53)
            assert (rec.basis, rec.outcome) == (basis_index(bases), index)
            if rec.case != "b":
                errors.append(infer_dealer_bit(bases, bits(index)[1:]) != bits(index)[0])
        assert 0 < sum(errors) < len(errors)
        keys = [stream.getrandbits(64) for _ in errors]
        public = sorted(range(len(errors)), key=lambda i: (keys[i], i))
        public = public[:max(1, round(0.5 * len(errors)))]
        assert report.qber == float(np.asarray(errors, dtype=float)[public].mean())

    def test_csv_export(self, ideal_ctx, tmp_path):
        _, transcript = run_qss(ideal_ctx, rounds=50, seed=4)
        write_transcript_csv(transcript, tmp_path / "t.csv")
        lines = (tmp_path / "t.csv").read_text().strip().splitlines()
        assert lines[0] == "round,bases,outcomes,case,kept,inferred,dealer_bit"
        assert len(lines) == 51


class TestSeedContract:
    def test_unseeded_run_rejected(self, ideal_ctx):
        with pytest.raises(TypeError, match="seed"):
            run_qss(ideal_ctx, rounds=10, seed=None)

    def test_bool_seed_rejected(self, ideal_ctx):
        with pytest.raises(TypeError, match="seed"):
            run_qss(ideal_ctx, rounds=10, seed=True)

    def test_negative_seed_rejected(self, ideal_ctx):
        with pytest.raises(ValueError, match="seed"):
            run_qss(ideal_ctx, rounds=10, seed=-1)


_DRAW_SEEDS = (0, 1, 20220901, 2 ** 32 - 1, 2 ** 32, 2 ** 128, 2 ** 200 + 3)


class TestChildDraws:
    """Round r's word against the r-th ``getrandbits(64)`` of ``random.Random(seed)``."""

    @pytest.mark.parametrize("seed", _DRAW_SEEDS)
    @pytest.mark.parametrize("start", ["first", "chunk-boundary"])
    def test_matches_spawned_child(self, ideal_ctx, seed, start):
        first = 0 if start == "first" else qss.DRAW_CHUNK_ROUNDS - 3
        n = 6
        stream = random.Random(seed)
        for _ in range(first):
            stream.getrandbits(64)
        expected = [stream.getrandbits(64) for _ in range(n)]
        rng = random.Random(seed)
        words = np.concatenate([qss._words(rng, qss.DRAW_CHUNK_ROUNDS),
                                qss._words(rng, qss.DRAW_CHUNK_ROUNDS)])
        assert words.dtype == np.uint64
        assert words[first:first + n].tolist() == expected
        _, transcript = run_qss(ideal_ctx, rounds=first + n, seed=seed)
        assert transcript.basis[first:].tolist() == [word >> 60 for word in expected]


def test_draw_memory_is_bounded(ideal_ctx):
    run_qss(ideal_ctx, rounds=10, seed=1)  # per-process tables are built on first use
    for rounds, public_fraction, bound in ((100_000, 0.0, 4 * 2 ** 20),
                                           (10 ** 6, 1.0, 20 * 2 ** 20)):
        tracemalloc.start()
        try:
            run_qss(ideal_ctx, rounds=rounds, seed=1, public_fraction=public_fraction)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (rounds, public_fraction, peak)


def _photon_a_distinguishable():
    ctx = SimContext.ideal()
    return replace(ctx, spec=replace(ctx.spec, distinguishability_scale=(0.0, 1.0, 1.0, 1.0)))


# A correct stream fails one of these chi-squared tests with probability 1e-6.
_CHI2_P_MIN = 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_draws_follow_the_protocol_distribution(seed):
    ctx = _photon_a_distinguishable()
    _, transcript = run_qss(ctx, rounds=100_000, seed=seed)
    keys = 16 * transcript.basis.astype(np.intp) + transcript.outcome
    counts = np.bincount(keys, minlength=256).reshape(16, 16)
    per_basis = counts.sum(axis=1)
    assert stats.chisquare(per_basis).pvalue > _CHI2_P_MIN
    for b, p in enumerate(qss._conditionals(ctx)):
        expected = per_basis[b] * p / p.sum()
        assert stats.chisquare(counts[b], expected).pvalue > _CHI2_P_MIN, b


@pytest.mark.parametrize("make_ctx, rounds, seed, public_fraction, chunk, draw_chunk", [
    (lambda: parse_config(default_config()).context, 2000, 20220901, 0.0, None, None),
    (_photon_a_distinguishable, 3000, 7, 0.3, None, None),
    (SimContext.ideal, 500, 3, 0.5, None, None),
    (SimContext.ideal, 1, 2, 0.0, None, None),
    (SimContext.ideal, 1000, 1, 0.0, 96, None),
    (_photon_a_distinguishable, 700, 9, 0.4, None, 64),
    (_photon_a_distinguishable, 300, 2 ** 200 + 3, 0.5, None, None),
], ids=["default-config", "photon-a-distinguishable", "ideal", "nothing-sifted",
        "several-csv-chunks", "several-draw-chunks", "seed-beyond-64-bits"])
def test_matches_round_by_round_oracle(monkeypatch, tmp_path, make_ctx, rounds, seed,
                                       public_fraction, chunk, draw_chunk):
    if chunk is not None:
        monkeypatch.setattr(qss, "CSV_CHUNK_ROUNDS", chunk)
        assert rounds > 2 * chunk
    if draw_chunk is not None:
        monkeypatch.setattr(qss, "DRAW_CHUNK_ROUNDS", draw_chunk)
        assert rounds > 2 * draw_chunk
    ctx = make_ctx()
    try:
        expected, records = oracle_run_qss(ctx, rounds, seed, public_fraction)
    except SolverError:
        with pytest.raises(SolverError):
            run_qss(ctx, rounds, seed, public_fraction)
        return
    report, transcript = run_qss(ctx, rounds, seed, public_fraction)
    # The table sums the error probabilities in another order.
    assert report.expected_qber == pytest.approx(expected.expected_qber, rel=0, abs=1e-14)
    assert replace(report, expected_qber=0.0) == replace(expected, expected_qber=0.0)
    assert transcript.case.tolist() == [rec.case for rec in records]
    write_transcript_csv(transcript, tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == oracle_transcript_to_csv(records).encode()


class TestQberMonotonicity:
    def test_qber_rises_as_photon_becomes_distinguishable(self, noise_ctx):
        from dataclasses import replace
        values = []
        for s in (1.0, 0.75, 0.5, 0.25, 0.0):
            scale = list(noise_ctx.spec.distinguishability_scale)
            scale[2] = s
            spec = replace(noise_ctx.spec, distinguishability_scale=tuple(scale))
            values.append(expected_qber(replace(noise_ctx, spec=spec)))
        assert all(b > a - 1e-12 for a, b in zip(values, values[1:]))
        assert values[-1] > values[0]
