import itertools
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from ghzlab.qss import (_basis_settings, classify_bases, combo_sign, expected_qber,
                        infer_dealer_bit, run_qss, transcript_to_csv)
from ghzlab.simulator import qubit_distribution

from oracles import born_probabilities, ghz_state


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
        assert combo_sign(("x", "x", "x", "x")) == 1
        assert combo_sign(("x", "y", "x", "y")) == -1
        assert combo_sign(("x", "y", "y", "y")) == 0

    def test_matches_case_rule_everywhere(self):
        for bases in itertools.product("xy", repeat=4):
            case = classify_bases(bases)
            assert combo_sign(bases) == {"a": 1, "c": -1, "d": 1, "b": 0}[case]


class TestInference:
    def test_examples(self):
        assert infer_dealer_bit(("x", "x", "x", "x"), (0, 0, 0)) == 0
        assert infer_dealer_bit(("x", "y", "x", "y"), (0, 0, 0)) == 1
        assert infer_dealer_bit(("x", "x", "y", "y"), (1, 0, 1)) == 0

    def test_discarded_case_rejected(self):
        with pytest.raises(ValueError):
            infer_dealer_bit(("x", "y", "y", "y"), (0, 0, 0))

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
        assert report.sifted_length == sum(1 for r in transcript if r.kept)

    def test_transcript_consistency(self, ideal_ctx):
        report, transcript = run_qss(ideal_ctx, rounds=200, seed=2)
        for rec in transcript:
            assert rec.kept == (rec.case != "b")
            if rec.kept:
                assert rec.inferred in (0, 1)
                assert rec.inferred == infer_dealer_bit(rec.bases, rec.outcomes[1:])
            else:
                assert rec.inferred is None
            assert rec.dealer_bit == rec.outcomes[0]

    def test_deterministic_given_seed(self, ideal_ctx):
        r1, t1 = run_qss(ideal_ctx, rounds=300, seed=5)
        r2, t2 = run_qss(ideal_ctx, rounds=300, seed=5)
        assert r1 == r2
        assert t1 == t2
        r3, t3 = run_qss(ideal_ctx, rounds=300, seed=6)
        assert t3 != t1

    def test_public_fraction_subset(self, ideal_ctx):
        report, _ = run_qss(ideal_ctx, rounds=500, seed=3, public_fraction=0.2)
        assert report.qber == 0.0

    def test_round_r_draws_from_child_r(self, ideal_ctx):
        # photon A fully distinguishable, so the sifted key carries errors
        spec = replace(ideal_ctx.spec, distinguishability_scale=(0.0, 1.0, 1.0, 1.0))
        ctx = replace(ideal_ctx, spec=spec)
        rounds, seed = 40, 11
        report, transcript = run_qss(ctx, rounds=rounds, seed=seed, public_fraction=0.5)
        children = np.random.SeedSequence(seed).spawn(rounds + 1)
        errors = []
        for r, rec in enumerate(transcript):
            rng = np.random.default_rng(children[r])
            bases = tuple("xy"[b] for b in rng.integers(0, 2, size=4))
            p = qubit_distribution(ctx, _basis_settings(bases)).conditional()
            index = int(rng.choice(16, p=p))
            assert (rec.bases, rec.outcomes) == (
                bases, tuple((index >> (3 - i)) & 1 for i in range(4)))
            if rec.kept:
                errors.append(rec.inferred != rec.dealer_bit)
        assert 0 < sum(errors) < len(errors)
        rng = np.random.default_rng(children[rounds])
        public = rng.choice(len(errors), size=max(1, round(0.5 * len(errors))),
                            replace=False)
        assert report.qber == float(np.asarray(errors, dtype=float)[public].mean())

    def test_csv_export(self, ideal_ctx):
        _, transcript = run_qss(ideal_ctx, rounds=50, seed=4)
        csv = transcript_to_csv(transcript)
        lines = csv.strip().splitlines()
        assert lines[0] == "round,bases,outcomes,case,kept,inferred,dealer_bit"
        assert len(lines) == 51


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
