import itertools
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab.analysis import bell_settings, tomography_settings
from ghzlab.chip import PreparationStage, full_unitary
from ghzlab.config import default_config, parse_config
from ghzlab.experiments import (SimContext, run_bell, run_phase_scan, run_tomography,
                                run_witness)
from ghzlab.qss import run_qss
from ghzlab.qmath import PauliLabel
from ghzlab.simulator import (DetectorModel, LossBudget, OutcomeDistribution,
                              apply_detector_efficiency, coincidence_rate,
                              outcome_distribution, qubit_distribution,
                              sample_counts, scatter_distribution)
from ghzlab.source import MasterFractions, SourceSpec

from oracles import (JointInputTerm, OracleEnumeration, assignment_distribution,
                     born_probabilities, ghz_state, mzi_phase_unitary,
                     oracle_all_groups_distribution, oracle_enumerate_joint_inputs,
                     oracle_qubit_distribution, threshold_and_postselect)

Z4 = (PauliLabel.Z,) * 4
X4 = (PauliLabel.X,) * 4
LOSSY_EFFICIENCIES = (1.0, 0.5, 0.9, 1.0, 0.6, 1.0, 1.0, 0.7)

# The settings of the bell, witness and qss commands: 8 + 2 + 16.
QSS_BASES = [tuple(PauliLabel.X if c == "x" else PauliLabel.Y for c in bases)
             for bases in itertools.product("xy", repeat=4)]
COMMAND_SETTINGS = list(bell_settings()) + [X4, Z4] + QSS_BASES


def assert_matches_oracle(u, table, enumeration, det):
    new = outcome_distribution(u, table, det)
    ref = oracle_qubit_distribution(u, enumeration, det)
    assert np.max(np.abs(new.probs - ref.probs)) <= 1e-12
    assert abs(new.discard_mass - ref.discard_mass) <= 1e-12
    return new, ref


class TestScatter:
    def test_single_photon_through_preparation(self):
        # single photon into the first input splits over the first two qubits
        from ghzlab.chip import preparation_unitary
        up = preparation_unitary(PreparationStage())
        dist = scatter_distribution(up, [(0, 0)])
        occs = {occ: p for occ, p in dist.items() if p > 1e-15}
        key1 = tuple(1 if i == 0 else 0 for i in range(8))
        key3 = tuple(1 if i == 2 else 0 for i in range(8))
        assert occs[key1] == pytest.approx(0.5)
        assert occs[key3] == pytest.approx(0.5)

    def test_hom_bunching(self):
        dc = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
        dist = scatter_distribution(dc, [(0, 0), (1, 0)])
        assert dist.get((1, 1), 0.0) == pytest.approx(0.0, abs=1e-15)
        assert dist[(2, 0)] == pytest.approx(0.5)
        assert dist[(0, 2)] == pytest.approx(0.5)

    def test_distinguishable_photons_coincide_half(self):
        dc = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
        dist = scatter_distribution(dc, [(0, 0), (1, 7)])
        assert dist[(1, 1)] == pytest.approx(0.5)

    def test_distinguishable_equals_classical_convolution(self):
        rng = np.random.default_rng(14)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(a)
        dist = scatter_distribution(q, [(0, 1), (1, 2), (2, 3)])
        singles = [np.abs(q[:, m]) ** 2 for m in (0, 1, 2)]
        for occ, p in dist.items():
            conv = 0.0
            import itertools
            for assign in itertools.product(range(4), repeat=3):
                trial = [0, 0, 0, 0]
                for m in assign:
                    trial[m] += 1
                if tuple(trial) == occ:
                    conv += singles[0][assign[0]] * singles[1][assign[1]] * singles[2][assign[2]]
            assert p == pytest.approx(conv, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q, _ = np.linalg.qr(a)
        dist = scatter_distribution(q, [(0, 0), (2, 0), (4, 0), (6, 0)])
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_same_label_photon_order_irrelevant(self):
        rng = np.random.default_rng(16)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        q, _ = np.linalg.qr(a)
        d1 = scatter_distribution(q, [(0, 0), (2, 0), (4, 5)])
        d2 = scatter_distribution(q, [(2, 0), (4, 5), (0, 0)])
        assert set(d1) == set(d2)
        for k in d1:
            assert d1[k] == pytest.approx(d2[k], abs=1e-12)

    def test_too_many_photons(self):
        with pytest.raises(ValueError):
            scatter_distribution(np.eye(8), [(0, i) for i in range(9)])


class TestDetectorEfficiency:
    def test_ideal_is_identity(self):
        dist = {(1, 0, 1, 0, 1, 0, 1, 0): 1.0}
        assert apply_detector_efficiency(dist, DetectorModel.ideal()) is dist

    def test_single_photon_thinning(self):
        det = DetectorModel(efficiencies=(0.9,) + (1.0,) * 7)
        occ = (1, 0, 0, 0, 0, 0, 0, 0)
        out = apply_detector_efficiency({occ: 1.0}, det)
        assert out[occ] == pytest.approx(0.9)
        assert out[(0,) * 8] == pytest.approx(0.1)

    def test_two_photon_binomial(self):
        det = DetectorModel(efficiencies=(0.5,) + (1.0,) * 7)
        occ2 = (2, 0, 0, 0, 0, 0, 0, 0)
        out = apply_detector_efficiency({occ2: 1.0}, det)
        assert out[occ2] == pytest.approx(0.25)
        assert out[(1, 0, 0, 0, 0, 0, 0, 0)] == pytest.approx(0.5)
        assert out[(0,) * 8] == pytest.approx(0.25)

    def test_total_probability_preserved(self):
        rng = np.random.default_rng(17)
        det = DetectorModel(efficiencies=tuple(rng.uniform(0.3, 1.0, 8)))
        dist = {(1, 0, 2, 0, 0, 1, 0, 0): 0.4, (0, 1, 0, 1, 1, 0, 1, 0): 0.6}
        out = apply_detector_efficiency(dist, det)
        assert sum(out.values()) == pytest.approx(1.0, abs=1e-9)


class TestPostselection:
    def test_all_upper_pattern(self):
        od = threshold_and_postselect({(1, 0, 1, 0, 1, 0, 1, 0): 1.0})
        assert od.probs[0b0000] == pytest.approx(1.0)

    def test_bunched_lower_pattern(self):
        od = threshold_and_postselect({(0, 2, 1, 0, 1, 0, 1, 0): 1.0})
        assert od.probs[0b1000] == pytest.approx(1.0)

    def test_double_click_discarded(self):
        od = threshold_and_postselect({(1, 1, 1, 0, 1, 0, 1, 0): 1.0})
        assert od.probs.sum() == 0.0
        assert od.discard_mass == pytest.approx(1.0)

    def test_missing_click_discarded(self):
        od = threshold_and_postselect({(1, 0, 0, 0, 1, 0, 1, 0): 1.0})
        assert od.discard_mass == pytest.approx(1.0)


class TestQubitDistribution:
    def test_ideal_z_basis(self, ideal_ctx):
        dist = qubit_distribution(ideal_ctx, Z4)
        assert dist.success_probability == pytest.approx(1 / 8, abs=1e-12)
        cond = dist.conditional()
        assert cond[0b0101] == pytest.approx(0.5, abs=1e-12)
        assert cond[0b1010] == pytest.approx(0.5, abs=1e-12)

    def test_ideal_x_basis_even_parity(self, ideal_ctx):
        dist = qubit_distribution(ideal_ctx, X4)
        cond = dist.conditional()
        oracle = born_probabilities(ghz_state(), ["x"] * 4)
        oracle /= oracle.sum()
        assert np.max(np.abs(cond - oracle)) < 1e-12
        for outcome in range(16):
            parity = bin(outcome).count("1") % 2
            if parity == 0:
                assert cond[outcome] == pytest.approx(1 / 8, abs=1e-12)
            else:
                assert cond[outcome] == pytest.approx(0.0, abs=1e-12)

    def test_phase_invisible_in_z_basis(self, ideal_ctx):
        dist = qubit_distribution(ideal_ctx.with_state_phase(math.pi), Z4)
        cond = dist.conditional()
        assert cond[0b0101] == pytest.approx(0.5, abs=1e-12)
        assert cond[0b1010] == pytest.approx(0.5, abs=1e-12)

    def test_matches_assignment_oracle_random_settings(self, ideal_ctx):
        rng = np.random.default_rng(18)
        for _ in range(20):
            theta = rng.uniform(-math.pi, math.pi)
            phases = [rng.uniform(0, 2 * math.pi, 2) for _ in range(4)]
            ctx = ideal_ctx.with_state_phase(theta)
            u = mzi_phase_unitary(ctx.stage, phases)
            dist = outcome_distribution(u, ctx.spec.enumeration.label_groups,
                                        ctx.detectors)
            oracle = assignment_distribution(u)
            assert np.max(np.abs(dist.probs - oracle)) < 1e-9

    def test_global_phase_invariance(self, ideal_ctx):
        u = full_unitary(ideal_ctx.stage, X4)
        d1 = assignment_distribution(u)
        d2 = assignment_distribution(np.exp(1j * 0.7) * u)
        assert np.max(np.abs(d1 - d2)) < 1e-12

    def test_mass_conserved_with_noise(self, noise_ctx):
        dist = qubit_distribution(noise_ctx, Z4)
        assert dist.probs.sum() + dist.discard_mass == pytest.approx(1.0, abs=1e-8)
        assert np.all(dist.probs >= 0.0)

    def test_success_monotone_in_uniform_efficiency(self, ideal_ctx):
        last = -1.0
        for eta in (0.4, 0.6, 0.8, 1.0):
            ctx = replace(ideal_ctx, detectors=DetectorModel(efficiencies=(eta,) * 8))
            dist = qubit_distribution(ctx, Z4)
            assert dist.success_probability > last
            last = dist.success_probability


class TestOracleAgreement:
    """The click-mask path against full occupation histograms."""

    @pytest.fixture(scope="class")
    def noisy_enumeration(self, noise_ctx):
        return oracle_enumerate_joint_inputs(noise_ctx.spec)

    @pytest.mark.parametrize("labels", COMMAND_SETTINGS,
                             ids=["".join(lab.token for lab in s)
                                  for s in COMMAND_SETTINGS])
    def test_measured_noise_settings(self, noise_ctx, noisy_enumeration, labels):
        u = full_unitary(noise_ctx.stage, labels)
        new, ref = assert_matches_oracle(u, noise_ctx.spec.enumeration.label_groups,
                                         noisy_enumeration, noise_ctx.detectors)
        # the kept probabilities are ~1e-7, so compare the normalized ones too
        assert np.max(np.abs(new.conditional() - ref.conditional())) <= 1e-12

    @pytest.mark.parametrize("labels", [X4, Z4], ids=["XXXX", "ZZZZ"])
    def test_imbalanced_detectors(self, noise_ctx, noisy_enumeration, labels):
        ctx = replace(noise_ctx, detectors=DetectorModel(efficiencies=LOSSY_EFFICIENCIES))
        u = full_unitary(ctx.stage, labels)
        assert_matches_oracle(u, ctx.spec.enumeration.label_groups, noisy_enumeration,
                              ctx.detectors)


class TestHeldGroupsOnly:
    """`outcome_distribution` reads only the Gram blocks of the input columns
    and the label groups its table holds, and gives the same bits as the full
    8 x 8 Grams and all 15 groups of `oracle_all_groups_distribution`."""

    @pytest.mark.parametrize("device", ["ideal_ctx", "noise_ctx", "variant_ctx"])
    def test_bit_identical_to_all_groups(self, device, request):
        """The device's own detectors and, per setting, random efficiencies
        down to 1e-3, on the tomography and Bell settings; a setting whose
        cancellation guard trips has nothing to compare."""
        ctx = request.getfixturevalue(device)
        table = ctx.spec.enumeration.label_groups
        rng = np.random.default_rng(31)
        compared = 0
        for labels in tomography_settings() + list(bell_settings()):
            u = full_unitary(ctx.stage, labels)
            lossy = DetectorModel(tuple(10.0 ** rng.uniform(-3.0, 0.0, 8)))
            for det in (ctx.detectors, lossy):
                ref = oracle_all_groups_distribution(u, table, det)
                try:
                    new = outcome_distribution(u, table, det)
                except FloatingPointError:
                    continue
                compared += 1
                assert np.array_equal(new.probs, ref.probs)
                assert new.discard_mass == ref.discard_mass
        assert compared >= 160

    def test_permanent_census(self, ideal_ctx, noise_ctx, permanent_calls):
        """One setting: the ideal source's one group, the default source's 15
        in one call per group size, each over the 81 masks."""
        qubit_distribution(ideal_ctx, X4)
        assert [args[0].shape for args in permanent_calls] == [(81, 1, 4, 4)]
        permanent_calls.clear()
        qubit_distribution(noise_ctx, X4)
        assert [args[0].shape for args in permanent_calls] == [
            (81, 4, 1, 1), (81, 6, 2, 2), (81, 4, 3, 3), (81, 1, 4, 4)]


@st.composite
def labeled_inputs(draw):
    """A random unitary, detector efficiencies and 1-2 labeled input terms.

    Each input mode carries one photon, and at most one of them a second
    photon with a different label.  The labels are arbitrary, not the
    source's, so the terms reach the simulator through the oracle's
    label-group aggregation.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    etas = tuple(draw(st.lists(st.floats(0.2, 1.0), min_size=8, max_size=8)))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        labels = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
        photons = list(zip((0, 2, 4, 6), labels))
        if draw(st.booleans()):
            i = draw(st.integers(0, 3))
            photons.append((2 * i, draw(st.integers(0, 4).filter(
                lambda lab: lab != labels[i]))))
        terms.append((draw(st.floats(0.1, 1.0)), tuple(photons)))
    total = sum(w for w, _ in terms)
    enumeration = OracleEnumeration(
        tuple(JointInputTerm(w / total, ph) for w, ph in terms),
        len(terms), len(terms), sum(w / total for w, _ in terms))
    return u, DetectorModel(efficiencies=etas), enumeration


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(labeled_inputs())
    def test_matches_oracle(self, case):
        u, det, enumeration = case
        assert_matches_oracle(u, enumeration.label_groups, enumeration, det)

    @settings(max_examples=40, deadline=None)
    @given(labeled_inputs(), st.permutations(range(5)))
    def test_label_permutation_invariance(self, case, relabel):
        u, det, enumeration = case
        terms = tuple(
            JointInputTerm(t.weight, tuple((m, relabel[lab]) for m, lab in reversed(t.photons)))
            for t in enumeration.terms)
        renamed = OracleEnumeration(terms, enumeration.raw_term_count,
                                    enumeration.photon_filtered_count,
                                    enumeration.retained_weight)
        d1 = outcome_distribution(u, enumeration.label_groups, det)
        d2 = outcome_distribution(u, renamed.label_groups, det)
        assert np.max(np.abs(d1.probs - d2.probs)) <= 1e-12
        assert abs(d1.discard_mass - d2.discard_mass) <= 1e-12


class TestRoundoffClamp:
    def test_ideal_z_basis_zeros_sample(self, ideal_ctx):
        dist = qubit_distribution(ideal_ctx, Z4)
        impossible = np.delete(dist.probs, [0b0101, 0b1010])
        assert np.all(impossible >= 0.0) and np.all(impossible < 1e-30)
        assert np.any(impossible == 0.0)
        counts = sample_counts(dist, 1000, 3)
        assert counts[0b0101] + counts[0b1010] == 1000

    def test_ideal_settings_never_negative(self, ideal_ctx):
        # about half of these leave -5e-17 on some exact-zero outcome
        for labels in tomography_settings() + COMMAND_SETTINGS:
            dist = qubit_distribution(ideal_ctx, labels)
            assert np.all(dist.probs >= 0.0)
            assert sample_counts(dist, 10, 0).sum() == 10

    def test_large_negative_probability_raises(self, ideal_ctx):
        # a negative term weight makes the kept mass genuinely negative
        enumeration = OracleEnumeration(
            (JointInputTerm(-1.0, ((0, 0), (2, 0), (4, 0), (6, 0))),), 1, 1, -1.0)
        u = full_unitary(ideal_ctx.stage, Z4)
        with pytest.raises(FloatingPointError):
            outcome_distribution(u, enumeration.label_groups, DetectorModel.ideal())


class TestSimContext:
    def test_one_enumeration_across_runs(self, enumeration_calls):
        ctx = SimContext.ideal()
        run_bell(ctx)
        run_witness(ctx)
        run_tomography(ctx)
        run_qss(ctx, rounds=50, seed=1)
        assert len(enumeration_calls) == 1

    def test_replaced_context_builds_its_own(self, enumeration_calls):
        ctx = SimContext.ideal()
        spec = replace(ctx.spec, distinguishability_scale=(1.0, 1.0, 0.0, 1.0))
        other = replace(ctx, spec=spec)
        assert other.spec.enumeration is not ctx.spec.enumeration
        assert not np.array_equal(other.spec.enumeration.terms, ctx.spec.enumeration.terms)
        assert run_bell(other).value < run_bell(ctx).value
        assert len(enumeration_calls) == 2

    def test_phase_scan_enumerates_once(self, enumeration_calls):
        powers = np.linspace(28.0, 78.0, 13)
        points, _ = run_phase_scan(parse_config(default_config()).context, powers,
                                   0.126264, -0.385)
        assert len(points) == 13
        assert len(enumeration_calls) == 1

    def test_has_exactly_source_stage_detectors(self):
        assert [f.name for f in fields(SimContext)] == ["spec", "stage", "detectors"]


class TestCancellationGuard:
    """Small detector efficiencies leave the kept mass a difference of near-1 masks."""

    @pytest.mark.parametrize("eta", [0.03, 0.1, 0.5])
    def test_uniform_efficiency_keeps_bell_value(self, ideal_ctx, eta):
        ctx = replace(ideal_ctx, detectors=DetectorModel(efficiencies=(eta,) * 8))
        assert run_bell(ctx).value == pytest.approx(6 * math.sqrt(2), abs=1e-6)

    @pytest.mark.parametrize("eta", [1e-3, 1e-4])
    def test_tiny_uniform_efficiency_raises(self, ideal_ctx, eta):
        ctx = replace(ideal_ctx, detectors=DetectorModel(efficiencies=(eta,) * 8))
        with pytest.raises(FloatingPointError, match="round-off"):
            run_bell(ctx)


class TestSampling:
    def test_deterministic_given_seed(self, ideal_ctx):
        dist = qubit_distribution(ideal_ctx, Z4)
        c1 = sample_counts(dist, 1000, 42)
        c2 = sample_counts(dist, 1000, 42)
        assert np.array_equal(c1, c2)
        c3 = sample_counts(dist, 1000, 43)
        assert not np.array_equal(c1, c3)

    def test_point_mass(self):
        dist = OutcomeDistribution(probs=np.eye(16)[0b0101] * 0.1, discard_mass=0.9)
        counts = sample_counts(dist, 500, 1)
        assert counts[0b0101] == 500

    def test_large_sample_statistics(self, ideal_ctx):
        dist = qubit_distribution(ideal_ctx, Z4)
        counts = sample_counts(dist, 10 ** 6, 7)
        sigma = 500.0  # sqrt(N*p*(1-p))
        assert abs(counts[0b0101] - 5e5) < 5 * sigma
        assert abs(counts[0b1010] - 5e5) < 5 * sigma
        assert counts.sum() == 10 ** 6

    def test_empty_distribution_rejected(self):
        dist = OutcomeDistribution(probs=np.zeros(16), discard_mass=1.0)
        with pytest.raises(ValueError):
            sample_counts(dist, 10, 0)


class TestCoincidenceRate:
    def test_unit_budget(self):
        budget = LossBudget(repetition_rate_hz=8.0, filling_factor=1.0,
                            first_lens_brightness=1.0, eta_coupling=1.0,
                            eta_demux=1.0, eta_chip=1.0, eta_detector=1.0)
        assert coincidence_rate(budget) == pytest.approx(1.0)

    def test_measured_budget(self):
        assert coincidence_rate(LossBudget()) == pytest.approx(14.0, abs=0.1)

    def test_fourth_power_law(self):
        base = LossBudget()
        halved = LossBudget(eta_chip=base.eta_chip / 2)
        assert coincidence_rate(base) / coincidence_rate(halved) == pytest.approx(16.0)


class TestOutcomeDistributionType:
    def test_conditional_normalizes(self, ideal_ctx):
        dist = qubit_distribution(ideal_ctx, Z4)
        assert dist.conditional().sum() == pytest.approx(1.0, abs=1e-12)

    def test_csv_and_json_exports(self, ideal_ctx):
        dist = qubit_distribution(ideal_ctx, Z4)
        csv = dist.to_csv()
        assert csv.splitlines()[0] == "outcome,probability"
        assert len(csv.splitlines()) == 17
        payload = dist.to_json_dict()
        assert payload["outcomes"]["0101"] == pytest.approx(1 / 16)
        assert payload["success_probability"] == pytest.approx(1 / 8)
