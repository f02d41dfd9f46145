import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab.errors import FitError
from ghzlab import experiments
from ghzlab.config import default_config, parse_config
from ghzlab.experiments import run_ablation, run_bell_sweep
from ghzlab.simulator import DetectorModel, scatter_distribution
from ghzlab.source import (MEASURED_PAIRS, MasterFractions, SourceSpec,
                           enumerate_joint_inputs, fit_master_fractions,
                           input_mixture, noise_label, solve_pair_probabilities,
                           subsidiary_label, MASTER_LABEL)
from oracles import (oracle_enumerate_joint_inputs, oracle_fit_master_fractions,
                     oracle_fit_objective)


def _products(x):
    return {"AB": x[0] * x[1], "AC": x[0] * x[2], "BD": x[1] * x[3], "CD": x[2] * x[3]}


def _oracle_overlap_sets():
    """Boundary cases, the measured overlaps, and 60 seeded random sets."""
    sets = [{p: 0.81 for p in MEASURED_PAIRS},
            {p: 1.0 for p in MEASURED_PAIRS},
            {p: 0.0 for p in MEASURED_PAIRS},
            {"AB": 0.0, "AC": 0.9, "BD": 0.9, "CD": 0.9},
            dict(SourceSpec().measured_overlaps)]
    rng = np.random.default_rng(2022)
    for _ in range(20):
        sets.append(dict(zip(MEASURED_PAIRS, rng.uniform(0.0, 1.0, 4).tolist())))
        sets.append(dict(zip(MEASURED_PAIRS, rng.uniform(0.8, 1.0, 4).tolist())))
        sets.append(_products(rng.uniform(0.05, 1.0, 4).tolist()))
    return sets


class TestPairProbabilities:
    def test_zero_g2(self):
        p = solve_pair_probabilities(0.0)
        assert (p.p0, p.p1, p.p2) == (0.0, 1.0, 0.0)

    @pytest.mark.parametrize("g2", [0.005, 0.012, 0.1, 0.3])
    def test_solution_satisfies_definition(self, g2):
        p = solve_pair_probabilities(g2)
        assert p.p0 == 0.0
        assert p.p1 + p.p2 == pytest.approx(1.0, abs=1e-14)
        assert 0.0 <= p.p2 < 0.5
        assert 2 * p.p2 / (p.p1 + 2 * p.p2) ** 2 == pytest.approx(g2, abs=1e-12)

    def test_reference_values(self):
        # frozen from the closed-form root, checked by substitution above
        assert solve_pair_probabilities(0.005).p2 == pytest.approx(2.512579e-3, rel=1e-5)
        assert solve_pair_probabilities(0.012).p2 == pytest.approx(6.073098e-3, rel=1e-5)

    @pytest.mark.parametrize("g2", [-0.01, 0.5, 0.7])
    def test_range_rejected(self, g2):
        with pytest.raises(ValueError):
            solve_pair_probabilities(g2)


class TestMasterFractionFit:
    def test_symmetric_case(self):
        frac = fit_master_fractions({p: 0.81 for p in MEASURED_PAIRS})
        assert np.allclose(frac.x, 0.9, atol=1e-9)

    def test_all_ones(self):
        frac = fit_master_fractions({p: 1.0 for p in MEASURED_PAIRS})
        assert np.allclose(frac.x, 1.0, atol=1e-9)

    def test_balanced_truth_recovered(self):
        xt = (0.97, 0.95, 0.99, 0.95 * 0.99 / 0.97)  # satisfies xA*xD = xB*xC
        m = {"AB": xt[0] * xt[1], "AC": xt[0] * xt[2],
             "BD": xt[1] * xt[3], "CD": xt[2] * xt[3]}
        frac = fit_master_fractions(m)
        assert max(abs(a - b) for a, b in zip(frac.x, xt)) < 1e-6

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4))
    def test_measured_products_recovered_for_any_truth(self, xt):
        # the four measured products are identifiable even when the
        # underlying fractions are not.  Exact products make M rank 1 and
        # its rank-1 SVD reproduces them to round-off.
        m = _products(xt)
        x = fit_master_fractions(m).x
        fitted = _products(x)
        for key in MEASURED_PAIRS:
            assert fitted[key] == pytest.approx(m[key], abs=1e-12)
        # balanced whenever the balanced point of the truth's family
        # (a t, b/t, c/t, d t) lies inside the box
        a, b, c, d = xt
        t = (b * c / (a * d)) ** 0.25
        if max(a * t, b / t, c / t, d * t) < 1.0 - 1e-6:
            assert x[0] * x[3] == pytest.approx(x[1] * x[2], abs=1e-12)

    def test_deterministic(self, measured_overlaps_default):
        a = fit_master_fractions(measured_overlaps_default)
        b = fit_master_fractions(measured_overlaps_default)
        assert a.x == b.x

    def test_invalid_overlaps(self):
        with pytest.raises(FitError):
            fit_master_fractions({"AB": 1.2, "AC": 0.9, "BD": 0.9, "CD": 0.9})
        with pytest.raises(FitError):
            fit_master_fractions({"AB": 0.9, "AC": 0.9})


class TestMasterFractionFitOracle:
    @pytest.mark.parametrize("measured", _oracle_overlap_sets())
    def test_matches_oracle(self, measured):
        expected, _ = oracle_fit_master_fractions(measured)
        frac = fit_master_fractions(measured)
        assert max(abs(a - b) for a, b in zip(frac.x, expected.x)) <= 1e-7
        assert (oracle_fit_objective(np.array(frac.x), measured)
                <= oracle_fit_objective(np.array(expected.x), measured) + 1e-15)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.8, 1.0), min_size=4, max_size=4))
    def test_box_bound_overlaps_match_oracle_objective(self, overlaps):
        # overlaps this close to 1 often put the unconstrained rank-1 fit
        # outside [0, 1]^4, so the box-bound candidates decide the fit
        measured = dict(zip(MEASURED_PAIRS, overlaps))
        expected, _ = oracle_fit_master_fractions(measured)
        frac = fit_master_fractions(measured)
        assert (oracle_fit_objective(np.array(frac.x), measured)
                <= oracle_fit_objective(np.array(expected.x), measured) + 1e-15)


class TestInputMixture:
    def test_perfect_source_single_term(self):
        spec = SourceSpec.ideal()
        terms = input_mixture(spec, 0)
        live = [(w, labels) for w, labels in terms if w > 0]
        assert live == [(1.0, (MASTER_LABEL,))]

    def test_zero_eta_means_vacuum(self):
        spec = SourceSpec(g2=0.005, eta=1e-12, measured_overlaps=_products((1.0,) * 4))
        terms = input_mixture(spec, 0)
        weights = {labels: w for w, labels in terms}
        assert weights[()] == pytest.approx(1.0, abs=1e-10)

    def test_default_parameters_weights(self):
        spec = SourceSpec(measured_overlaps=_products((0.95, 0.95, 0.95, 0.95)))
        terms = input_mixture(spec, 0)
        weights = [w for w, _ in terms]
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        p = solve_pair_probabilities(spec.g2)
        expected_master = (spec.eta * 0.95 * p.p1 +
                           spec.eta * (1 - spec.eta) * 0.95 * p.p2)
        assert weights[1] == pytest.approx(expected_master, rel=1e-12)

    def test_normalized_over_random_parameters(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            g2, eta = rng.uniform(0, 0.4), rng.uniform(0.01, 1.0)
            scale = tuple(rng.uniform(0, 1, 4))
            spec = SourceSpec(g2=g2, eta=eta,
                              measured_overlaps=_products(tuple(rng.uniform(0, 1, 4))),
                              distinguishability_scale=scale)
            for i in range(4):
                terms = input_mixture(spec, i)
                assert all(w >= -1e-15 for w, _ in terms)
                assert sum(w for w, _ in terms) == pytest.approx(1.0, abs=1e-12)

    def test_distinguishability_scale_moves_weight(self):
        spec = SourceSpec(measured_overlaps=_products((1.0,) * 4),
                          distinguishability_scale=(0.0, 1.0, 1.0, 1.0))
        terms = input_mixture(spec, 0)
        weights = {labels: w for w, labels in terms}
        assert weights[(MASTER_LABEL,)] == pytest.approx(0.0, abs=1e-15)
        assert weights[(subsidiary_label(0),)] > 0.0


def _term_weights(spec, terms):
    """Each term's weight, its four inputs' entry weights multiplied in order."""
    mixtures = [input_mixture(spec, i) for i in range(4)]
    return [math.prod(mixtures[i][e][0] for i, e in enumerate(row)) for row in terms.tolist()]


def _term_groups(spec, row):
    """The input bitmasks of one term's label groups, as a sorted tuple."""
    groups = {}
    for i, e in enumerate(row):
        for label in input_mixture(spec, i)[e][1]:
            groups[label] = groups.get(label, 0) | 1 << i
    return tuple(sorted(groups.values()))


def _multisets(table):
    """Each multiset of ``table`` as its sorted groups, mapped to its weight."""
    keys = [tuple(sorted(g for g in row if g)) for row in table.index.tolist()]
    assert len(set(keys)) == len(keys)
    return dict(zip(keys, table.weights.tolist()))


class TestEnumeration:
    def test_ideal_source_single_term(self):
        enum = enumerate_joint_inputs(SourceSpec.ideal())
        assert enum.terms.tolist() == [[1, 1, 1, 1]]  # each input's master photon
        table = enum.label_groups
        assert table.index.tolist() == [[0b1111]]
        assert table.weights.tolist() == pytest.approx([1.0])
        assert enum.retained_weight == pytest.approx(1.0)

    def test_no_multiphoton_gives_sixteen_label_terms(self):
        spec = SourceSpec(g2=0.0, eta=0.5,
                          measured_overlaps={p: 0.81 for p in MEASURED_PAIRS})
        enum = enumerate_joint_inputs(spec)
        assert len(enum.terms) == 16
        for row in enum.terms.tolist():
            labels = [input_mixture(spec, i)[e][1] for i, e in enumerate(row)]
            assert all(lab in ((MASTER_LABEL,), (subsidiary_label(i),))
                       for i, lab in enumerate(labels))

    def test_raw_and_filtered_counts(self):
        spec = SourceSpec(measured_overlaps=_products((0.95,) * 4))
        enum = enumerate_joint_inputs(spec)
        assert enum.raw_term_count == 6 ** 4 == 1296
        assert enum.photon_filtered_count == 1041

    def test_retained_weight_matches_terms(self, noise_ctx):
        spec = noise_ctx.spec
        enum = enumerate_joint_inputs(spec)
        assert enum.retained_weight == pytest.approx(
            sum(_term_weights(spec, enum.terms)), abs=1e-15)
        assert enum.retained_weight < 1.0

    def test_label_groups_aggregate_terms(self, noise_ctx):
        spec = noise_ctx.spec
        enum = enumerate_joint_inputs(spec)
        table = enum.label_groups
        assert len(enum.terms) == 410 and len(table.weights) == 162
        assert table.index.shape[0] == 162 and table.index.max() <= 15
        # each row lists its groups first, then the 0 padding
        filled = table.index != 0
        assert filled[:, 0].all() and not (~filled[:, :-1] & filled[:, 1:]).any()
        assert table.weights.sum() == pytest.approx(enum.retained_weight, rel=1e-12)
        # every term's groups, as input bitmasks, make up one row
        multisets = _multisets(table)
        for row in enum.terms.tolist():
            assert _term_groups(spec, row) in multisets

    def test_weight_pruning_threshold(self):
        spec = SourceSpec(measured_overlaps=_products((0.95,) * 4))
        enum = enumerate_joint_inputs(spec, weight_cutoff=1e-8)
        weights = _term_weights(spec, enum.terms)
        assert all(w >= 1e-8 * max(weights) for w in weights)
        loose = enumerate_joint_inputs(spec, weight_cutoff=0.0)
        assert len(loose.terms) == 1041
        assert len(enum.terms) < len(loose.terms)


def _assert_same_bits(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def assert_matches_oracle_enumeration(spec, weight_cutoff):
    """The table enumeration equals the term-by-term oracle bit for bit."""
    new = enumerate_joint_inputs(spec, weight_cutoff=weight_cutoff)
    old = oracle_enumerate_joint_inputs(spec, weight_cutoff=weight_cutoff)
    assert new.raw_term_count == old.raw_term_count
    assert new.photon_filtered_count == old.photon_filtered_count
    assert new.retained_weight == old.retained_weight
    assert len(new.terms) == len(old.terms)
    assert _term_weights(spec, new.terms) == [t.weight for t in old.terms]
    a, b = _multisets(new.label_groups), _multisets(old.label_groups)
    keys = sorted(b)
    assert sorted(a) == keys
    _assert_same_bits(np.array([a[k] for k in keys]), np.array([b[k] for k in keys]))


_unit = st.floats(0.0, 1.0)


class TestEnumerationMatchesOracle:
    @pytest.mark.parametrize("spec, weight_cutoff", [
        (SourceSpec(), 1e-8),
        (SourceSpec.ideal(), 1e-8),
        (SourceSpec(), 0.0),
        (SourceSpec(), 1.0),
        (SourceSpec(g2=0.0), 1e-8),
        (SourceSpec(eta=1.0), 1e-8),
        (SourceSpec(g2=0.2, eta=1.0), 0.0),
        (SourceSpec(distinguishability_scale=(1.0, 0.0, 1.0, 1.0)), 1e-8),
        (SourceSpec(distinguishability_scale=(0.0,) * 4), 0.0),
        (SourceSpec(eta=1e-100), 1e-8),
    ], ids=["measured", "ideal", "cutoff-0", "cutoff-1", "g2-0", "eta-1",
            "eta-1-cutoff-0", "one-scale-0", "all-scales-0", "weights-underflow"])
    def test_boundary_specs(self, spec, weight_cutoff):
        assert_matches_oracle_enumeration(spec, weight_cutoff)

    @settings(max_examples=40, deadline=None)
    @given(g2=st.one_of(st.just(0.0), st.floats(0.0, 0.49)),
           eta=st.one_of(st.just(1.0), st.floats(1e-3, 1.0)),
           overlaps=st.one_of(st.just((1.0,) * 4), st.tuples(_unit, _unit, _unit, _unit)),
           scales=st.tuples(*(st.one_of(st.just(0.0), st.just(1.0), _unit)
                              for _ in range(4))),
           weight_cutoff=st.one_of(st.sampled_from((0.0, 1e-8, 1.0)), st.floats(0.0, 1.0)))
    def test_random_specs(self, g2, eta, overlaps, scales, weight_cutoff):
        spec = SourceSpec(g2=g2, eta=eta, measured_overlaps=dict(zip(MEASURED_PAIRS, overlaps)),
                          distinguishability_scale=scales)
        assert_matches_oracle_enumeration(spec, weight_cutoff)


def _hom_coincidence(spec, i, j):
    """P(both detectors click) for inputs i, j through a balanced coupler."""
    dc = np.array([[1, 1j], [1j, 1]], dtype=complex) / math.sqrt(2)
    mixtures = (input_mixture(spec, i), input_mixture(spec, j))
    total = 0.0
    for (wa, la), (wb, lb) in itertools.product(*mixtures):
        w = wa * wb
        if w <= 0.0 or (not la and not lb):
            continue
        photons = [(0, lab) for lab in la] + [(1, lab) for lab in lb]
        dist = scatter_distribution(dc, photons)
        total += w * sum(p for occ, p in dist.items() if occ[0] > 0 and occ[1] > 0)
    return total


class TestHomConsistency:
    def test_pure_single_photons_reproduce_overlap(self):
        # no multiphoton noise: visibility equals the pairwise product x_i*x_j
        overlaps = _products((0.97, 0.90, 0.95, 0.92))
        spec = SourceSpec(g2=0.0, eta=0.3, measured_overlaps=overlaps)
        blind = SourceSpec(g2=0.0, eta=0.3, measured_overlaps=overlaps,
                           distinguishability_scale=(0.0,) * 4)
        frac = spec.fractions
        for (i, j) in ((0, 1), (0, 2), (1, 3), (2, 3)):
            c_ind = _hom_coincidence(spec, i, j)
            c_dist = _hom_coincidence(blind, i, j)
            visibility = 1.0 - c_ind / c_dist
            assert visibility == pytest.approx(frac.x[i] * frac.x[j], abs=1e-9)

    def test_multiphoton_noise_lowers_visibility(self):
        overlaps = _products((0.96,) * 4)
        clean = SourceSpec(g2=0.0, eta=0.039, measured_overlaps=overlaps)
        noisy = SourceSpec(g2=0.01, eta=0.039, measured_overlaps=overlaps)
        blind = SourceSpec(g2=0.0, eta=0.039, measured_overlaps=overlaps,
                           distinguishability_scale=(0.0,) * 4)
        frac = clean.fractions
        c_dist = _hom_coincidence(blind, 0, 1)
        v_clean = 1.0 - _hom_coincidence(clean, 0, 1) / c_dist
        v_noisy = 1.0 - _hom_coincidence(noisy, 0, 1) / c_dist
        assert v_noisy < v_clean
        assert v_clean == pytest.approx(frac.x[0] * frac.x[1], abs=1e-9)

    def test_blinding_one_photon_zeroes_its_overlaps_only(self):
        base = dict(g2=0.0, eta=0.3,
                    measured_overlaps=_products((0.97, 0.90, 0.95, 0.92)))
        spec = SourceSpec(**base, distinguishability_scale=(1, 1, 0, 1))
        blind = SourceSpec(**base, distinguishability_scale=(0,) * 4)
        frac = spec.fractions
        for (i, j) in ((0, 2), (2, 3)):  # pairs involving photon C
            v = 1 - _hom_coincidence(spec, i, j) / _hom_coincidence(blind, i, j)
            assert v == pytest.approx(0.0, abs=1e-9)
        for (i, j) in ((0, 1), (1, 3)):  # pairs without photon C
            v = 1 - _hom_coincidence(spec, i, j) / _hom_coincidence(blind, i, j)
            assert v == pytest.approx(frac.x[i] * frac.x[j], abs=1e-9)


class TestSpecOwnsFractions:
    """The spec fits its master fractions once per overlap set and enumerates lazily."""

    def test_bell_sweep_fits_once(self, fit_calls):
        rows = run_bell_sweep(parse_config(default_config()).context, 2,
                              (1.0, 0.75, 0.5, 0.25, 0.0))
        assert len(rows) == 5
        assert len(fit_calls) == 1

    def test_ablation_fits_once(self, fit_calls):
        assert len(run_ablation(parse_config(default_config()).context)) == 4
        assert len(fit_calls) == 1

    def test_rows_without_distinguishability_are_perfect(self, monkeypatch):
        """Each row keeps the switched-on sources of the configured device, and
        makes the others ideal; eta and the state phase never change."""
        cfg = default_config()
        cfg["source"].update(g2=0.03, distinguishability_scale=[1.0, 0.9, 1.0, 1.0])
        cfg["chip"]["path_phases"] = [0.1] + [0.0] * 7
        cfg["detectors"]["efficiencies"] = [1.0, 0.5, 0.9, 1.0, 0.6, 1.0, 1.0, 0.7]
        ctx = parse_config(cfg).context
        assert ctx.stage.state_phase == -0.1
        contexts = []
        run_tomography = experiments.run_tomography
        monkeypatch.setattr(experiments, "run_tomography",
                            lambda c: contexts.append(c) or run_tomography(c))
        rows = run_ablation(ctx)
        assert [r["row"] for r in rows] == [r[0] for r in experiments.ABLATION_ROWS]
        for (_, multiphoton, distinguishability, couplers, detectors), row_ctx in zip(
                experiments.ABLATION_ROWS, contexts):
            spec = row_ctx.spec
            assert (spec.eta, row_ctx.stage.state_phase) == (ctx.spec.eta,
                                                            ctx.stage.state_phase)
            assert spec.g2 == (0.03 if multiphoton else 0.0)
            if distinguishability:
                assert spec.measured_overlaps == ctx.spec.measured_overlaps
                assert spec.distinguishability_scale == (1.0, 0.9, 1.0, 1.0)
            else:
                assert spec.measured_overlaps == {p: 1.0 for p in MEASURED_PAIRS}
                assert spec.distinguishability_scale == (1.0,) * 4
                assert spec.fractions == MasterFractions.perfect()
            assert row_ctx.stage.reflectivities == (
                ctx.stage.reflectivities if couplers else (0.5,) * 4)
            assert row_ctx.detectors == (ctx.detectors if detectors
                                         else DetectorModel.ideal())

    def test_unit_overlaps_skip_the_fit(self, fit_calls):
        assert SourceSpec.ideal().fractions == MasterFractions.perfect()
        assert fit_calls == []

    def test_fractions_match_the_fit(self, fitted_fractions):
        assert SourceSpec().fractions == fitted_fractions

    def test_replace_keeps_fractions_and_builds_new_enumeration(self, fit_calls,
                                                                enumeration_calls):
        spec = SourceSpec()
        other = replace(spec, distinguishability_scale=(1.0, 1.0, 0.5, 1.0))
        assert other.fractions is spec.fractions
        assert other.enumeration is not spec.enumeration
        assert not np.array_equal(other.enumeration.terms, spec.enumeration.terms)
        assert other.enumeration is other.enumeration
        assert len(fit_calls) == 1
        assert len(enumeration_calls) == 2


class TestBellSweepOverlap:
    def test_partner_scales_enter_the_minimum(self):
        ctx = parse_config(default_config()).context
        x = ctx.spec.fractions.x
        blind_b = replace(ctx, spec=replace(ctx.spec,
                                            distinguishability_scale=(1.0, 0.0, 1.0, 1.0)))
        rows = run_bell_sweep(blind_b, 2, (1.0, 0.5))
        assert [r["min_pairwise_overlap"] for r in rows] == [0.0, 0.0]
        half_b = replace(ctx, spec=replace(ctx.spec,
                                           distinguishability_scale=(1.0, 0.5, 1.0, 1.0)))
        [row] = run_bell_sweep(half_b, 2, (1.0,))
        assert row["min_pairwise_overlap"] == pytest.approx(
            min(x[2] * x[0], x[2] * x[1] * 0.5, x[2] * x[3]), rel=1e-15)
