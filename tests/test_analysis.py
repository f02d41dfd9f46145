import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab.analysis import (PHASE_WITNESS_SETTINGS, CountTable, bell_settings,
                             bell_value, correlators, fit_phase_scan,
                             linear_inversion, max_fidelity_over_phase,
                             mle_reconstruct, monte_carlo_error, phase_witness,
                             stabilizer_witness, tomography_settings,
                             MLE_CERTIFICATE_TOL, MLE_START_FLOOR, _FRAME,
                             _frame_adjoint, _frame_sum, _likelihood_terms)
from ghzlab.config import default_config, parse_config
from ghzlab import experiments
from ghzlab.errors import FitError
from ghzlab.experiments import (SimContext, measurement_records, run_bell,
                                run_phase_scan, run_tomography, run_witness,
                                settings_for_labels, tomography_report)
from ghzlab.qmath import (PauliLabel, fidelity_to_pure, ghz4, project_to_physical,
                          purity)
from ghzlab.simulator import qubit_distribution, sample_counts

from oracles import (born_probabilities, ghz_state, mle_log_likelihood,
                     oracle_expectation, oracle_fit_phase_scan,
                     oracle_linear_inversion,
                     oracle_mle_certificate, oracle_mle_cholesky,
                     oracle_projector_vectors)

SQRT2 = math.sqrt(2)
I, X, Y, Z = PauliLabel.I, PauliLabel.X, PauliLabel.Y, PauliLabel.Z
X4, Y4, Z4 = (X,) * 4, (Y,) * 4, (Z,) * 4


def born_table(settings, state=None, scale=1.0):
    """Born probabilities of ``state`` (the GHZ state by default) at each
    setting, times ``scale``; parties labeled I are measured at Z."""
    psi = ghz_state() if state is None else state
    return CountTable(settings, [
        born_probabilities(psi, ["z" if lab is I else lab.token.lower() for lab in s])
        * scale for s in settings])


def tomo(counts):
    """The tomography count table of ``counts``, rows in design order."""
    return CountTable(tomography_settings(), counts)


def _sign(settings) -> int:
    return math.prod(lab.sign for lab in settings if lab is not I)


class TestExpectation:
    """`correlators`: the product of each row's labeled operators; a party
    left out of a product is a party labeled I."""

    def test_ideal_zzzz(self):
        assert correlators(born_table([Z4]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_ideal_xxxx(self):
        assert correlators(born_table([X4]))[0] == pytest.approx(1.0, abs=1e-12)

    def test_masked_pair_anticorrelated(self):
        table = born_table([(Z, Z, I, I)])
        assert correlators(table)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_all_masked_returns_one(self):
        rng = np.random.default_rng(0)
        table = CountTable([(I,) * 4], [rng.uniform(0, 10, 16)])
        assert correlators(table)[0] == pytest.approx(1.0)

    def test_negative_label_flips(self):
        # -X on party 2: outcome 0 marks the -1 eigenstate of X there, so the
        # labeled product X(-X)XX is -XXXX
        table = born_table([(X, PauliLabel.MINUS_X, X, X)])
        assert correlators(table)[0] == pytest.approx(-1.0, abs=1e-12)

    def test_zero_counts_rejected(self):
        table = CountTable([Z4, Z4], [np.ones(16), np.zeros(16)])
        with pytest.raises(ValueError):
            correlators(table)

    def test_bitwise_equal_to_signed_oracle(self):
        """Random settings (I and negated labels included) and integer counts,
        some of them zero: each correlator is the oracle's unsigned
        expectation times the labels' sign product, bit for bit."""
        rng = np.random.default_rng(2718)
        labels = list(PauliLabel)
        settings = [tuple(labels[k] for k in rng.integers(0, len(labels), 4))
                    for _ in range(400)]
        counts = rng.integers(0, 60, (400, 16)).astype(float)
        counts[rng.random((400, 16)) < 0.3] = 0.0
        counts[counts.sum(axis=1) == 0.0, 0] = 1.0
        expected = [_sign(s) * oracle_expectation(s, row)
                    for s, row in zip(settings, counts)]
        assert correlators(CountTable(settings, counts)).tolist() == expected


class TestPhaseWitness:
    def test_ideal_maximum(self, ideal_ctx):
        table = measurement_records(ideal_ctx, [PHASE_WITNESS_SETTINGS], None, None)
        assert phase_witness(table) == pytest.approx(SQRT2 / 2, abs=1e-12)

    def test_quarter_phase_zero(self, ideal_ctx):
        ctx = ideal_ctx.with_state_phase(math.pi / 2)
        table = measurement_records(ctx, [PHASE_WITNESS_SETTINGS], None, None)
        assert phase_witness(table) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_settings_rejected(self):
        with pytest.raises(ValueError):
            phase_witness(born_table([X4]))


class TestPhaseScanFit:
    def test_synthetic_recovery(self):
        rng = np.random.default_rng(1)
        amp, a, b = 0.56, 0.1261, -0.41
        powers = np.linspace(25, 80, 15)
        points = [(p, amp * math.cos(a * p + b)) for p in powers]
        fit = fit_phase_scan(points)
        assert fit.amplitude == pytest.approx(amp, abs=1e-6)
        assert fit.rad_per_unit == pytest.approx(a, abs=1e-6)
        # argmax of the fitted cosine reproduces a zero of a*P+b mod 2pi
        assert math.cos(a * fit.power_at_max + b) == pytest.approx(1.0, abs=1e-9)

    def test_constant_data_rejected(self):
        with pytest.raises(FitError):
            fit_phase_scan([(p, 0.3) for p in range(10)])

    def test_too_few_points(self):
        with pytest.raises(FitError):
            fit_phase_scan([(0, 0.1), (1, 0.2), (2, 0.3)])

    @pytest.mark.parametrize("points", [
        [(0, 0.1), (0, 0.2), (1, 0.3), (1, 0.1), (0, 0.4)],
        [(float("nan"), 0.1)] + [(p, 0.1 * p) for p in range(1, 6)],
        [(p, 0.1 * p) for p in range(5)] + [(5, float("inf"))],
        [(float("inf"), 0.1)] + [(p, 0.1 * p) for p in range(1, 6)],
        [(-1e308, 0.1), (-1.5e308, 0.2), (-1.7e308, 0.3), (-1.6e308, 0.1), (-1.4e308, 0.2)],
        [(-1e308, 0.1), (0.0, 0.2), (1e308, 0.3), (0.0, 0.1), (1e308, 0.2)],
        [(k * 1e-320, 0.1 * k) for k in range(5)],
        [(0, 0.1), (1e-12, 0.2), (1, 0.3), (1, 0.1), (0, 0.4)],
        [(k + 1e-4 * (-1) ** k, 0.3 * math.cos(k)) for k in range(8)],
        [(p, 0.3 * math.cos(p)) for p in (0, 1, 2, 4, 5)],
        [(p, 0.3 * math.cos(0.1 * p))
         for p in np.sort(np.random.default_rng(5).uniform(0.0, 50.0, 20))],
    ], ids=["two-distinct-powers", "nan-power", "inf-witness", "inf-power",
            "mean-overflows", "span-overflows", "subnormal-span", "near-two-powers",
            "jittered", "missing-node", "random-powers"])
    def test_degenerate_scan_rejected(self, points):
        with pytest.raises(FitError):
            fit_phase_scan(points)

    @pytest.mark.parametrize("lo, hi, n", [(1e6, 1e6 + 1e-3, 1000), (1e8, 1e8 + 1.0, 10 ** 4)],
                             ids=["1e6-1000", "1e8-10000"])
    @pytest.mark.filterwarnings("ignore:Covariance of the parameters could not be estimated")
    def test_linspace_rounding_counts_as_even(self, lo, hi, n):
        """A command's ``np.linspace`` scan sits up to about an ulp of its powers off the
        even grid, more than 1e-6 of a gap here, and is fitted as an even scan."""
        powers = np.linspace(lo, hi, n)
        pos = (powers - lo) * ((n - 1) / (hi - lo))
        assert np.abs(pos - np.rint(pos)).max() > 1e-6
        rng = np.random.default_rng(n)
        wit = (0.56 * np.cos(2.0 * math.pi * 1.3 * (powers - lo) / (hi - lo) - 0.4)
               + 0.05 * rng.standard_normal(n))
        points = list(zip(powers.tolist(), wit.tolist()))
        fit = fit_phase_scan(points)

        def residual(amp, a, b):
            return float(np.sum((amp * np.cos(a * powers + b) - wit) ** 2))
        assert residual(fit.amplitude, fit.rad_per_unit, fit.phase_offset) <= \
            residual(*oracle_fit_phase_scan(points)) * (1.0 + 1e-9)

    def test_above_band_is_an_error_or_bounded(self):
        """Data above the band edge on 5-13 even nodes, some doubled, with noise: each
        fit is a `FitError` or has an amplitude within ten times the witness's range."""
        raised = 0
        for seed in range(200):
            rng = np.random.default_rng(seed)
            nodes = 2.5 * np.arange(int(rng.integers(5, 14)))
            powers = np.sort(np.concatenate(
                [nodes, rng.choice(nodes, int(rng.integers(0, 6)), replace=False)]))
            a = rng.uniform(1.0, 1.5) * math.pi / 2.5
            wit = (rng.uniform(0.3, 0.7) * np.cos(a * powers + rng.uniform(-math.pi, math.pi))
                   + rng.uniform(0.0, 0.2) * rng.standard_normal(len(powers)))
            try:
                fit = fit_phase_scan(list(zip(powers, wit)))
            except FitError:
                raised += 1
                continue
            assert fit.amplitude <= 10.0 * np.ptp(wit), seed
        assert raised > 0

    @pytest.mark.parametrize("n", [7, 8])
    def test_frequency_band_edge(self, n):
        # At pi/spacing the sine column vanishes on an odd-length uniform scan
        # and the cosine column on an even-length one; there the residual is
        # flat to high order in the frequency.
        points = [(2.0 * k, 0.5 * (-1) ** k) for k in range(n)]
        fit = fit_phase_scan(points)
        assert fit.amplitude == pytest.approx(0.5, rel=1e-12)
        assert fit.rad_per_unit == pytest.approx(math.pi / 2.0, rel=1e-6)
        assert -math.pi < fit.phase_offset <= math.pi
        for p, w in points:
            assert fit.amplitude * math.cos(fit.rad_per_unit * p + fit.phase_offset) == \
                pytest.approx(w, abs=1e-9)

    def test_near_duplicate_power(self):
        # The smallest gap does not set the band or the grid spacing.
        powers = [0.0, 1e-9, 10.0, 20.0, 30.0, 40.0]
        fit = fit_phase_scan([(p, 0.8 * math.cos(0.1 * p + 0.3)) for p in powers])
        assert fit.amplitude == pytest.approx(0.8, rel=1e-9)
        assert fit.rad_per_unit == pytest.approx(0.1, rel=1e-9)
        assert fit.phase_offset == pytest.approx(0.3, abs=1e-9)

    @pytest.mark.parametrize("n, limit_mib", [(5000, 4.0)], ids=["even-5000"])
    def test_large_scan_memory(self, n, limit_mib):
        """The search holds O(n) values at a time, not one per grid frequency and point."""
        rng = np.random.default_rng(3)
        powers = np.linspace(28.0, 78.0, n)
        wit = 0.56 * np.cos(0.126 * powers - 0.38) + 0.05 * rng.standard_normal(n)
        points = list(zip(powers.tolist(), wit.tolist()))
        tracemalloc.start()
        try:
            fit = fit_phase_scan(points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mib * 2 ** 20

        def residual(amp, a, b):
            return float(np.sum((amp * np.cos(a * powers + b) - wit) ** 2))
        assert residual(fit.amplitude, fit.rad_per_unit, fit.phase_offset) <= \
            residual(*oracle_fit_phase_scan(points)) * (1.0 + 1e-9)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(5, 40), spacing=st.floats(0.1, 10.0),
           start=st.floats(-100.0, 100.0), amp=st.floats(0.05, 2.0),
           band_fraction=st.floats(0.01, 0.95), offset=st.floats(-math.pi, math.pi),
           layout=st.sampled_from(["even", "repeated", "near-repeated"]))
    def test_noise_free_recovery(self, n, spacing, start, amp, band_fraction, offset, layout):
        # Repeated powers, and powers within 1e-9 of the span of each other,
        # are binned on the even grid.
        a = band_fraction * math.pi / spacing
        rng = np.random.default_rng(n)
        powers = start + spacing * np.arange(n)
        if layout != "even":
            jitter = 1e-11 if layout == "near-repeated" else 0.0
            powers = np.repeat(powers, 2)
            powers += jitter * spacing * rng.uniform(-1.0, 1.0, len(powers))
        fit = fit_phase_scan([(p, amp * math.cos(a * p + offset)) for p in powers])
        assert fit.amplitude == pytest.approx(amp, rel=1e-9)
        assert fit.rad_per_unit == pytest.approx(a, rel=1e-9)
        assert math.cos(a * fit.power_at_max + offset) == pytest.approx(1.0, abs=1e-9)
        assert -math.pi < fit.phase_offset <= math.pi

    @pytest.mark.parametrize("case", (
        [(ctx, seed) for ctx in ("ideal", "default") for seed in (None, 1, 2, 3, 4, 5)]
        + [("synthetic", seed) for seed in range(30)]),
        ids=lambda case: f"{case[0]}-{'exact' if case[1] is None else case[1]}")
    def test_residual_not_above_oracle(self, case):
        """Never a worse least-squares residual than the 40-start ``curve_fit``."""
        kind, seed = case
        if kind == "synthetic":
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 40))
            span = rng.uniform(10.0, 80.0)
            powers = np.linspace(0.0, span, n) + rng.uniform(0.0, 60.0)
            a = 2.0 * math.pi * rng.uniform(0.5, 2.5) / span
            wit = (rng.uniform(0.2, 1.0) * np.cos(a * powers + rng.uniform(-math.pi, math.pi))
                   + rng.uniform(0.0, 0.2) * rng.standard_normal(n))
            points = list(zip(powers, wit))
        else:
            cfg = parse_config(default_config())
            scan = cfg.phase_scan
            ctx = SimContext.ideal() if kind == "ideal" else cfg.context
            powers = np.linspace(scan.power_min_mw, scan.power_max_mw, scan.points)
            points, _ = run_phase_scan(ctx, powers, scan.rad_per_mw, scan.offset_rad,
                                       shots=None if seed is None else 450, seed=seed)
        power = np.array([p for p, _ in points])
        wit = np.array([w for _, w in points])

        def residual(amp, a, b):
            return float(np.sum((amp * np.cos(a * power + b) - wit) ** 2))

        fit = fit_phase_scan(points)
        r_new = residual(fit.amplitude, fit.rad_per_unit, fit.phase_offset)
        r_oracle = residual(*oracle_fit_phase_scan(points))
        assert r_new <= r_oracle * (1.0 + 1e-9) + 1e-24
        assert -math.pi < fit.phase_offset <= math.pi


class TestStabilizerWitness:
    def test_ideal_state(self):
        result = stabilizer_witness(born_table([X4, Z4]))
        assert result.value == pytest.approx(-1.0, abs=1e-12)
        assert result.fidelity_lower_bound == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        result = stabilizer_witness(CountTable([X4, Z4], np.full((2, 16), 1 / 16)))
        assert result.value == pytest.approx(7 / 4, abs=1e-12)

    def test_wrong_settings(self):
        with pytest.raises(ValueError):
            stabilizer_witness(born_table([Y4, Z4]))

    def test_bound_holds_against_tomography(self, noise_ctx):
        wit = run_witness(noise_ctx)
        ts = run_tomography(noise_ctx)
        f_tomo = fidelity_to_pure(mle_reconstruct(ts).rho, ghz4())
        assert wit.fidelity_lower_bound <= f_tomo + 1e-6


class TestBell:
    def test_ideal_maximal_violation(self):
        result = bell_value(born_table(bell_settings()))
        assert result.value == pytest.approx(6 * SQRT2, abs=1e-9)
        expected = (-1 / SQRT2,) * 3 + (1 / SQRT2,) * 5
        assert np.allclose(result.expectations, expected, atol=1e-9)

    def test_dephased_mixture_no_violation(self):
        rho_a = ghz_state(0.0)
        rho_b = ghz_state(math.pi)  # mixing the two phases kills the coherence
        pa = born_table(bell_settings(), rho_a).counts
        pb = born_table(bell_settings(), rho_b).counts
        result = bell_value(CountTable(bell_settings(), (pa + pb) / 2))
        assert result.value == pytest.approx(6 / SQRT2, abs=1e-9)

    def test_shot_noise_error(self):
        table = born_table(bell_settings(), scale=1000)
        result = bell_value(table)
        assert result.standard_error > 0.0
        coeff = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 3.0, 3.0])
        e = np.array(result.expectations)
        expected = math.sqrt(float(np.sum(coeff ** 2 * (1.0 - e ** 2))) / 1000)
        assert result.standard_error == pytest.approx(expected, rel=1e-12)
        assert bell_value(table, exact=True).standard_error == 0.0

    def test_wrong_settings_rejected(self):
        settings = list(bell_settings())
        settings[0] = X4
        with pytest.raises(ValueError):
            bell_value(born_table(settings))

    def test_simulated_ideal_matches(self, ideal_ctx):
        result = run_bell(ideal_ctx)
        assert result.value == pytest.approx(6 * SQRT2, abs=1e-9)


class TestSampledSeedRule:
    """Row i of a sampled run is `sample_counts` of setting i's distribution
    with child i of the run seed; point j of a phase scan draws with child j
    itself, not with a child of it."""

    SHOTS, SEED = 120, 77

    @pytest.fixture()
    def draws(self, monkeypatch):
        drawn = []

        def recorded(dist, shots, seed):
            drawn.append(sample_counts(dist, shots, seed))
            return drawn[-1]

        monkeypatch.setattr(experiments, "sample_counts", recorded)
        return drawn

    def _expected(self, contexts, label_tuples):
        children = np.random.SeedSequence(self.SEED).spawn(len(label_tuples))
        return [sample_counts(qubit_distribution(ctx, settings_for_labels(s)),
                              self.SHOTS, child)
                for ctx, s, child in zip(contexts, label_tuples, children)]

    def test_witness_row_i_draws_from_child_i(self, noise_ctx, draws):
        settings = [X4, Z4]
        result = run_witness(noise_ctx, shots=self.SHOTS, seed=self.SEED)
        expected = self._expected([noise_ctx] * 2, settings)
        assert len(draws) == 2
        assert all(np.array_equal(d, e) for d, e in zip(draws, expected))
        assert result.g1_expectation == pytest.approx(
            oracle_expectation(settings[0], expected[0]), abs=1e-15)
        z = expected[1]
        assert result.stabilizer_indicator == pytest.approx(
            (z[0b0101] + z[0b1010]) / z.sum(), abs=1e-15)

    def test_bell_row_i_draws_from_child_i(self, noise_ctx, draws):
        settings = bell_settings()
        result = run_bell(noise_ctx, shots=self.SHOTS, seed=self.SEED)
        expected = self._expected([noise_ctx] * 8, settings)
        assert len(draws) == 8
        assert all(np.array_equal(d, e) for d, e in zip(draws, expected))
        for ev, s, counts in zip(result.expectations, settings, expected):
            assert ev == pytest.approx(_sign(s) * oracle_expectation(s, counts),
                                       abs=1e-15)

    def test_phase_scan_point_j_draws_with_child_j(self, noise_ctx, draws):
        powers, rad, offset = [30.0, 40.0, 50.0, 60.0, 70.0], 0.126264, -0.38
        points, _ = run_phase_scan(noise_ctx, powers, rad, offset,
                                   shots=self.SHOTS, seed=self.SEED)
        contexts = [noise_ctx.with_state_phase(rad * p + offset) for p in powers]
        settings = [PHASE_WITNESS_SETTINGS] * len(powers)
        expected = self._expected(contexts, settings)
        assert len(draws) == len(powers)
        assert all(np.array_equal(d, e) for d, e in zip(draws, expected))
        for (_, w), counts in zip(points, expected):
            assert w == pytest.approx(
                _sign(PHASE_WITNESS_SETTINGS)
                * oracle_expectation(PHASE_WITNESS_SETTINGS, counts), abs=1e-15)


class TestTomographySettings:
    def test_count_and_order(self):
        settings = tomography_settings()
        assert len(settings) == 81
        assert settings[0] == (PauliLabel.X,) * 4
        assert settings[-1] == (PauliLabel.Z,) * 4
        assert len(set(settings)) == 81


class TestTomographySet:
    """`CountTable` on its 81-row tomography case."""

    @pytest.mark.parametrize("counts", [
        np.ones((81, 15)),
        np.ones(81 * 16),
        np.where(np.arange(81 * 16).reshape(81, 16) == 7, np.nan, 1.0),
        np.where(np.arange(81 * 16).reshape(81, 16) == 7, np.inf, 1.0),
        np.where(np.arange(81 * 16).reshape(81, 16) == 7, -1.0, 1.0),
    ], ids=["shape-81x15", "flat", "nan", "inf", "negative"])
    def test_constructor_rejects(self, counts):
        with pytest.raises(ValueError):
            tomo(counts)

    @pytest.mark.parametrize("settings", [
        [], [(X, Y, Z)], [(X, Y, Z, "x")]], ids=["none", "three-labels", "token"])
    def test_settings_rejected(self, settings):
        with pytest.raises(ValueError):
            CountTable(settings, np.ones((len(settings), 16)))

    def test_counts_are_a_read_only_float_copy(self):
        source = np.ones((81, 16), dtype=int)
        ts = tomo(source)
        assert ts.counts.dtype == float
        with pytest.raises(ValueError):
            ts.counts[0, 0] = 5.0
        source[0, 0] = 5
        assert ts.counts[0, 0] == 1.0

    def test_has_exactly_one_field(self):
        assert [f.name for f in fields(CountTable)] == ["settings", "counts"]


class TestTomographySetSerialization:
    def test_json_round_trip(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=30, seed=12)
        data = ts.to_json_dict()
        assert [tuple(PauliLabel.from_token(t) for t in item["settings"])
                for item in data["records"]] == tomography_settings()
        back = CountTable.from_json_dict(data)
        assert back.settings == ts.settings
        assert np.array_equal(ts.counts, back.counts)

    def test_out_of_order_settings_rejected(self, ideal_ctx):
        data = run_tomography(ideal_ctx, shots=30, seed=12).to_json_dict()
        records = data["records"]
        records[0], records[1] = records[1], records[0]
        table = CountTable.from_json_dict(data)
        with pytest.raises(ValueError, match="design order"):
            linear_inversion(table)
        with pytest.raises(ValueError, match="design order"):
            mle_reconstruct(table)

    def test_missing_setting_rejected(self, ideal_ctx):
        data = run_tomography(ideal_ctx, shots=30, seed=12).to_json_dict()
        del data["records"][40]
        with pytest.raises(ValueError, match="design order"):
            linear_inversion(CountTable.from_json_dict(data))


class TestTomographyDesign:
    """The per-party frame helpers against the design's kets, built outcome by outcome."""

    def test_adjoint_matches_oracle_kets(self):
        v, _ = oracle_projector_vectors(tomo(np.ones((81, 16))))
        rng = np.random.default_rng(21)
        for _ in range(3):
            a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
            expected = np.einsum("ik,ij,jk->k", v.conj(), rho, v).real
            assert np.max(np.abs(_frame_adjoint(rho).ravel() - expected)) <= 1e-14

    def test_frame_sum_matches_oracle_kets(self):
        v, _ = oracle_projector_vectors(tomo(np.ones((81, 16))))
        rng = np.random.default_rng(22)
        for _ in range(3):
            w = rng.uniform(0.0, 1.0, (81, 16))
            expected = (v * w.ravel()) @ v.conj().T
            assert np.max(np.abs(_frame_sum(w, _FRAME) - expected)) <= 1e-13


class TestLinearInversion:
    def test_matches_oracle_on_random_counts(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            ts = tomo(rng.uniform(0, 50, (81, 16)))
            assert np.max(np.abs(linear_inversion(ts)
                                 - oracle_linear_inversion(ts))) <= 1e-12

    def test_exact_ideal_probabilities(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, effective_counts=1.0)
        rho = linear_inversion(ts)
        target = np.outer(ghz4(), ghz4().conj())
        assert np.max(np.abs(rho - target)) < 1e-10

    def test_uniform_counts_give_identity(self):
        rho = linear_inversion(tomo(np.full((81, 16), 10.0)))
        assert np.max(np.abs(rho - np.eye(16) / 16)) < 1e-12

    def test_trace_one_for_arbitrary_counts(self):
        rng = np.random.default_rng(5)
        rho = linear_inversion(tomo(rng.uniform(0, 50, (81, 16))))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError):
            tomo(np.ones((80, 16)))

    def test_setting_without_events_is_a_fit_error(self):
        counts = np.ones((81, 16))
        counts[tomography_settings().index(
            (PauliLabel.X, PauliLabel.Y, PauliLabel.Z, PauliLabel.X))] = 0.0
        with pytest.raises(FitError, match="XYZX"):
            linear_inversion(tomo(counts))


class TestMle:
    def test_exact_ideal_reaches_unit_fidelity(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, effective_counts=1e6)
        res = mle_reconstruct(ts)
        assert res.converged
        assert fidelity_to_pure(res.rho, ghz4()) >= 0.9999
        assert purity(res.rho) >= 0.9999

    def test_uniform_counts_give_near_identity(self):
        res = mle_reconstruct(tomo(np.full((81, 16), 1000.0)))
        dist = 0.5 * np.abs(np.linalg.eigvalsh(res.rho - np.eye(16) / 16)).sum()
        assert dist < 1e-3

    def test_likelihood_not_below_initializer(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=200, seed=3)
        rho_init = project_to_physical(linear_inversion(ts),
                                       min_eigenvalue=MLE_START_FLOOR)
        res = mle_reconstruct(ts)
        assert res.log_likelihood >= mle_log_likelihood(ts, rho_init) - 1e-6

    def test_analytic_gradient_matches_finite_difference(self, ideal_ctx):
        """d/de ln L(rho + e*D) = N Tr(R(rho) D) for Hermitian D."""
        ts = run_tomography(ideal_ctx, shots=100, seed=9)
        n_total = ts.counts.sum()
        rng = np.random.default_rng(2)
        a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        rho = a @ a.conj().T + 4.0 * np.eye(16)
        rho /= np.trace(rho).real
        _, ratio = _likelihood_terms(ts.counts, rho)
        r = _frame_sum(ratio / n_total, _FRAME)
        eps = 1e-6
        for _ in range(4):
            d = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            d = (d + d.conj().T) / 2.0
            d /= np.linalg.norm(d)
            fd = (mle_log_likelihood(ts, rho + eps * d)
                  - mle_log_likelihood(ts, rho - eps * d)) / (2 * eps)
            assert fd == pytest.approx(n_total * np.vdot(r, d).real, rel=1e-6)

    def test_one_fit_allocates_little(self, ideal_ctx):
        """The design is never expanded: one fit peaks below 256 KiB of temporaries."""
        ts = run_tomography(ideal_ctx, shots=450, seed=1013818839)
        mle_reconstruct(ts)
        tracemalloc.start()
        try:
            mle_reconstruct(ts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 2 ** 10

    def test_iteration_cap_reports_nonconvergence(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=300, seed=4)
        res = mle_reconstruct(ts, max_iterations=2)
        assert res.iterations == 2
        assert not res.converged

    def test_certificate_small_at_convergence(self, ideal_ctx):
        res = mle_reconstruct(run_tomography(ideal_ctx, effective_counts=1e6))
        assert res.converged
        assert -1e-12 <= res.certificate <= MLE_CERTIFICATE_TOL

    def test_certificate_larger_when_capped(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=300, seed=4)
        capped = mle_reconstruct(ts, max_iterations=2)
        full = mle_reconstruct(ts)
        assert capped.certificate > 10.0 * full.certificate
        assert capped.certificate > MLE_CERTIFICATE_TOL

    def test_start_point_used(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=300, seed=4)
        central = mle_reconstruct(ts)
        warm = mle_reconstruct(ts, start=central.rho)
        assert warm.iterations == 0
        assert np.array_equal(warm.rho, central.rho)
        with pytest.raises(ValueError, match="zero probability"):
            mle_reconstruct(ts, start=np.diag(np.eye(16)[0]).astype(complex))


def _config_init_tomography(shots=None, seed=None):
    cfg = parse_config(default_config())
    return run_tomography(cfg.context, shots=shots, seed=seed,
                          effective_counts=cfg.shots_per_setting)


# The datasets checked against the Cholesky oracle, built on demand.
_MLE_DATASETS = {
    "ideal-450": lambda: run_tomography(SimContext.ideal(), shots=450, seed=3),
    "config-init-exact": _config_init_tomography,
    "config-init-450": lambda: _config_init_tomography(shots=450, seed=20220901),
    "ideal-10": lambda: run_tomography(SimContext.ideal(), shots=10, seed=10),
}


@pytest.mark.parametrize("name", list(_MLE_DATASETS))
def test_mle_meets_certificate_and_beats_cholesky_oracle(name):
    """The certificate, recomputed over the oracle kets, is met; the fit is at
    least as likely as the Cholesky ascent's; a rerun gives the same bytes."""
    ts = _MLE_DATASETS[name]()
    res = mle_reconstruct(ts)
    assert res.converged
    assert oracle_mle_certificate(ts, res.rho) <= MLE_CERTIFICATE_TOL
    oracle = oracle_mle_cholesky(ts)
    assert mle_log_likelihood(ts, res.rho) >= mle_log_likelihood(ts, oracle.rho)
    again = mle_reconstruct(ts)
    assert again.rho.tobytes() == res.rho.tobytes()
    assert (again.log_likelihood, again.iterations, again.certificate) == \
        (res.log_likelihood, res.iterations, res.certificate)


def test_resample_that_empties_a_setting_still_fits(monkeypatch):
    """Ideal source, 10 shots per setting, seed 10: a Poisson resample empties
    a setting, and every resample's warm-started fit still converges."""
    ts = run_tomography(SimContext.ideal(), shots=10, seed=10)
    fits, emptied = [], []

    def recorded(t, **kwargs):
        emptied.append(bool(np.any(t.counts.sum(axis=1) == 0.0)))
        fits.append(mle_reconstruct(t, **kwargs))
        return fits[-1]

    monkeypatch.setattr(experiments, "mle_reconstruct", recorded)
    report, _ = tomography_report(ts, n_resamples=25, seed=11)
    assert len(fits) == 26 and any(emptied)
    assert all(fit.converged for fit in fits)
    assert report.mle_converged
    assert 0.0 < report.fidelity_error < 0.1 and 0.0 < report.purity_error < 0.1


class TestMonteCarloError:
    def test_constant_statistic_zero(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=50, seed=0)
        assert monte_carlo_error(ts, lambda _: 3.14, 10, seed=1) == 0.0

    def test_sqrt_n_law(self):
        counts = np.zeros((81, 16))
        counts[:, 0] = 1e4
        ts = tomo(counts)
        err = monte_carlo_error(ts, lambda t: t.counts[0][0], 200, seed=2)
        assert err == pytest.approx(100.0, rel=0.10)

    def test_error_scales_with_counts(self):
        def build(scale):
            counts = np.zeros((81, 16))
            counts[:, 0] = 100.0 * scale
            return tomo(counts)

        stat = lambda t: t.counts[0][0]
        e1 = monte_carlo_error(build(1), stat, 300, seed=5)
        e100 = monte_carlo_error(build(100), stat, 300, seed=5)
        assert e100 / e1 == pytest.approx(10.0, rel=0.15)

    def test_deterministic_given_seed(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=50, seed=0)
        stat = lambda t: float(t.counts[0].sum())
        assert monte_carlo_error(ts, stat, 20, seed=7) == \
            monte_carlo_error(ts, stat, 20, seed=7)

    def test_tuple_statistic_matches_separate_runs(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=50, seed=0)
        first = lambda t: float(t.counts[0][0])
        total = lambda t: float(t.counts[5].sum()) / 3.0
        both = monte_carlo_error(ts, lambda t: (first(t), total(t)), 20, seed=7)
        assert both == (monte_carlo_error(ts, first, 20, seed=7),
                        monte_carlo_error(ts, total, 20, seed=7))

    def test_resample_r_is_one_draw_from_child_r(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=50, seed=0)
        drawn = []

        def record(t):
            drawn.append(t.counts)
            return 0.0

        monte_carlo_error(ts, record, 4, seed=7)
        children = np.random.SeedSequence(7).spawn(4)
        assert len(drawn) == 4
        for r, counts in enumerate(drawn):
            expected = np.random.default_rng(children[r]).poisson(ts.counts)
            assert np.array_equal(counts, expected)

    def test_report_errors_match_two_pass_computation(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=450, seed=3)
        report, mle = tomography_report(ts, n_resamples=3, seed=11)
        start = 0.98 * mle.rho + 0.02 * np.eye(16) / 16
        fid = monte_carlo_error(
            ts, lambda t: fidelity_to_pure(mle_reconstruct(t, start=start).rho, ghz4()),
            3, 11)
        pur = monte_carlo_error(
            ts, lambda t: purity(mle_reconstruct(t, start=start).rho), 3, 11)
        assert report.fidelity_error == fid
        assert report.purity_error == pur


class TestMaxFidelityOverPhase:
    def test_rotated_target_recovered(self):
        v = ghz4(0.3)
        theta, f = max_fidelity_over_phase(np.outer(v, v.conj()))
        assert theta == pytest.approx(0.3, abs=1e-12)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_dephased_mixture_tie_break(self):
        va, vb = ghz4(0.0), ghz4(math.pi)
        rho = (np.outer(va, va.conj()) + np.outer(vb, vb.conj())) / 2
        theta, f = max_fidelity_over_phase(rho)
        assert theta == 0.0
        assert f == pytest.approx(0.5, abs=1e-12)

    def test_zero_phase_target(self):
        v = ghz4()
        theta, f = max_fidelity_over_phase(np.outer(v, v.conj()))
        assert theta == pytest.approx(0.0, abs=1e-12)
        assert f == pytest.approx(1.0, abs=1e-12)

    def test_real_coherence_gives_positive_zero(self):
        v = ghz4()
        theta, _ = max_fidelity_over_phase(np.outer(v, v.conj()))
        assert math.copysign(1.0, theta) == 1.0 and theta == 0.0
