import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab.analysis import (MeasurementRecord, TomographySet, bell_settings,
                             bell_value, expectation, fit_phase_scan,
                             linear_inversion, max_fidelity_over_phase,
                             mle_reconstruct, monte_carlo_error, phase_witness,
                             stabilizer_witness, tomography_settings,
                             _FRAME, _frame_adjoint, _frame_sum, _log_likelihood)
from ghzlab.config import default_config, parse_config
from ghzlab.errors import FitError
from ghzlab.experiments import (SimContext, measurement_record, run_bell,
                                run_phase_scan, run_tomography, run_witness,
                                tomography_report)
from ghzlab.qmath import PauliLabel, fidelity_to_pure, ghz4, purity

from oracles import (born_probabilities, ghz_state, mle_log_likelihood,
                     oracle_fit_phase_scan, oracle_linear_inversion,
                     oracle_projector_vectors)

SQRT2 = math.sqrt(2)


def record_from_state(settings, tokens, state=None, scale=1.0):
    probs = born_probabilities(ghz_state() if state is None else state, tokens)
    return MeasurementRecord(settings=settings, counts=probs * scale)


class TestExpectation:
    def test_ideal_zzzz(self):
        rec = record_from_state((PauliLabel.Z,) * 4, ["z"] * 4)
        assert expectation(rec) == pytest.approx(1.0, abs=1e-12)

    def test_ideal_xxxx(self):
        rec = record_from_state((PauliLabel.X,) * 4, ["x"] * 4)
        assert expectation(rec) == pytest.approx(1.0, abs=1e-12)

    def test_masked_pair_anticorrelated(self):
        rec = record_from_state((PauliLabel.Z,) * 4, ["z"] * 4)
        mask = (False, False, True, True)
        assert expectation(rec, identity_mask=mask) == pytest.approx(-1.0, abs=1e-12)

    def test_all_masked_returns_one(self):
        rng = np.random.default_rng(0)
        rec = MeasurementRecord((PauliLabel.Z,) * 4, rng.uniform(0, 10, 16))
        assert expectation(rec, identity_mask=(True,) * 4) == pytest.approx(1.0)

    def test_negative_label_flips(self):
        # -X on party 2: outcome 0 marks the -1 eigenstate of X there
        rec = record_from_state((PauliLabel.X, PauliLabel.MINUS_X,
                                 PauliLabel.X, PauliLabel.X),
                                ["x", "-x", "x", "x"])
        assert expectation(rec) == pytest.approx(1.0, abs=1e-12)

    def test_zero_counts_rejected(self):
        rec = MeasurementRecord((PauliLabel.Z,) * 4, np.zeros(16))
        with pytest.raises(ValueError):
            expectation(rec)


class TestPhaseWitness:
    def test_ideal_maximum(self, ideal_ctx):
        rec = measurement_record(ideal_ctx,
                                 (PauliLabel.XPZ, PauliLabel.MINUS_X,
                                  PauliLabel.X, PauliLabel.MINUS_X))
        assert phase_witness(rec) == pytest.approx(SQRT2 / 2, abs=1e-12)

    def test_quarter_phase_zero(self, ideal_ctx):
        ctx = ideal_ctx.with_state_phase(math.pi / 2)
        rec = measurement_record(ctx, (PauliLabel.XPZ, PauliLabel.MINUS_X,
                                       PauliLabel.X, PauliLabel.MINUS_X))
        assert phase_witness(rec) == pytest.approx(0.0, abs=1e-12)

    def test_wrong_settings_rejected(self):
        rec = record_from_state((PauliLabel.X,) * 4, ["x"] * 4)
        with pytest.raises(ValueError):
            phase_witness(rec)


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
    ], ids=["two-distinct-powers", "nan-power", "inf-witness", "inf-power",
            "mean-overflows", "span-overflows", "subnormal-span", "near-two-powers"])
    def test_degenerate_scan_rejected(self, points):
        with pytest.raises(FitError):
            fit_phase_scan(points)

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

    @pytest.mark.parametrize("n, uneven, limit_mib", [(5000, False, 4.0), (300, True, 16.0)],
                             ids=["even-5000", "uneven-300"])
    def test_large_scan_memory(self, n, uneven, limit_mib):
        """The search holds O(n) values at a time (a fixed block on an uneven scan), not
        one per grid frequency and point."""
        rng = np.random.default_rng(3)
        powers = np.sort(rng.uniform(28.0, 78.0, n)) if uneven else np.linspace(28.0, 78.0, n)
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
           layout=st.sampled_from(["even", "repeated", "near-repeated", "jittered"]))
    def test_noise_free_recovery(self, n, spacing, start, amp, band_fraction, offset, layout):
        # Repeated powers, and powers within 1e-9 of the span of each other,
        # are binned on the even grid; a jitter of 1e-4 of a gap takes the
        # scan off that grid, to the direct sums.
        a = band_fraction * math.pi / spacing
        rng = np.random.default_rng(n)
        powers = start + spacing * np.arange(n)
        if layout != "even":
            jitter = 1e-4 if layout == "jittered" else 1e-11 if layout == "near-repeated" else 0.0
            powers = np.repeat(powers, 1 if layout == "jittered" else 2)
            powers += jitter * spacing * rng.uniform(-1.0, 1.0, len(powers))
        fit = fit_phase_scan([(p, amp * math.cos(a * p + offset)) for p in powers])
        assert fit.amplitude == pytest.approx(amp, rel=1e-9)
        assert fit.rad_per_unit == pytest.approx(a, rel=1e-9)
        assert math.cos(a * fit.power_at_max + offset) == pytest.approx(1.0, abs=1e-9)
        assert -math.pi < fit.phase_offset <= math.pi

    @pytest.mark.parametrize("case", (
        [(ctx, seed) for ctx in ("ideal", "default") for seed in (None, 1, 2, 3, 4, 5)]
        + [("synthetic", seed) for seed in range(30)]
        + [("uneven", seed) for seed in range(10)]),
        ids=lambda case: f"{case[0]}-{'exact' if case[1] is None else case[1]}")
    def test_residual_not_above_oracle(self, case):
        """Never a worse least-squares residual than the 40-start ``curve_fit``."""
        kind, seed = case
        if kind in ("synthetic", "uneven"):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 40))
            span = rng.uniform(10.0, 80.0)
            powers = (np.sort(rng.uniform(0.0, span, n)) if kind == "uneven"
                      else np.linspace(0.0, span, n)) + rng.uniform(0.0, 60.0)
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
        rec_x = record_from_state((PauliLabel.X,) * 4, ["x"] * 4)
        rec_z = record_from_state((PauliLabel.Z,) * 4, ["z"] * 4)
        result = stabilizer_witness(rec_x, rec_z)
        assert result.value == pytest.approx(-1.0, abs=1e-12)
        assert result.fidelity_lower_bound == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        uniform = np.full(16, 1 / 16)
        rec_x = MeasurementRecord((PauliLabel.X,) * 4, uniform)
        rec_z = MeasurementRecord((PauliLabel.Z,) * 4, uniform)
        result = stabilizer_witness(rec_x, rec_z)
        assert result.value == pytest.approx(7 / 4, abs=1e-12)

    def test_wrong_settings(self):
        rec = record_from_state((PauliLabel.Y,) * 4, ["y"] * 4)
        rec_z = record_from_state((PauliLabel.Z,) * 4, ["z"] * 4)
        with pytest.raises(ValueError):
            stabilizer_witness(rec, rec_z)

    def test_bound_holds_against_tomography(self, noise_ctx):
        wit = run_witness(noise_ctx)
        ts = run_tomography(noise_ctx)
        f_tomo = fidelity_to_pure(mle_reconstruct(ts).rho, ghz4())
        assert wit.fidelity_lower_bound <= f_tomo + 1e-6


class TestBell:
    def _ideal_records(self):
        token_map = {PauliLabel.XPZ: "x+z", PauliLabel.XMZ: "x-z",
                     PauliLabel.MINUS_X: "-x", PauliLabel.MINUS_Z: "-z",
                     PauliLabel.X: "x", PauliLabel.Z: "z", PauliLabel.I: "z"}
        records = []
        for settings in bell_settings():
            tokens = [token_map[lab] for lab in settings]
            records.append(record_from_state(settings, tokens))
        return records

    def test_ideal_maximal_violation(self):
        result = bell_value(self._ideal_records())
        assert result.value == pytest.approx(6 * SQRT2, abs=1e-9)
        expected = (-1 / SQRT2,) * 3 + (1 / SQRT2,) * 5
        assert np.allclose(result.expectations, expected, atol=1e-9)

    def test_dephased_mixture_no_violation(self):
        rho_a = ghz_state(0.0)
        rho_b = ghz_state(math.pi)  # mixing the two phases kills the coherence
        token_map = {PauliLabel.XPZ: "x+z", PauliLabel.XMZ: "x-z",
                     PauliLabel.MINUS_X: "-x", PauliLabel.MINUS_Z: "-z",
                     PauliLabel.X: "x", PauliLabel.Z: "z", PauliLabel.I: "z"}
        records = []
        for settings in bell_settings():
            tokens = [token_map[lab] for lab in settings]
            pa = born_probabilities(rho_a, tokens)
            pb = born_probabilities(rho_b, tokens)
            records.append(MeasurementRecord(settings, (pa + pb) / 2))
        result = bell_value(records)
        assert result.value == pytest.approx(6 / SQRT2, abs=1e-9)

    def test_shot_noise_error(self):
        records = [MeasurementRecord(s, record_from_state(s, t).counts * 1000)
                   for s, t in zip(bell_settings(),
                                   [["x-z", "-z", "z", "z"], ["x-z", "z", "z", "z"],
                                    ["x-z", "z", "z", "-z"], ["x+z", "-z", "z", "z"],
                                    ["x+z", "z", "z", "z"], ["x+z", "z", "z", "-z"],
                                    ["x+z", "-x", "x", "-x"], ["x-z", "-x", "x", "-x"]])]
        result = bell_value(records)
        assert result.standard_error > 0.0
        coeff = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 3.0, 3.0])
        e = np.array(result.expectations)
        expected = math.sqrt(float(np.sum(coeff ** 2 * (1.0 - e ** 2))) / 1000)
        assert result.standard_error == pytest.approx(expected, rel=1e-12)
        assert bell_value(records, exact=True).standard_error == 0.0

    def test_wrong_settings_rejected(self):
        records = self._ideal_records()
        records[0] = record_from_state((PauliLabel.X,) * 4, ["x"] * 4)
        with pytest.raises(ValueError):
            bell_value(records)

    def test_simulated_ideal_matches(self, ideal_ctx):
        result = run_bell(ideal_ctx)
        assert result.value == pytest.approx(6 * SQRT2, abs=1e-9)


class TestTomographySettings:
    def test_count_and_order(self):
        settings = tomography_settings()
        assert len(settings) == 81
        assert settings[0] == (PauliLabel.X,) * 4
        assert settings[-1] == (PauliLabel.Z,) * 4
        assert len(set(settings)) == 81


class TestTomographySet:
    @pytest.mark.parametrize("counts", [
        np.ones((81, 15)),
        np.ones(81 * 16),
        np.where(np.arange(81 * 16).reshape(81, 16) == 7, np.nan, 1.0),
        np.where(np.arange(81 * 16).reshape(81, 16) == 7, np.inf, 1.0),
        np.where(np.arange(81 * 16).reshape(81, 16) == 7, -1.0, 1.0),
    ], ids=["shape-81x15", "flat", "nan", "inf", "negative"])
    def test_constructor_rejects(self, counts):
        with pytest.raises(ValueError):
            TomographySet(counts)

    def test_counts_are_a_read_only_float_copy(self):
        source = np.ones((81, 16), dtype=int)
        ts = TomographySet(source)
        assert ts.counts.dtype == float
        with pytest.raises(ValueError):
            ts.counts[0, 0] = 5.0
        source[0, 0] = 5
        assert ts.counts[0, 0] == 1.0

    def test_has_exactly_one_field(self):
        assert [f.name for f in fields(TomographySet)] == ["counts"]


class TestTomographySetSerialization:
    def test_json_round_trip(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=30, seed=12)
        data = ts.to_json_dict()
        assert [tuple(PauliLabel.from_token(t) for t in item["settings"])
                for item in data["records"]] == tomography_settings()
        back = TomographySet.from_json_dict(data)
        assert np.array_equal(ts.counts, back.counts)

    def test_out_of_order_settings_rejected(self, ideal_ctx):
        data = run_tomography(ideal_ctx, shots=30, seed=12).to_json_dict()
        records = data["records"]
        records[0], records[1] = records[1], records[0]
        with pytest.raises(ValueError, match="design order"):
            TomographySet.from_json_dict(data)

    def test_missing_setting_rejected(self, ideal_ctx):
        data = run_tomography(ideal_ctx, shots=30, seed=12).to_json_dict()
        del data["records"][40]
        with pytest.raises(ValueError, match="design order"):
            TomographySet.from_json_dict(data)


class TestTomographyDesign:
    """The per-party frame helpers against the design's kets, built outcome by outcome."""

    def test_adjoint_matches_oracle_kets(self):
        v, _ = oracle_projector_vectors(TomographySet(np.ones((81, 16))))
        rng = np.random.default_rng(21)
        for _ in range(3):
            a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
            rho = a @ a.conj().T / np.trace(a @ a.conj().T).real
            expected = np.einsum("ik,ij,jk->k", v.conj(), rho, v).real
            assert np.max(np.abs(_frame_adjoint(rho).ravel() - expected)) <= 1e-14

    def test_frame_sum_matches_oracle_kets(self):
        v, _ = oracle_projector_vectors(TomographySet(np.ones((81, 16))))
        rng = np.random.default_rng(22)
        for _ in range(3):
            w = rng.uniform(0.0, 1.0, (81, 16))
            expected = (v * w.ravel()) @ v.conj().T
            assert np.max(np.abs(_frame_sum(w, _FRAME) - expected)) <= 1e-13


class TestLinearInversion:
    def test_matches_oracle_on_random_counts(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            ts = TomographySet(rng.uniform(0, 50, (81, 16)))
            assert np.max(np.abs(linear_inversion(ts)
                                 - oracle_linear_inversion(ts))) <= 1e-12

    def test_exact_ideal_probabilities(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, effective_counts=1.0)
        rho = linear_inversion(ts)
        target = np.outer(ghz4(), ghz4().conj())
        assert np.max(np.abs(rho - target)) < 1e-10

    def test_uniform_counts_give_identity(self):
        rho = linear_inversion(TomographySet(np.full((81, 16), 10.0)))
        assert np.max(np.abs(rho - np.eye(16) / 16)) < 1e-12

    def test_trace_one_for_arbitrary_counts(self):
        rng = np.random.default_rng(5)
        rho = linear_inversion(TomographySet(rng.uniform(0, 50, (81, 16))))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)

    def test_incomplete_set_rejected(self):
        with pytest.raises(ValueError):
            TomographySet(np.ones((80, 16)))

    def test_setting_without_events_is_a_fit_error(self):
        counts = np.ones((81, 16))
        counts[tomography_settings().index(
            (PauliLabel.X, PauliLabel.Y, PauliLabel.Z, PauliLabel.X))] = 0.0
        with pytest.raises(FitError, match="XYZX"):
            linear_inversion(TomographySet(counts))


class TestMle:
    def test_exact_ideal_reaches_unit_fidelity(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, effective_counts=1e6)
        res = mle_reconstruct(ts)
        assert res.converged
        assert fidelity_to_pure(res.rho, ghz4()) >= 0.9999
        assert purity(res.rho) >= 0.9999

    def test_uniform_counts_give_near_identity(self):
        res = mle_reconstruct(TomographySet(np.full((81, 16), 1000.0)))
        dist = 0.5 * np.abs(np.linalg.eigvalsh(res.rho - np.eye(16) / 16)).sum()
        assert dist < 1e-3

    def test_likelihood_not_below_initializer(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=200, seed=3)
        from ghzlab.qmath import project_to_physical
        rho_init = project_to_physical(linear_inversion(ts))
        w, v = np.linalg.eigh(rho_init)
        w = np.clip(w, 1e-8, None)
        w /= w.sum()
        rho_init = (v * w) @ v.conj().T
        res = mle_reconstruct(ts)
        assert res.log_likelihood >= mle_log_likelihood(ts, rho_init) - 1e-6

    def test_analytic_gradient_matches_finite_difference(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=100, seed=9)
        counts, n_total = ts.counts, ts.counts.sum()
        rng = np.random.default_rng(2)
        t = np.tril(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
        t += 4 * np.eye(16)

        def loglik(tmat):
            unnormalized = tmat @ tmat.conj().T
            return _log_likelihood(counts, _frame_adjoint(unnormalized),
                                   np.trace(unnormalized).real, n_total)

        s = np.trace(t @ t.conj().T).real
        ratio = counts / _frame_adjoint(t @ t.conj().T)
        grad = np.tril(_frame_sum(ratio, _FRAME) @ t - (n_total / s) * t)

        eps = 1e-7
        rng2 = np.random.default_rng(3)
        for _ in range(6):
            i, j = rng2.integers(0, 16, 2)
            if i < j:
                i, j = j, i
            for direction, part in ((1.0, "re"), (1j, "im")):
                dt = np.zeros((16, 16), dtype=complex)
                dt[i, j] = direction * eps
                fd = (loglik(t + dt) - loglik(t - dt)) / (2 * eps)
                # d/dx f = 2*Re(grad * d(conj T)/dx): for real perturbation
                # conj moves along +1, for imaginary along -1j
                analytic = 2 * (grad[i, j].real if part == "re" else grad[i, j].imag)
                assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-4)

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

    def test_gradient_residual_small_at_convergence(self, ideal_ctx):
        res = mle_reconstruct(run_tomography(ideal_ctx, effective_counts=1e6))
        assert res.converged
        assert 0.0 <= res.gradient_residual < 1e-4

    def test_gradient_residual_larger_when_capped(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=300, seed=4)
        capped = mle_reconstruct(ts, max_iterations=2)
        full = mle_reconstruct(ts)
        assert capped.gradient_residual > 10.0 * full.gradient_residual


class TestMonteCarloError:
    def test_constant_statistic_zero(self, ideal_ctx):
        ts = run_tomography(ideal_ctx, shots=50, seed=0)
        assert monte_carlo_error(ts, lambda _: 3.14, 10, seed=1) == 0.0

    def test_sqrt_n_law(self):
        counts = np.zeros((81, 16))
        counts[:, 0] = 1e4
        ts = TomographySet(counts)
        err = monte_carlo_error(ts, lambda t: t.counts[0][0], 200, seed=2)
        assert err == pytest.approx(100.0, rel=0.10)

    def test_error_scales_with_counts(self):
        def build(scale):
            counts = np.zeros((81, 16))
            counts[:, 0] = 100.0 * scale
            return TomographySet(counts)

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
        report, _ = tomography_report(ts, n_resamples=3, seed=11)
        fid = monte_carlo_error(
            ts, lambda t: fidelity_to_pure(mle_reconstruct(t).rho, ghz4()), 3, 11)
        pur = monte_carlo_error(ts, lambda t: purity(mle_reconstruct(t).rho), 3, 11)
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
