import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ghzlab.qmath import (PauliLabel, check_density_matrix, fidelity_to_pure, ghz4,
                          pauli_operator, permanent, project_to_physical, purity)

from oracles import ghz_state, oracle_clamp_projection, permanent_by_permutations


class TestPermanent:
    def test_identity_2x2(self):
        assert permanent(np.eye(2)) == pytest.approx(1.0)

    def test_all_ones_2x2(self):
        assert permanent(np.ones((2, 2))) == pytest.approx(2.0)

    def test_all_ones_3x3(self):
        # naive expansion gives 3! = 6
        m = np.ones((3, 3))
        assert permanent_by_permutations(m) == pytest.approx(6.0)
        assert permanent(m) == pytest.approx(6.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_factorial_expansion(self, n):
        rng = np.random.default_rng(42 + n)
        for _ in range(100):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            table = permanent(m)
            naive = permanent_by_permutations(m)
            assert abs(table - naive) <= 1e-12 * max(abs(naive), 1.0)

    def test_row_multilinearity(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            c = complex(rng.normal(), rng.normal())
            scaled = m.copy()
            i = rng.integers(0, 4)
            scaled[i] *= c
            assert permanent(scaled) == pytest.approx(c * permanent(m), rel=1e-10)

    @pytest.mark.parametrize("n", range(9))
    def test_closed_forms(self, n):
        # perm(u v^T) = n! prod(u) prod(v); perm(diag(d)) = prod(d)
        rng = np.random.default_rng(70 + n)
        u, v, d = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(3))
        expected = math.factorial(n) * np.prod(u) * np.prod(v)
        assert abs(permanent(np.outer(u, v)) - expected) <= 1e-12 * max(abs(expected), 1.0)
        assert abs(permanent(np.diag(d)) - np.prod(d)) <= 1e-14 * max(abs(np.prod(d)), 1.0)

    def test_more_than_eight_rejected(self):
        with pytest.raises(ValueError, match="n <= 8"):
            permanent(np.ones((9, 9)))
        with pytest.raises(ValueError, match="n <= 8"):
            permanent(np.ones((2, 9, 9)))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            permanent(np.ones((2, 3)))
        with pytest.raises(ValueError):
            permanent(np.ones((4, 2, 3)))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_stack_matches_each_matrix(self, n):
        rng = np.random.default_rng(90 + n)
        stack = rng.normal(size=(3, 5, n, n)) + 1j * rng.normal(size=(3, 5, n, n))
        perms = permanent(stack)
        assert perms.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            assert perms[idx] == permanent(stack[idx])
            assert abs(perms[idx] - permanent_by_permutations(stack[idx])) <= \
                1e-12 * max(abs(perms[idx]), 1.0)


class TestPauliOperator:
    def test_single_z(self):
        assert np.allclose(pauli_operator([PauliLabel.Z]), np.diag([1, -1]))

    def test_xxxx_stabilizes_target_state(self):
        op = pauli_operator([PauliLabel.X] * 4)
        v = ghz4()
        assert np.allclose(op @ v, v, atol=1e-12)

    def test_minus_zz_stabilizes_target_state(self):
        op = pauli_operator([PauliLabel.MINUS_Z, PauliLabel.Z,
                             PauliLabel.I, PauliLabel.I])
        v = ghz4()
        assert np.allclose(op @ v, v, atol=1e-12)

    @pytest.mark.parametrize("label", [lab for lab in PauliLabel
                                       if lab is not PauliLabel.I])
    def test_hermitian_and_squares_to_identity(self, label):
        m = label.matrix
        assert np.allclose(m, m.conj().T)
        assert np.allclose(m @ m, np.eye(2), atol=1e-12)


class TestFidelityPurity:
    def test_projector_fidelity_one(self):
        v = ghz4()
        rho = np.outer(v, v.conj())
        assert fidelity_to_pure(rho, v) == pytest.approx(1.0)

    def test_maximally_mixed(self):
        rho = np.eye(16) / 16
        assert fidelity_to_pure(rho, ghz4()) == pytest.approx(1 / 16)
        assert purity(rho) == pytest.approx(1 / 16)

    def test_pure_state_purity_one(self):
        v = ghz4(0.4)
        assert purity(np.outer(v, v.conj())) == pytest.approx(1.0)

    def test_fidelity_in_range_random(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            rho = a @ a.conj().T
            rho /= np.trace(rho).real
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
            f = fidelity_to_pure(rho, psi)
            assert -1e-12 <= f <= 1.0 + 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_to_pure(np.eye(4) / 4, ghz4())


class TestProjectToPhysical:
    def test_valid_state_unchanged(self):
        v = ghz_state(0.3)
        rho = np.outer(v, v.conj()) * 0.7 + np.eye(16) / 16 * 0.3
        out = project_to_physical(rho)
        assert np.max(np.abs(out - rho)) < 1e-12

    def test_clamp_and_renormalize(self):
        out = project_to_physical(np.diag([1.5, -0.5]))
        assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-14)

    def test_eigenvalues_shift_before_clamp(self):
        # simplex projection of (0.7, 0.5, -0.2): shift by 0.1, clamp the last
        out = project_to_physical(np.diag([0.7, 0.5, -0.2]))
        assert np.allclose(out, np.diag([0.6, 0.4, 0.0]), atol=1e-14)

    def test_no_farther_than_the_clamp(self):
        """The simplex projection is the Frobenius-nearest density matrix, so it
        is never farther from the input than clamping and renormalizing."""
        rng = np.random.default_rng(11)
        for scale in (0.02, 0.1, 0.5):
            for _ in range(20):
                a = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
                h = np.eye(16) / 16 + scale * (a + a.conj().T) / 8
                h -= np.eye(16) * (np.trace(h).real - 1.0) / 16
                out = project_to_physical(h)
                assert np.linalg.eigvalsh(out).min() >= -1e-15
                assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)
                assert (np.linalg.norm(out - h)
                        <= np.linalg.norm(oracle_clamp_projection(h) - h) + 1e-14)

    def test_eigenvalue_floor(self):
        v = ghz_state()
        out = project_to_physical(np.outer(v, v.conj()), min_eigenvalue=1e-8)
        w = np.linalg.eigvalsh(out)
        assert w.min() == pytest.approx(1e-8, rel=1e-6)
        assert w.max() == pytest.approx(1.0 - 15e-8, abs=1e-14)
        with pytest.raises(ValueError):
            project_to_physical(np.eye(4) / 4, min_eigenvalue=0.25)

    def test_small_perturbation_stays_close(self):
        rng = np.random.default_rng(3)
        v = ghz_state()
        rho = np.outer(v, v.conj())
        delta = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        delta = (delta + delta.conj().T) / 2
        delta *= 1e-3 / np.linalg.norm(delta)
        out = project_to_physical(rho + delta - np.eye(16) * np.trace(delta).real / 16)
        # trace distance via eigenvalues of the difference
        dist = 0.5 * np.abs(np.linalg.eigvalsh(out - rho)).sum()
        assert dist < 2e-3

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = (a + a.conj().T) / 2
        once = project_to_physical(h)
        twice = project_to_physical(once)
        assert np.max(np.abs(once - twice)) < 1e-12
        assert np.trace(once).real == pytest.approx(1.0)

    @pytest.mark.parametrize("floor", [0.0, 1e-8])
    def test_huge_eigenvalue_projects(self, floor):
        # the largest eigenvalue minus the unit trace rounds to itself, so
        # the shift is found from the gaps below it
        q, _ = np.linalg.qr(np.random.default_rng(8).normal(size=(16, 16)))
        rotated = q @ np.diag([1e17, -1e17] + [3.0] * 14) @ q.T
        for h in (np.diag([1e17] + [0.0] * 15), np.diag([1e300, -1e300] + [3.0] * 14),
                  (rotated + rotated.T) / 2):
            out = project_to_physical(h, min_eigenvalue=floor)
            w = np.linalg.eigvalsh(out)
            assert np.trace(out).real == pytest.approx(1.0, abs=1e-14)
            assert w.min() >= floor - 1e-15
            assert w.max() == pytest.approx(1.0 - 15 * floor, abs=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(-300.0, 300.0)),
                    min_size=1, max_size=16),
           st.integers(0, 2 ** 32 - 1), st.sampled_from((0.0, 1e-9)))
    def test_any_eigenvalue_scale_projects(self, eigenvalues, seed, floor):
        rng = np.random.default_rng(seed)
        n = len(eigenvalues)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        h = (q * [sign * 10.0 ** e for sign, e in eigenvalues]) @ q.conj().T
        out = project_to_physical((h + h.conj().T) / 2, min_eigenvalue=floor)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.eigvalsh(out).min() >= floor - 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 16).flatmap(
        lambda n: arrays(float, (2, n, n), elements=st.floats(-1e308, 1e308))))
    def test_any_finite_hermitian_projects_or_raises(self, parts):
        """A density matrix, or ValueError: above the documented bound, or
        from an eigendecomposition that does not converge (a 12 x 12 matrix
        of ones and 5.3e227 is one); never a warning."""
        re, im = np.triu(parts[0]), np.triu(parts[1], 1)
        h = np.empty(re.shape, dtype=complex)
        h.real = re + np.triu(re, 1).T
        h.imag = im - im.T
        n = len(h)
        above = max(np.abs(re).max(), np.abs(im).max()) > np.finfo(float).max / (4 * n * n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if above:
                with pytest.raises(ValueError, match="entries <="):
                    project_to_physical(h)
            else:
                try:
                    check_density_matrix(project_to_physical(h))
                except np.linalg.LinAlgError:
                    pass

    def test_negative_input_gives_maximally_mixed(self):
        out = project_to_physical(-np.eye(4))
        assert np.allclose(out, np.eye(4) / 4, atol=1e-15)

    @pytest.mark.parametrize("h, message", [
        ([[0.5, 1.0], [0.0, 0.5]], "not a finite Hermitian matrix"),
        ([[np.nan, 0.0], [0.0, 1.0]], "not a finite Hermitian matrix"),
        ([[np.inf, 0.0], [0.0, 1.0]], "not a finite Hermitian matrix"),
        (np.zeros((0, 0)), "expected a nonempty square matrix"),
        (np.diag([1e308, -1e308, 0.0, 1.0]), "entries <= 2.81e"),
        ([[0.0, 1e308], [1e308, 0.0]], "entries <= 1.12e"),
    ], ids=["non-hermitian", "nan", "inf", "empty", "gap-overflow", "eigenvalue-overflow"])
    def test_invalid_input_rejected(self, h, message):
        with pytest.raises(ValueError, match=message):
            project_to_physical(np.array(h))
