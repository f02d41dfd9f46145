import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ghzlab.chip import (HeaterCalibration, PreparationStage, full_unitary,
                         heater_forward, heater_solve, measurement_unitary,
                         mzi_block, preparation_unitary, state_phase_of, _solve_block)
from ghzlab.config import default_config, parse_config
from ghzlab.errors import SolverError
from ghzlab.experiments import run_bell_sweep, run_phase_scan, run_tomography
from ghzlab.qmath import PauliLabel
from ghzlab.simulator import DetectorModel, outcome_distribution
from ghzlab.source import MEASURED_PAIRS, SourceSpec

from oracles import (assignment_distribution, mzi_measurement, mzi_phase_unitary,
                     mzi_reference, oracle_heater_block, oracle_lift0_dual,
                     oracle_vertex_block, preparation_matrix_reference)

TWO_PI = 2 * math.pi

# +1 eigenstates cos(chi)|0> + e^{i*psi} sin(chi)|1> as (chi, psi), one per
# label but I.
PROJECTOR_EIGENSTATE = {
    PauliLabel.X: (math.pi / 4, 0.0),
    PauliLabel.MINUS_X: (-math.pi / 4, 0.0),
    PauliLabel.Y: (math.pi / 4, math.pi / 2),
    PauliLabel.Z: (0.0, 0.0),
    PauliLabel.MINUS_Z: (math.pi / 2, 0.0),
    PauliLabel.XPZ: (math.pi / 8, 0.0),
    PauliLabel.XMZ: (3 * math.pi / 8, 0.0),
}


def label_block(label: PauliLabel) -> np.ndarray:
    """The 2x2 MZI block that ``measurement_unitary`` gives the first qubit."""
    return measurement_unitary((label,) * 4)[:2, :2]


def upper_click_probability(label: PauliLabel, state2: np.ndarray) -> float:
    """Probability that a single photon in ``state2`` exits on the upper output."""
    v = np.asarray(state2, dtype=complex).ravel()
    out = label_block(label) @ v
    return float(abs(out[0]) ** 2)


class TestPreparationUnitary:
    def test_balanced_zero_phase_matrix(self):
        u = preparation_unitary(PreparationStage())
        ref = preparation_matrix_reference([0.0] * 8)
        assert np.max(np.abs(u - ref)) < 1e-12

    def test_matches_reference_with_phases_and_reflectivities(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            theta = rng.uniform(-np.pi, np.pi)
            r = rng.uniform(0.4, 0.6, 4)
            stage = PreparationStage(state_phase=theta, reflectivities=tuple(r))
            reference = preparation_matrix_reference([0.0, theta] + [0.0] * 6, r)
            assert np.max(np.abs(preparation_unitary(stage) - reference)) < 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            stage = PreparationStage(state_phase=rng.uniform(0, TWO_PI),
                                     reflectivities=tuple(rng.uniform(0.3, 0.7, 4)))
            u = preparation_unitary(stage)
            assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-12

    def test_column_norms_measured_reflectivities(self):
        stage = PreparationStage(reflectivities=(0.499, 0.505, 0.490, 0.502))
        u = preparation_unitary(stage)
        assert np.allclose(np.linalg.norm(u, axis=0), 1.0, atol=1e-12)

    def test_reflectivity_out_of_range(self):
        with pytest.raises(ValueError):
            PreparationStage(reflectivities=(0.0, 0.5, 0.5, 0.5))


class TestMeasurementStage:
    @pytest.mark.parametrize("label", list(PROJECTOR_EIGENSTATE))
    def test_plus_eigenstate_clicks_upper(self, label):
        chi, psi = PROJECTOR_EIGENSTATE[label]
        state = np.array([math.cos(chi), np.exp(1j * psi) * math.sin(chi)])
        assert upper_click_probability(label, state) == pytest.approx(1.0, abs=1e-10)

    def test_projector_settings_table(self):
        assert np.array_equal(label_block(PauliLabel.Z), mzi_block(0.0, math.pi))
        assert np.array_equal(label_block(PauliLabel.X), mzi_block(0.0, math.pi / 2))
        assert np.array_equal(label_block(PauliLabel.XPZ), mzi_block(0.0, 3 * math.pi / 4))

    def test_identity_read_out_at_z(self):
        others = (PauliLabel.X, PauliLabel.Y, PauliLabel.XPZ, PauliLabel.MINUS_X)
        for k in range(4):
            with_i = list(others)
            with_i[k] = PauliLabel.I
            with_z = list(others)
            with_z[k] = PauliLabel.Z
            assert np.array_equal(measurement_unitary(with_i), measurement_unitary(with_z))

    def test_block_matches_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            a, p = rng.uniform(0, TWO_PI, 2)
            assert np.max(np.abs(mzi_block(a, p) - mzi_reference(a, p))) < 1e-12

    def test_block_diagonal_structure(self):
        u = measurement_unitary([PauliLabel.X, PauliLabel.Y, PauliLabel.XPZ,
                                 PauliLabel.MINUS_Z])
        mask = np.ones((8, 8), dtype=bool)
        for k in range(4):
            mask[2 * k:2 * k + 2, 2 * k:2 * k + 2] = False
        assert np.all(u[mask] == 0.0)

    def test_z_setting_routes_computational_states(self):
        block = label_block(PauliLabel.Z)
        assert abs(block[0, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)
        assert abs(block[1, 1]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_x_setting_on_plus_state(self):
        block = label_block(PauliLabel.X)
        plus = np.array([1.0, 1.0]) / math.sqrt(2)
        assert abs((block @ plus)[0]) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestFullUnitary:
    def test_unitary_random_settings(self):
        rng = np.random.default_rng(6)
        stage = PreparationStage()
        for _ in range(100):
            u = mzi_phase_unitary(stage, [rng.uniform(0, TWO_PI, 2) for _ in range(4)])
            assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-12

    def test_z_settings_concentrate_on_alternating_outcomes(self):
        u = full_unitary(PreparationStage(), (PauliLabel.Z,) * 4)
        probs = assignment_distribution(u)
        assert probs[0b0101] == pytest.approx(1 / 16, abs=1e-12)
        assert probs[0b1010] == pytest.approx(1 / 16, abs=1e-12)
        others = probs.sum() - probs[0b0101] - probs[0b1010]
        assert others == pytest.approx(0.0, abs=1e-12)

    def test_equals_measurement_after_preparation_bit_for_bit(self):
        rng = np.random.default_rng(28)
        labels = list(PauliLabel)
        for _ in range(20):
            stage = PreparationStage(state_phase=rng.uniform(0, TWO_PI),
                                     reflectivities=tuple(rng.uniform(0.1, 0.9, 4)))
            setting = [labels[k] for k in rng.integers(len(labels), size=4)]
            expected = measurement_unitary(setting) @ preparation_unitary(stage)
            assert full_unitary(stage, setting).tobytes() == expected.tobytes()


class TestStageOwnsUnitary:
    """The stage builds its preparation unitary once, on first use."""

    def test_bell_sweep_builds_once(self, preparation_calls):
        run_bell_sweep(parse_config(default_config()).context, 2,
                       (1.0, 0.75, 0.5, 0.25, 0.0))
        assert len(preparation_calls) == 1

    def test_phase_scan_builds_once_per_point(self, preparation_calls):
        run_phase_scan(parse_config(default_config()).context,
                       np.linspace(0.0, 12.0, 13), 0.2, 0.0)
        assert len(preparation_calls) == 13

    def test_tomography_builds_once(self, preparation_calls):
        run_tomography(parse_config(default_config()).context)
        assert len(preparation_calls) == 1

    def test_unitary_is_cached_and_read_only(self):
        stage = PreparationStage(state_phase=0.3)
        assert stage.unitary is stage.unitary
        assert stage.unitary.tobytes() == preparation_unitary(stage).tobytes()
        with pytest.raises(ValueError):
            stage.unitary[0, 0] = 1.0


def assignment_amplitudes(u: np.ndarray) -> tuple:
    """Amplitudes of the |0101> and |1010> assignments, straight from the
    entries of a preparation matrix."""
    return (u[0, 0] * u[3, 4] * u[4, 2] * u[7, 6],
            u[1, 2] * u[2, 0] * u[5, 6] * u[6, 4])


def assignment_phase(u: np.ndarray) -> float:
    """Phase of the |1010> assignment amplitude over the |0101> one."""
    a0101, a1010 = assignment_amplitudes(u)
    return float(np.angle(a1010 / a0101))


def wrapped(x: float) -> float:
    """``x`` wrapped to (-pi, pi]."""
    return float(np.angle(np.exp(1j * x)))


class TestStatePhase:
    def test_single_phase_pi_gives_state_phase_pi(self):
        assert abs(abs(state_phase_of((math.pi, 0, 0, 0, 0, 0, 0, 0))) - math.pi) < 1e-12

    def test_state_phase_matches_assignment_amplitudes(self):
        """The eight-phase reference matrix and the stage of its state phase
        give the two assignments the same relative phase."""
        rng = np.random.default_rng(10)
        for _ in range(10):
            th = rng.uniform(-math.pi, math.pi, 8)
            phase = state_phase_of(th)
            stage = PreparationStage(state_phase=phase)
            for u in (preparation_matrix_reference(th), stage.unitary):
                assert abs(wrapped(assignment_phase(u) - phase)) < 1e-12
                a0101, a1010 = assignment_amplitudes(u)
                assert abs(abs(a0101) - abs(a1010)) < 1e-12

    def test_with_state_phase_constructor(self):
        """`SimContext.with_state_phase` replaces the stage's state phase and
        keeps its reflectivities."""
        ctx = parse_config(default_config()).context
        for theta in (-2.5, -0.4, 0.0, 1.0, 3.0, 40.0):
            stage = ctx.with_state_phase(theta).stage
            assert stage == replace(ctx.stage, state_phase=theta)
            assert abs(wrapped(assignment_phase(stage.unitary) - theta)) < 1e-12

    def test_non_finite_state_phase_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="state phase must be finite"):
                PreparationStage(state_phase=value)

    def test_path_phase_gauge(self):
        """Only `state_phase_of` of the eight path phases reaches an outcome:
        on seeded random devices the eight-phase reference matrix and the
        stage of its state phase give the same post-selected outcomes, to
        1e-11 of the post-selected mass (inclusion-exclusion round-off)."""
        rng = np.random.default_rng(1)
        for _ in range(200):
            spec = SourceSpec(
                g2=rng.uniform(0.0, 0.2),
                measured_overlaps=dict(zip(MEASURED_PAIRS, rng.uniform(0.3, 1.0, 4))),
                eta=rng.uniform(0.01, 1.0),
                distinguishability_scale=tuple(rng.uniform(0.0, 1.0, 4)))
            r = rng.uniform(0.05, 0.95, 4)
            det = DetectorModel(efficiencies=tuple(rng.uniform(0.2, 1.0, 8)))
            th = rng.uniform(-50.0, 50.0, 8)
            mzi = [rng.uniform(0, TWO_PI, 2) for _ in range(4)]
            stage = PreparationStage(state_phase=state_phase_of(th), reflectivities=tuple(r))
            one_phase = mzi_phase_unitary(stage, mzi)
            eight_phases = mzi_measurement(mzi) @ preparation_matrix_reference(th, r)
            table = spec.enumeration.label_groups
            p1 = outcome_distribution(one_phase, table, det).probs
            p8 = outcome_distribution(eight_phases, table, det).probs
            assert np.max(np.abs(p1 - p8)) <= 1e-11 * p8.sum()


class TestHeaterForward:
    def test_zero_currents_give_offsets(self):
        cal = HeaterCalibration()
        alpha, phi = heater_forward(cal, np.zeros(16))
        assert np.allclose(alpha, 0.0)
        assert np.allclose(phi, [3.8656, 2.838, 0.798, 0.990])

    def test_first_channel_ten_milliamp(self):
        cal = HeaterCalibration()
        currents = np.zeros(16)
        currents[0] = 0.010
        alpha, _ = heater_forward(cal, currents)
        assert alpha[0] == pytest.approx(5.3031, abs=1e-9)
        assert alpha[1] == pytest.approx(0.2915, abs=1e-9)

    def test_quadratic_law(self):
        cal = HeaterCalibration()
        c1 = np.zeros(16)
        c1[3] = 0.012
        c2 = c1.copy()
        c2[3] *= 2
        a1, p1 = heater_forward(cal, c1)
        a2, p2 = heater_forward(cal, c2)
        assert np.allclose(a2, 4 * a1)
        assert np.allclose(p2 - cal.phi_offset, 4 * (p1 - cal.phi_offset))

    def test_dead_channel_rejected(self):
        cal = HeaterCalibration()
        currents = np.zeros(16)
        currents[14] = 0.001  # resistor 15
        with pytest.raises(ValueError):
            heater_forward(cal, currents)
        for bad in (np.nan, np.inf):
            currents = np.zeros(16)
            currents[0] = bad
            with pytest.raises(ValueError, match="finite"):
                heater_forward(cal, currents)


class TestHeaterSolve:
    def test_trivial_target(self):
        cal = HeaterCalibration()
        currents = heater_solve(cal, [0, 0, 0, 0], cal.phi_offset)
        assert np.allclose(currents, 0.0, atol=1e-9)

    def test_round_trip(self):
        cal = HeaterCalibration()
        rng = np.random.default_rng(8)
        for _ in range(3):
            currents = rng.uniform(0.0, 0.03, 16)
            currents[14] = 0.0
            alpha, phi = heater_forward(cal, currents)
            solved = heater_solve(cal, alpha, phi)
            alpha2, phi2 = heater_forward(cal, solved)
            da = np.abs(np.angle(np.exp(1j * (alpha2 - alpha)))).max()
            dp = np.abs(np.angle(np.exp(1j * (phi2 - phi)))).max()
            assert da < 1e-6 and dp < 1e-6

    def test_single_phi_bump_uses_dominant_resistors(self):
        cal = HeaterCalibration()
        target_phi = cal.phi_offset.copy()
        target_phi[0] += 1.0
        currents = heater_solve(cal, [0, 0, 0, 0], target_phi)
        _, phi = heater_forward(cal, currents)
        assert np.abs(np.angle(np.exp(1j * (phi - target_phi)))).max() < 1e-6
        powers = cal.resistances * currents ** 2
        assert 9 + int(np.argmax(powers[8:])) in (9, 10)

    def test_unreachable_target_raises(self):
        # nearly parallel rows: targets with the wrong ratio stay unreachable
        # under nonnegative currents for every 2*pi lift
        a = np.zeros((4, 8))
        a[0, :4] = [10.0, 10.0, 9.0, 9.0]
        a[1, :4] = [9.0, 9.0, 10.0, 10.0]
        a[2, 4:6] = 10.0
        a[3, 6:8] = 10.0
        cal = HeaterCalibration(alpha_matrix=a)
        with pytest.raises(SolverError):
            heater_solve(cal, [0.1, math.pi, 0.0, 0.0], cal.phi_offset)


    def test_fewer_live_channels_than_targets_raises(self):
        cal = HeaterCalibration(dead_channels=frozenset({1, 2, 3, 4, 5, 15}))
        with pytest.raises(SolverError):
            heater_solve(cal, [1.0, 2.0, 3.0, 4.0], cal.phi_offset)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=8, max_size=8),
           st.sampled_from([frozenset({15}), frozenset({3, 15})]))
    def test_any_finite_target_solves_or_raises_solver_error(self, targets, dead):
        cal = HeaterCalibration(dead_channels=dead)
        alpha_t, phi_t = np.array(targets[:4]), np.array(targets[4:])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                currents = heater_solve(cal, alpha_t, phi_t)
            except SolverError:
                return
            alpha, phi = heater_forward(cal, currents)
        assert np.all(currents >= 0.0) and np.all(currents[cal.dead_mask()] == 0.0)
        miss = np.angle(np.exp(1j * (np.concatenate([alpha, phi]) - targets)))
        assert np.abs(miss).max() <= 1e-6


def _heater_blocks(cal, alpha_target, phi_target):
    """(matrix, base, resistances, usable) of the alpha and phi blocks."""
    dead = cal.dead_mask()
    return [(cal.alpha_matrix, np.mod(alpha_target, TWO_PI), cal.resistances[:8],
             ~dead[:8]),
            (cal.phi_matrix, np.mod(phi_target - cal.phi_offset, TWO_PI),
             cal.resistances[8:], ~dead[8:])]


class TestHeaterSolveOracle:
    """Vertex enumeration over all lifts against one LP per lift vector."""

    def test_matches_oracle_small_lifts(self):
        cal = HeaterCalibration()
        rng = np.random.default_rng(31)
        for _ in range(10):
            blocks = _heater_blocks(cal, rng.uniform(0, TWO_PI, 4),
                                    rng.uniform(0, TWO_PI, 4))
            for block in blocks:
                assert np.array_equal(_solve_block(*block, max_lift=2),
                                      oracle_heater_block(*block, max_lift=2))

    def test_matches_oracle_full_lifts(self):
        cal = HeaterCalibration()
        rng = np.random.default_rng(32)
        alpha_t, phi_t = rng.uniform(0, TWO_PI, 4), rng.uniform(0, TWO_PI, 4)
        expected = np.sqrt(np.concatenate(
            [oracle_heater_block(*block) for block in _heater_blocks(cal, alpha_t, phi_t)]))
        assert np.array_equal(heater_solve(cal, alpha_t, phi_t), expected)

    def test_dead_channels_match_oracle_and_stay_off(self):
        cal = HeaterCalibration(dead_channels=frozenset({3, 15}))
        rng = np.random.default_rng(33)
        alpha_t, phi_t = rng.uniform(0, TWO_PI, 4), rng.uniform(0, TWO_PI, 4)
        for block in _heater_blocks(cal, alpha_t, phi_t):
            assert np.array_equal(_solve_block(*block, max_lift=2),
                                  oracle_heater_block(*block, max_lift=2))
        currents = heater_solve(cal, alpha_t, phi_t)
        assert currents[2] == 0.0 and currents[14] == 0.0
        alpha, phi = heater_forward(cal, currents)
        assert np.abs(np.angle(np.exp(1j * (alpha - alpha_t)))).max() < 1e-6
        assert np.abs(np.angle(np.exp(1j * (phi - phi_t)))).max() < 1e-6

    def test_dead_channels_reachable_targets_match_oracle(self):
        # every lift's LP reaches these targets, but a branch-and-bound
        # over u and the lifts together can stop at a point that misses them
        cal = HeaterCalibration(dead_channels=frozenset({3, 15}))
        alpha_t = np.array([3.6940040976435435, 4.652319908239959,
                            0.9384200757462816, 0.36140040109333854])
        phi_t = np.array([2.8989276862255293, 1.946945875016669,
                          0.5280263919227022, 1.093640597805258])
        for max_lift in (4, 2):
            for block in _heater_blocks(cal, alpha_t, phi_t):
                assert np.array_equal(_solve_block(*block, max_lift=max_lift),
                                      oracle_heater_block(*block, max_lift=max_lift))


def _solve_or_error(solve, block, max_lift):
    try:
        return solve(*block, max_lift=max_lift)
    except SolverError:
        return SolverError


def _assert_matches_vertex_oracle(block, max_lift):
    """`_solve_block` equals the einsum enumeration bit for bit, or both raise."""
    got = _solve_or_error(_solve_block, block, max_lift)
    want = _solve_or_error(oracle_vertex_block, block, max_lift)
    if want is SolverError:
        assert got is SolverError
    else:
        assert got is not SolverError and np.array_equal(got, want)


# Heater 1's current also raises qubit 4's alpha phase, which heater 8 can
# only pull back down; a 2*pi higher qubit-4 target is then cheaper to reach.
_CROSSTALK_UP = HeaterCalibration(alpha_matrix=np.array([
    [50.0, -50.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 50.0, -50.0, 0.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 50.0, -50.0, 0.0, 0.0],
    [40.0, 0.0, 0.0, 0.0, 0.0, 0.0, 50.0, -50.0],
]))


class TestVertexEnumeration:
    """Stacked matmuls over cached tables against the per-call einsum enumeration."""

    @pytest.mark.parametrize("dead", [{15}, {3, 15}, {1, 8, 15}, {2, 3, 4, 15}])
    @pytest.mark.parametrize("max_lift", [2, 4])
    def test_matches_einsum_oracle_bit_for_bit(self, dead, max_lift):
        cal = HeaterCalibration(dead_channels=frozenset(dead))
        rng = np.random.default_rng([34, max_lift, *sorted(dead)])
        for _ in range(30):
            for block in _heater_blocks(cal, rng.uniform(0, TWO_PI, 4),
                                        rng.uniform(0, TWO_PI, 4)):
                _assert_matches_vertex_oracle(block, max_lift)

    def test_tied_bases_go_to_first_basis(self):
        # columns 0 and 1 are identical at equal resistance, so every basis
        # holding column 0 ties exactly with the same basis holding column 1
        m = np.zeros((4, 8))
        m[0, :2] = 50.0
        m[1, 2] = m[2, 3] = m[3, 4] = 50.0
        m[:, 5:] = 5.0
        u = _solve_block(m, np.array([1.0, 2.0, 3.0, 4.0]), np.full(8, 420.0),
                         np.ones(8, dtype=bool))
        assert u[0] > 0.0 and u[1] == 0.0
        assert np.allclose(1e3 * m @ u, [1.0, 2.0, 3.0, 4.0], rtol=0.0, atol=1e-12)

    def test_solve_memory_is_bounded(self):
        cal = HeaterCalibration()
        rng = np.random.default_rng(35)
        alpha_t, phi_t = rng.uniform(0, TWO_PI, 4), rng.uniform(0, TWO_PI, 4)
        tracemalloc.start()
        try:
            heater_solve(cal, alpha_t, phi_t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 256 * 2 ** 10

    @pytest.mark.parametrize("max_lift", [2, 4])
    def test_perturbed_calibrations_match_einsum_oracle_bit_for_bit(self, max_lift):
        # crosstalk scaled entry by entry, resistances across their range,
        # and targets several turns outside [0, 2*pi)
        default = HeaterCalibration()
        rng = np.random.default_rng([36, max_lift])
        for _ in range(6):
            cal = HeaterCalibration(
                alpha_matrix=default.alpha_matrix * rng.uniform(0.8, 1.2, (4, 8)),
                phi_matrix=default.phi_matrix * rng.uniform(0.8, 1.2, (4, 8)),
                resistances=rng.uniform(400.0, 440.0, 16))
            for _ in range(8):
                alpha_t, phi_t = rng.uniform(-3 * TWO_PI, 3 * TWO_PI, (2, 4))
                for block in _heater_blocks(cal, alpha_t, phi_t):
                    _assert_matches_vertex_oracle(block, max_lift)

    @pytest.mark.parametrize("alpha_t", [[-1.0, -20.0, 7.5, 13.0],
                                         [1e6, -1e6, 12345.678, -0.5]],
                             ids=["few-turns", "many-turns"])
    def test_targets_outside_one_turn_match_einsum_oracle(self, alpha_t):
        cal = HeaterCalibration()
        phi_t = cal.phi_offset - np.array([TWO_PI, 2.5, -9.0, 40.0])
        blocks = _heater_blocks(cal, np.array(alpha_t), phi_t)
        want = np.sqrt(np.concatenate([oracle_vertex_block(*block) for block in blocks]))
        assert np.array_equal(heater_solve(cal, alpha_t, phi_t), want)

    # Alpha blocks that reach each branch of the lift-0 bound, told apart by
    # the HiGHS dual of the lift-0 program: none when it is infeasible; with
    # every component positive only lift 0 survives the bound; a component
    # <= 0 keeps every lift along it.
    @pytest.mark.parametrize("cal, alpha_t, branch", [
        (HeaterCalibration(dead_channels=frozenset({1, 8, 15})), [1.0, 2.0, 3.0, 4.0],
         "unreachable"),
        (HeaterCalibration(dead_channels=frozenset({2, 3, 4, 15})),
         [5.309761521575608, 1.0114237612850128, 3.5044123451676454, 2.3127144813324683],
         "lift-0-infeasible"),
        (HeaterCalibration(),
         [3.2158701122134374, 5.971939531762716, 0.9057815605287021, 5.960540267916768],
         "lift-0-only"),
        (HeaterCalibration(),
         [4.002148315014479, 1.6951199159934145, 0.25744424357926954, 0.10384619671527331],
         "several-lifts"),
        (_CROSSTALK_UP, [6.0, 0.0, 0.0, 0.1], "higher-lift-wins"),
    ], ids=["lift-0-infeasible-unreachable", "lift-0-infeasible-reachable",
            "bound-keeps-lift-0", "bound-keeps-several-lifts", "kept-lift-wins"])
    def test_lift_bound_branches_match_einsum_oracle_bit_for_bit(self, cal, alpha_t, branch):
        block = _heater_blocks(cal, np.array(alpha_t), cal.phi_offset)[0]
        dual = oracle_lift0_dual(*block)
        if branch in ("unreachable", "lift-0-infeasible"):
            assert dual is None
        elif branch == "lift-0-only":
            assert dual.min() > 0.0
        else:
            assert dual.min() <= 0.0
        unreachable = _solve_or_error(oracle_vertex_block, block, 4) is SolverError
        assert unreachable == (branch == "unreachable")
        if branch == "higher-lift-wins":
            assert not np.array_equal(oracle_vertex_block(*block, max_lift=0),
                                      oracle_vertex_block(*block))
        for max_lift in (2, 4):
            _assert_matches_vertex_oracle(block, max_lift)


class TestHeaterCalibrationType:
    def test_text_round_trip(self, tmp_path):
        # every value carries all 17 significant digits, and the file keeps them
        default, rng = HeaterCalibration(), np.random.default_rng(545)
        phi = default.phi_matrix + rng.uniform(-0.01, 0.01, (4, 8))
        phi[:, 6] = 0.0
        cal = HeaterCalibration(
            alpha_matrix=default.alpha_matrix + rng.uniform(-0.01, 0.01, (4, 8)),
            phi_matrix=phi, phi_offset=default.phi_offset + rng.uniform(-0.01, 0.01, 4),
            resistances=rng.uniform(400.0, 440.0, 16), dead_channels=frozenset({3, 15}))
        path = tmp_path / "cal.txt"
        path.write_text(cal.to_text())
        back = HeaterCalibration.from_file(path)
        for name in ("alpha_matrix", "phi_matrix", "phi_offset", "resistances"):
            assert np.array_equal(getattr(back, name), getattr(cal, name)), name
        assert back.dead_channels == cal.dead_channels

    def test_dead_column_must_be_zero(self):
        bad = HeaterCalibration().phi_matrix.copy()
        bad[0, 6] = 1.0
        with pytest.raises(ValueError):
            HeaterCalibration(phi_matrix=bad)

    def test_diagonal_dominance_enforced(self):
        bad = HeaterCalibration().alpha_matrix.copy()
        bad[0, 4] = 60.0
        with pytest.raises(ValueError):
            HeaterCalibration(alpha_matrix=bad)

    def test_phi_dominance_enforced(self):
        bad = HeaterCalibration().phi_matrix.copy()
        bad[2, 0] = 60.0
        with pytest.raises(ValueError, match="^row 3: diagonal-block entries do not dominate$"):
            HeaterCalibration(phi_matrix=bad)

    def test_dead_phi_diagonal_column_is_exempt(self):
        # phi column 1 is resistor 10, in row 1's diagonal block
        phi = HeaterCalibration().phi_matrix.copy()
        phi[:, 1] = 0.0
        HeaterCalibration(phi_matrix=phi, dead_channels=frozenset({10, 15}))
        with pytest.raises(ValueError, match="^row 1: diagonal-block entries do not dominate$"):
            HeaterCalibration(phi_matrix=phi, dead_channels=frozenset({15}))

    def test_dead_alpha_diagonal_column_is_exempt(self):
        # alpha column 2 is resistor 3, in row 2's diagonal block
        alpha = HeaterCalibration().alpha_matrix.copy()
        alpha[:, 2] = 0.0
        cal = HeaterCalibration(alpha_matrix=alpha, dead_channels=frozenset({3, 15}))
        with pytest.raises(ValueError, match="^row 2: diagonal-block entries do not dominate$"):
            HeaterCalibration(alpha_matrix=alpha, dead_channels=frozenset({15}))
        rng = np.random.default_rng(33)
        alpha_t, phi_t = rng.uniform(0, TWO_PI, 4), rng.uniform(0, TWO_PI, 4)
        currents = heater_solve(cal, alpha_t, phi_t)
        assert currents[2] == 0.0 and currents[14] == 0.0
        alpha_got, phi_got = heater_forward(cal, currents)
        assert np.abs(np.angle(np.exp(1j * (alpha_got - alpha_t)))).max() < 1e-6
        assert np.abs(np.angle(np.exp(1j * (phi_got - phi_t)))).max() < 1e-6

    def test_first_failing_row_is_reported(self):
        cal = HeaterCalibration()
        alpha, phi = cal.alpha_matrix.copy(), cal.phi_matrix.copy()
        alpha[3, 0] = 60.0
        phi[1, 7] = -60.0
        with pytest.raises(ValueError, match="^row 2: diagonal-block entries do not dominate$"):
            HeaterCalibration(alpha_matrix=alpha, phi_matrix=phi)
