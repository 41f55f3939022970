import math

import numpy as np
import pytest

from dualitysim import (
    BLOCK_NONE,
    BLOCK_PATH0,
    BLOCK_PATH1,
    BLOCKS,
    CircuitConfig,
    ContractViolation,
    born_probabilities,
    circuit_output_state,
    detection_probs_blocked,
    detection_probs_closed_form,
    detector_ports,
    fringe_extrema,
    path_blocker,
    raw_detection_probs,
    raw_probs,
    sagnac_effective,
    standard_elements,
    state_detection_probs,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def matrix_route_probs(phi_x, phi_s, block=BLOCK_NONE, conditional=True):
    state = circuit_output_state(CircuitConfig(phi_x, phi_s, block=block))
    return state_detection_probs(state, conditional=conditional)


class TestStandardElements:
    def test_matrices_as_printed(self):
        bs1, bs2, pm1, pm2 = standard_elements(0.3, 0.7)
        np.testing.assert_allclose(bs1.matrix, INV_SQRT2 * np.array([[1, 1j], [1j, 1]]), atol=1e-15)
        np.testing.assert_allclose(bs2.matrix, INV_SQRT2 * np.array([[1j, -1], [-1, 1j]]), atol=1e-15)
        np.testing.assert_allclose(pm1.matrix, np.diag([1, np.exp(0.3j)]), atol=1e-15)
        np.testing.assert_allclose(pm2.matrix, np.diag([1, np.exp(0.7j)]), atol=1e-15)

    def test_zero_phase_modulator_is_identity(self):
        _, _, pm1, _ = standard_elements(0.0, 0.0)
        np.testing.assert_allclose(pm1.matrix, np.eye(2), atol=1e-15)

    def test_input_splitter_columns_orthonormal(self):
        bs1, _, _, _ = standard_elements(0.0, 0.0)
        gram = bs1.matrix.conj().T @ bs1.matrix
        np.testing.assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_pi_loop_phase(self):
        _, _, _, pm2 = standard_elements(0.0, math.pi)
        np.testing.assert_allclose(pm2.matrix, np.diag([1.0, -1.0]), atol=1e-12)


class TestSagnacEffective:
    def test_mirror_mode(self):
        t = sagnac_effective(0.0).matrix
        assert abs(abs(t[0, 1]) - 1.0) < 1e-12
        assert abs(t[0, 0]) < 1e-12

    def test_balanced_mode(self):
        t = sagnac_effective(math.pi / 2).matrix
        np.testing.assert_allclose(np.abs(t), INV_SQRT2 * np.ones((2, 2)), atol=1e-12)

    def test_unitary_for_any_phase(self):
        for phi_s in np.linspace(0, 2 * math.pi, 17):
            t = sagnac_effective(float(phi_s)).matrix
            np.testing.assert_allclose(t.conj().T @ t, np.eye(2), atol=1e-12)


class TestClosedForms:
    def test_full_constructive_point(self):
        p = detection_probs_closed_form(CircuitConfig(math.pi / 2, math.pi / 2))
        assert abs(p.p1 - 1.0) < 1e-12 and abs(p.p2) < 1e-12

    def test_mirror_mode_no_interference(self):
        for phi_x in (0.0, 0.7, math.pi, 5.1):
            p = detection_probs_closed_form(CircuitConfig(phi_x, 0.0))
            assert abs(p.p1 - 0.5) < 1e-12

    def test_reduced_contrast(self):
        p = detection_probs_closed_form(CircuitConfig(math.pi / 2, math.pi / 2, coherence=0.967))
        assert abs(p.p1 - 0.9835) < 1e-12
        assert abs(p.p2 - 0.0165) < 1e-12

    def test_block_precondition(self):
        with pytest.raises(ContractViolation):
            detection_probs_closed_form(CircuitConfig(0, 0, block=BLOCK_PATH0))


class TestBlockedForms:
    def test_path1_mirror(self):
        p = detection_probs_blocked(CircuitConfig(0.3, 0.0, block=BLOCK_PATH1))
        assert abs(p.p1 - 1.0) < 1e-12

    def test_path1_balanced(self):
        p = detection_probs_blocked(CircuitConfig(0.0, math.pi / 2, block=BLOCK_PATH1))
        assert abs(p.p1 - 0.5) < 1e-12

    def test_path0_mirror_swapped(self):
        p = detection_probs_blocked(CircuitConfig(0.0, 0.0, block=BLOCK_PATH0))
        assert abs(p.p1) < 1e-12 and abs(p.p2 - 1.0) < 1e-12

    def test_raw_is_half(self):
        cond = detection_probs_blocked(CircuitConfig(0.2, 1.1, block=BLOCK_PATH1), conditional=True)
        raw = detection_probs_blocked(CircuitConfig(0.2, 1.1, block=BLOCK_PATH1), conditional=False)
        assert abs(raw.p1 - 0.5 * cond.p1) < 1e-15
        assert abs(raw.p2 - 0.5 * cond.p2) < 1e-15
        assert not raw.conditional

    def test_open_precondition(self):
        with pytest.raises(ContractViolation):
            detection_probs_blocked(CircuitConfig(0, 0))


class TestMatrixRoute:
    def test_detector_pinning(self):
        assert detector_ports() == (1, 0)

    def test_balanced_zero_phases(self):
        p = matrix_route_probs(0.0, 0.0)
        assert abs(p.p1 - 0.5) < 1e-12

    def test_full_constructive(self):
        p = matrix_route_probs(math.pi / 2, math.pi / 2)
        assert abs(p.p1 - 1.0) < 1e-12

    def test_blocked_half_norm(self):
        for block in (BLOCK_PATH0, BLOCK_PATH1):
            state = circuit_output_state(CircuitConfig(0.9, 1.3, block=block))
            assert abs(state.norm_sq - 0.5) < 1e-12

    def test_requires_pure_state(self):
        with pytest.raises(ContractViolation):
            circuit_output_state(CircuitConfig(0.0, 0.0, coherence=0.9))

    def test_agrees_with_closed_forms_on_grid(self):
        # compact grid here; the acceptance suite runs the full 32x32 version
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        for phi_x in grid:
            for phi_s in grid:
                open_probs = matrix_route_probs(phi_x, phi_s)
                closed = detection_probs_closed_form(CircuitConfig(phi_x, phi_s))
                assert abs(open_probs.p1 - closed.p1) < 1e-12
                for block in (BLOCK_PATH0, BLOCK_PATH1):
                    got = matrix_route_probs(phi_x, phi_s, block=block)
                    want = detection_probs_blocked(CircuitConfig(phi_x, phi_s, block=block))
                    assert abs(got.p1 - want.p1) < 1e-12
                    raw_got = matrix_route_probs(phi_x, phi_s, block=block, conditional=False)
                    raw_want = detection_probs_blocked(
                        CircuitConfig(phi_x, phi_s, block=block), conditional=False
                    )
                    assert abs(raw_got.p1 - raw_want.p1) < 1e-12

    def test_blocked_independent_of_phi_x(self):
        for block in (BLOCK_PATH0, BLOCK_PATH1):
            probs = [
                matrix_route_probs(phi_x, 0.8, block=block).p1
                for phi_x in np.linspace(0, 2 * math.pi, 40)
            ]
            assert max(probs) - min(probs) < 1e-12


class TestArrayRoute:
    def test_rows_agree_with_matrix_route(self):
        phi_x = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        for phi_s in (0.0, 0.7, math.pi / 2):
            for block in BLOCKS:
                p = raw_probs(phi_x, phi_s, block)
                assert p.shape == (2, phi_x.size)
                for x, pair in zip(phi_x, p.T):
                    want = matrix_route_probs(x, phi_s, block=block, conditional=False)
                    assert np.allclose(pair, want.as_tuple, rtol=0.0, atol=1e-12)

    def test_unknown_block_rejected(self):
        with pytest.raises(ContractViolation):
            raw_probs(np.zeros(3), 0.0, block="path2")


class TestFringeLaw:
    def test_sweep_extrema_match_closed_form(self):
        phi_x = np.linspace(0, 2 * math.pi, 4096, endpoint=False)
        for phi_s in (0.0, 0.4, math.pi / 4, 1.2, math.pi / 2):
            for gamma in (1.0, 0.967, 0.5):
                p1 = 0.5 * (1 + gamma * np.sin(phi_x) * math.sin(phi_s))
                p_max, p_min = fringe_extrema(phi_s, gamma)
                assert abs(p1.max() - p_max) < 1e-6  # grid resolution limited
                assert abs(p1.min() - p_min) < 1e-6
                # exact law, independent of any grid
                assert abs(p_max - 0.5 * (1 + gamma * math.sin(phi_s))) < 1e-9
                assert abs(p_min - 0.5 * (1 - gamma * math.sin(phi_s))) < 1e-9


class TestBlocker:
    def test_partial_transmissivity(self):
        cfg = CircuitConfig(0.4, 0.9)
        bs1, _, pm1, _ = standard_elements(cfg.phi_x, cfg.phi_s)
        from dualitysim import PathState, apply_element

        prepared = apply_element(pm1, apply_element(bs1, PathState.basis(2, 1)))
        attenuated = apply_element(path_blocker(2, 1, transmissivity=0.25), prepared)
        assert abs(attenuated.norm_sq - (0.5 + 0.25 * 0.5)) < 1e-12

    def test_validation(self):
        with pytest.raises(ContractViolation):
            path_blocker(2, 1, transmissivity=1.5)
        with pytest.raises(ContractViolation):
            path_blocker(2, 5)


class TestConfigValidation:
    def test_bad_block(self):
        with pytest.raises(ContractViolation):
            CircuitConfig(0.0, 0.0, block="path2")

    def test_bad_coherence(self):
        with pytest.raises(ContractViolation):
            CircuitConfig(0.0, 0.0, coherence=1.5)

    def test_nonfinite_phase(self):
        with pytest.raises(ContractViolation):
            CircuitConfig(math.nan, 0.0)

    def test_raw_dispatch(self):
        open_raw = raw_detection_probs(CircuitConfig(0.3, 0.9))
        assert abs(open_raw.p1 + open_raw.p2 - 1.0) < 1e-12
        blocked_raw = raw_detection_probs(CircuitConfig(0.3, 0.9, block=BLOCK_PATH0))
        assert abs(blocked_raw.p1 + blocked_raw.p2 - 0.5) < 1e-12
        assert set(BLOCKS) == {BLOCK_NONE, BLOCK_PATH0, BLOCK_PATH1}
