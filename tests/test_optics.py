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
    matrix_probs,
    path_blocker,
    raw_detection_probs,
    raw_probs,
    sagnac_effective,
    standard_elements,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
ROUTES = {"raw_probs": raw_probs, "matrix_probs": matrix_probs}


class TestStandardElements:
    def test_matrices_as_printed(self):
        bs1, bs2, pm1, pm2 = standard_elements(0.3, 0.7)
        np.testing.assert_allclose(bs1, INV_SQRT2 * np.array([[1, 1j], [1j, 1]]), atol=1e-15)
        np.testing.assert_allclose(bs2, INV_SQRT2 * np.array([[1j, -1], [-1, 1j]]), atol=1e-15)
        np.testing.assert_allclose(pm1, np.diag([1, np.exp(0.3j)]), atol=1e-15)
        np.testing.assert_allclose(pm2, np.diag([1, np.exp(0.7j)]), atol=1e-15)

    def test_zero_phase_modulator_is_identity(self):
        _, _, pm1, _ = standard_elements(0.0, 0.0)
        np.testing.assert_allclose(pm1, np.eye(2), atol=1e-15)

    def test_pi_loop_phase(self):
        _, _, _, pm2 = standard_elements(0.0, math.pi)
        np.testing.assert_allclose(pm2, np.diag([1.0, -1.0]), atol=1e-12)


class TestSagnacEffective:
    def test_mirror_mode(self):
        t = sagnac_effective(0.0)
        assert abs(abs(t[0, 1]) - 1.0) < 1e-12
        assert abs(t[0, 0]) < 1e-12

    def test_balanced_mode(self):
        t = sagnac_effective(math.pi / 2)
        np.testing.assert_allclose(np.abs(t), INV_SQRT2 * np.ones((2, 2)), atol=1e-12)

    def test_phase_arrays_give_stacks_of_matrices(self):
        phi = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        stacks = (sagnac_effective(phi), *standard_elements(phi, phi)[2:])
        for stack, one in zip(stacks, (sagnac_effective, lambda p: standard_elements(p, p)[2])):
            assert stack.shape == (3, 4, 2, 2) and not stack.flags.writeable
            for i, j in np.ndindex(3, 4):
                np.testing.assert_allclose(stack[i, j], one(float(phi[i, j])), rtol=0.0, atol=1e-15)


def _element_matrices():
    """Every element matrix the circuit uses, with the path it blocks (None for the unitary elements)."""
    for phi in (0.0, 0.3, math.pi / 2, 2.9, -1.7):
        for name, m in zip(("BS1", "BS2", "PM1", "PM2"), standard_elements(phi, phi)):
            yield pytest.param(m, None, id=f"{name}-{phi:.3f}")
    for phi_s in np.linspace(0, 2 * math.pi, 17):
        yield pytest.param(sagnac_effective(float(phi_s)), None, id=f"sagnac-{phi_s:.3f}")
    for path in (0, 1):
        yield pytest.param(path_blocker(path), path, id=f"blocker-{path}")


@pytest.mark.parametrize("m,blocked", _element_matrices())
def test_element_matrix_is_read_only_unitary_or_projector(m, blocked):
    assert m.dtype == np.complex128 and m.shape == (2, 2)
    if blocked is None:
        np.testing.assert_allclose(m.conj().T @ m, np.eye(2), rtol=0.0, atol=1e-12)
    else:  # diagonal, one on the open path and zero on the blocked one
        np.testing.assert_array_equal(m, np.diag([float(i != blocked) for i in range(2)]))
    with pytest.raises(ValueError, match="read-only"):  # no caller can write into a shared element matrix
        m[1, 1] = 0.5


class TestClosedForms:
    def test_full_constructive_point(self):
        p1, p2 = raw_probs(math.pi / 2, math.pi / 2)
        assert abs(p1 - 1.0) < 1e-12 and abs(p2) < 1e-12

    def test_mirror_mode_no_interference(self):
        p1, _ = raw_probs(np.array([0.0, 0.7, math.pi, 5.1]), 0.0)
        assert np.abs(p1 - 0.5).max() < 1e-12

    def test_reduced_contrast(self):
        p1, p2 = raw_probs(math.pi / 2, math.pi / 2, coherence=0.967)
        assert abs(p1 - 0.9835) < 1e-12
        assert abs(p2 - 0.0165) < 1e-12


class TestBlockedForms:
    """Blocked raw pairs are half the conditional pair (cos^2, sin^2)(phi_s/2), swapped for path0."""

    def test_path1_mirror(self):
        p1, _ = 2.0 * raw_probs(0.3, 0.0, BLOCK_PATH1)
        assert abs(p1 - 1.0) < 1e-12

    def test_path1_balanced(self):
        p1, _ = 2.0 * raw_probs(0.0, math.pi / 2, BLOCK_PATH1)
        assert abs(p1 - 0.5) < 1e-12

    def test_path0_mirror_swapped(self):
        p1, p2 = 2.0 * raw_probs(0.0, 0.0, BLOCK_PATH0)
        assert abs(p1) < 1e-12 and abs(p2 - 1.0) < 1e-12

    def test_raw_is_half(self):
        raw = raw_probs(0.2, 1.1, BLOCK_PATH1)
        assert np.abs(raw - 0.5 * np.array([math.cos(0.55) ** 2, math.sin(0.55) ** 2])).max() < 1e-15


class TestMatrixRoute:
    def test_detector_pinning(self):
        assert np.abs(matrix_probs(math.pi / 2, math.pi / 2) - [1.0, 0.0]).max() < 1e-12

    def test_balanced_zero_phases(self):
        p1, _ = matrix_probs(0.0, 0.0)
        assert abs(p1 - 0.5) < 1e-12

    def test_full_constructive(self):
        for gamma in (1.0, 0.967, 0.5, 0.0):
            p1, p2 = matrix_probs(math.pi / 2, math.pi / 2, coherence=gamma)
            assert abs(p1 - 0.5 * (1.0 + gamma)) < 1e-12 and abs(p2 - 0.5 * (1.0 - gamma)) < 1e-12

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_blocked_half_norm(self, route):
        for block in (BLOCK_PATH0, BLOCK_PATH1):
            for gamma in (1.0, 0.967, 0.5, 0.0):
                assert abs(ROUTES[route](0.9, 1.3, block, gamma).sum() - 0.5) < 1e-12

    def test_dephased_state_matches_closed_form(self):
        for block in BLOCKS:
            got, want = matrix_probs(0.4, 0.9, block, 0.9), raw_probs(0.4, 0.9, block, 0.9)
            assert np.abs(got - want).max() < 1e-12

    def test_agrees_with_closed_forms_on_grid(self):
        # compact grid here, one (phi_s, phi_x) plane per call; the acceptance suite runs the full 32x32 version
        grid = np.linspace(0, 2 * math.pi, 8, endpoint=False)
        for block in BLOCKS:
            for gamma in (1.0, 0.967):
                got, want = (route(grid, grid[:, None], block, gamma) for route in (matrix_probs, raw_probs))
                assert got.shape == want.shape == (2, 8, 8)
                assert np.abs(got - want).max() < 1e-12

    def test_blocked_independent_of_phi_x(self):
        for block in (BLOCK_PATH0, BLOCK_PATH1):
            for gamma in (1.0, 0.5):
                p1, _ = matrix_probs(np.linspace(0, 2 * math.pi, 40), 0.8, block, gamma)
                assert np.ptp(p1) < 1e-12


class TestArrayRoute:
    @pytest.mark.parametrize("coherence", [1.0, 0.967, 0.0])
    @pytest.mark.parametrize("block", BLOCKS)
    def test_plane_equals_per_phi_s_rows_bitwise(self, block, coherence):
        phi_x = np.linspace(0, 2 * math.pi, 32, endpoint=False)
        phi_s = np.concatenate((np.linspace(0, math.pi / 2, 9), np.random.default_rng(5).uniform(-10, 10, 23)))
        plane = raw_probs(phi_x, phi_s[:, None], block, coherence)
        assert plane.shape == (2, 32, 32)
        for i, one in enumerate(phi_s):
            assert plane[:, i].tobytes() == raw_probs(phi_x, float(one), block, coherence).tobytes()

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_shapes_that_do_not_broadcast_rejected(self, route):
        for x_shape, s_shape in (((3,), (4,)), ((2, 3), (3, 1)), ((5,), (4, 2))):
            for block in BLOCKS:
                with pytest.raises(ContractViolation, match="do not broadcast"):
                    ROUTES[route](np.zeros(x_shape), np.zeros(s_shape), block)

    def test_rows_agree_with_matrix_route(self):
        for phi_x in (0.3, np.linspace(0, 2 * math.pi, 16, endpoint=False), np.zeros((4, 3))):
            for phi_s in (0.0, 0.7, math.pi / 2):
                for block in BLOCKS:
                    p, q = raw_probs(phi_x, phi_s, block), matrix_probs(phi_x, phi_s, block)
                    assert p.shape == q.shape == (2,) + np.shape(phi_x)
                    assert np.allclose(p, q, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_unknown_block_rejected(self, route):
        with pytest.raises(ContractViolation):
            ROUTES[route](np.zeros(3), 0.0, block="path2")

    @pytest.mark.parametrize("coherence", [1.5, -0.1, math.nan])
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_coherence_outside_unit_interval_rejected(self, route, coherence):
        with pytest.raises(ContractViolation, match=r"coherence must lie in \[0, 1\]"):
            ROUTES[route](math.pi / 2, math.pi / 2, coherence=coherence)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_nonfinite_phi_s_rejected(self, route, block):
        for bad in (math.inf, -math.inf, math.nan):
            arrays = [np.array([0.0, 0.7, 1.2])[:, None] for _ in range(3)]
            for pos, phi_s in enumerate(arrays):
                phi_s[pos] = bad
            for phi_s in (bad, *arrays):
                with pytest.raises(ContractViolation, match="phases must be finite"):
                    ROUTES[route](np.zeros(4), phi_s, block)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_nonfinite_phi_x_rejected(self, route, block):
        for bad in (math.inf, -math.inf, math.nan):
            for phi_x in (bad, np.array([0.0, bad, 1.0])):
                with pytest.raises(ContractViolation, match="phases must be finite"):
                    ROUTES[route](phi_x, 0.7, block)


class TestBlocker:
    def test_validation(self):
        for path in (-1, 2, 5):
            with pytest.raises(ContractViolation, match=f"^path {path} outside 0..1$"):
                path_blocker(path)


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

    @pytest.mark.parametrize("phases", [(0.0, np.zeros(3)), (np.zeros(3), 0.0)])
    def test_array_phase_rejected(self, phases):
        with pytest.raises(ContractViolation, match="scalars"):
            CircuitConfig(*phases)

    def test_raw_dispatch(self):
        open_raw = raw_detection_probs(CircuitConfig(0.3, 0.9))
        assert all(type(p) is float for p in open_raw)
        assert abs(sum(open_raw) - 1.0) < 1e-12
        blocked_raw = raw_detection_probs(CircuitConfig(0.3, 0.9, block=BLOCK_PATH0))
        assert abs(sum(blocked_raw) - 0.5) < 1e-12
        assert set(BLOCKS) == {BLOCK_NONE, BLOCK_PATH0, BLOCK_PATH1}
