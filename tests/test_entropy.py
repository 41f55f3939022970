import math

import numpy as np
import pytest

from dualitysim import (
    ContractViolation,
    GuessingInput,
    distinguishability_from_guessing,
    eur_check,
    h_max,
    h_max_from_visibility,
    h_max_guessing_bound,
    h_min,
    h_min_from_distinguishability,
    visibility_from_guessing,
    wpdr_check,
)
from dualitysim.entropy import duality_columns


def dist(*probs):
    return np.array(probs, dtype=float)


def pairs(p):
    """The binary distributions (p, 1 - p), one row per entry of ``p``."""
    return np.stack((p, 1.0 - p), axis=-1)


class TestUnconditionalEntropies:
    def test_h_min_uniform_binary(self):
        assert h_min(dist(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_h_min_deterministic(self):
        assert h_min(dist(1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_h_min_skewed(self):
        assert h_min(dist(0.25, 0.75)) == pytest.approx(0.4150374992788438, abs=1e-12)

    def test_h_max_uniform_binary(self):
        assert h_max(dist(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_h_max_deterministic(self):
        assert h_max(dist(1.0, 0.0)) == pytest.approx(0.0, abs=1e-12)

    def test_h_max_skewed(self):
        assert h_max(dist(0.25, 0.75)) == pytest.approx(0.8999686269529916, abs=1e-12)

    def test_zero_outcomes_ignored(self):
        assert h_min(dist(0.5, 0.5, 0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)
        assert h_max(dist(0.5, 0.5, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_or_negative_rejected(self):
        for entropy in (h_min, h_max):
            for bad in (dist(0.3, 0.3), dist(0.6, 0.6), dist(-0.1, 1.1)):
                with pytest.raises(ContractViolation, match="requires a normalized distribution"):
                    entropy(bad)

    def test_ordering_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(n))
            lo, hi = h_min(p), h_max(p)
            assert -1e-12 <= lo <= hi + 1e-12
            assert hi <= math.log2(n) + 1e-12


class TestClosedForms:
    def test_h_min_endpoints(self):
        assert h_min_from_distinguishability(0.0) == pytest.approx(1.0, abs=1e-12)
        assert h_min_from_distinguishability(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_h_min_midpoint(self):
        # complements h_max at the same setting so the pair sums to exactly 1
        val = h_min_from_distinguishability(math.cos(math.pi / 4))
        assert val == pytest.approx(0.22844669683638807, abs=1e-12)
        assert val == pytest.approx(0.2285, abs=1e-3)

    def test_h_max_endpoints(self):
        assert h_max_from_visibility(1.0) == pytest.approx(0.0, abs=1e-12)
        assert h_max_from_visibility(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_h_max_midpoint(self):
        val = h_max_from_visibility(math.sin(math.pi / 4))
        assert val == pytest.approx(0.7715533031636119, abs=1e-12)
        assert val == pytest.approx(0.77155, abs=1e-5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolation):
            h_min_from_distinguishability(1.5)
        with pytest.raises(ContractViolation):
            h_max_from_visibility(-0.2)

    @pytest.mark.parametrize("as_array", [False, True], ids=["scalar", "array"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -2e-12, 1.0 + 2e-12])
    @pytest.mark.parametrize("check", [
        lambda x: h_min(pairs(x)), lambda x: h_max(pairs(x)), h_min_from_distinguishability, h_max_from_visibility,
        lambda x: wpdr_check(x, 0.5), lambda x: wpdr_check(0.5, x),
    ], ids=["h_min_pairs", "h_max_pairs", "h_min_from_d", "h_max_from_v", "wpdr_d", "wpdr_v"])
    def test_non_finite_or_beyond_tolerance_rejected(self, check, bad, as_array):
        with pytest.raises(ContractViolation):
            check(np.array([0.0, 0.5, bad, 1.0]) if as_array else bad)

    def test_strictly_decreasing(self):
        x = np.linspace(0.0, 1.0, 2001)
        assert np.all(np.diff(h_min_from_distinguishability(x)) < 0)
        assert np.all(np.diff(h_max_from_visibility(x)) < 0)

    def test_ideal_device_saturation(self):
        for phi_s in np.linspace(0.0, math.pi / 2, 181):
            total = h_min_from_distinguishability(math.cos(phi_s)) + h_max_from_visibility(
                math.sin(phi_s)
            )
            assert abs(total - 1.0) < 1e-12


class TestBinaryIdentities:
    """The algebraic backbone of the route equivalence."""

    def test_min_entropy_identity(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.0, 1.0, size=100_000)
        c = np.abs(2.0 * p - 1.0)
        diff = np.abs(h_min(pairs(p)) - h_min_from_distinguishability(c))
        assert diff.max() < 1e-12

    def test_max_entropy_identity(self):
        # h_max((p, 1-p)) = log2(1 + sqrt(1 - c^2)) with c = |2p - 1|, which
        # is the wave-side closed form evaluated at visibility c
        rng = np.random.default_rng(3)
        p = rng.uniform(0.0, 1.0, size=100_000)
        c = np.abs(2.0 * p - 1.0)
        diff = np.abs(h_max(pairs(p)) - h_max_from_visibility(c))
        assert diff.max() < 1e-12
        direct = np.log2(1.0 + np.sqrt((1.0 - c) * (1.0 + c)))
        assert np.max(np.abs(h_max(pairs(p)) - direct)) < 1e-12

    def test_definition_matches_closed_form_on_one_distribution(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = float(rng.uniform())
            c = abs(2 * p - 1)
            assert h_min(dist(p, 1 - p)) == pytest.approx(
                h_min_from_distinguishability(c), abs=1e-12
            )
            assert h_max(dist(p, 1 - p)) == pytest.approx(
                math.log2(1 + math.sqrt((1 - c) * (1 + c))), abs=1e-12
            )


class TestInequalityChecks:
    def test_eur_boundary(self):
        assert eur_check(1.0, 0.0) == (1.0, True)

    def test_eur_saturated_pair(self):
        hz = h_min_from_distinguishability(math.cos(math.pi / 4))
        hw = h_max_from_visibility(math.sin(math.pi / 4))
        total, ok = eur_check(hz, hw)
        assert ok and abs(total - 1.0) < 1e-12

    def test_eur_violation_flagged(self):
        total, ok = eur_check(0.3, 0.3)
        assert (total, ok) == (pytest.approx(0.6), False)

    def test_eur_range_validation(self):
        with pytest.raises(ContractViolation):
            eur_check(1.5, 0.0)

    def test_wpdr_trig_identity(self):
        for phi_s in np.linspace(0, math.pi / 2, 50):
            value, ok = wpdr_check(math.cos(phi_s), math.sin(phi_s))
            assert ok and abs(value - 1.0) < 1e-12

    def test_wpdr_max_visibility_point(self):
        value, ok = wpdr_check(0.0, 0.967)
        assert ok and value == pytest.approx(0.935089, abs=1e-9)

    def test_wpdr_violation_flagged(self):
        value, ok = wpdr_check(1.0, 1.0)
        assert (value, ok) == (pytest.approx(2.0), False)


class TestGuessingGames:
    def test_visibility_endpoints(self):
        assert visibility_from_guessing(GuessingInput(1.0, 3)) == pytest.approx(1.0)
        assert visibility_from_guessing(GuessingInput(1 / 3, 3)) == pytest.approx(0.0, abs=1e-12)

    def test_visibility_midpoint(self):
        assert visibility_from_guessing(GuessingInput(0.75, 2)) == pytest.approx(0.5)

    def test_distinguishability_cases(self):
        assert distinguishability_from_guessing(GuessingInput(1.0, 2)) == pytest.approx(1.0)
        assert distinguishability_from_guessing(GuessingInput(0.5, 2)) == pytest.approx(0.0)
        assert distinguishability_from_guessing(GuessingInput(2 / 3, 3)) == pytest.approx(0.5)

    def test_bound_endpoints(self):
        assert h_max_guessing_bound(GuessingInput(1.0, 2)) == pytest.approx(0.0, abs=1e-12)
        assert h_max_guessing_bound(GuessingInput(0.5, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_bound_three_path(self):
        val = h_max_guessing_bound(GuessingInput(2 / 3, 3))
        assert val == pytest.approx(1.4499843134764958, abs=1e-12)
        assert val == pytest.approx(1.44998, abs=1e-5)

    def test_invalid_p_guess(self):
        with pytest.raises(ContractViolation):
            GuessingInput(0.2, 2)
        with pytest.raises(ContractViolation):
            GuessingInput(1.2, 2)
        with pytest.raises(ContractViolation):
            GuessingInput(0.9, 1)

    def test_binary_reduction(self):
        rng = np.random.default_rng(9)
        for p in rng.uniform(0.5, 1.0, size=2000):
            g = GuessingInput(float(p), 2)
            assert visibility_from_guessing(g) == pytest.approx(2 * p - 1, abs=1e-12)
            assert h_max_guessing_bound(g) == pytest.approx(
                h_max_from_visibility(2 * p - 1), abs=1e-12
            )

    def test_bound_monotone_in_p_guess(self):
        for n in (2, 3, 5):
            grid = np.linspace(1.0 / n, 1.0, 500)
            vals = [h_max_guessing_bound(GuessingInput(float(p), n)) for p in grid]
            assert np.all(np.diff(vals) < 1e-12)


class TestDualityColumns:
    def test_scorecard_construction(self):
        columns = duality_columns(math.sin(0.6), math.cos(0.6))
        assert columns["eur_satisfied"] and columns["wpdr_satisfied"]
        assert abs(columns["eur_sum"] - 1.0) < 1e-12

    @pytest.mark.parametrize("v,d,name", [(1.5, 0.5, "visibility"), (0.5, -0.5, "distinguishability"),
                                          (math.nan, 1.5, "distinguishability")])
    def test_range_invariant_enforced(self, v, d, name):
        with pytest.raises(ContractViolation, match=f"^{name} must be finite and within"):
            duality_columns([0.5, v], [0.5, d])
