import math

import numpy as np
import pytest

from dualitysim import (
    ContractViolation,
    EstimateWithError,
    EstimationError,
    FringeScan,
    RunPlan,
    duality_report,
    equivalence_report,
    estimate_distinguishability,
    estimate_visibility,
    eur_definition_route,
    eur_formula_route,
    fit_fringe,
    run_sweep,
)
from dualitysim.estimators import flatness_check

PHI_X_16 = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)


def scan(n1, n2, phi_s=0.0, block="none", pulses=120_000, phi_x=None):
    n1 = np.asarray(n1, dtype=float)
    x = PHI_X_16 if phi_x is None else phi_x
    return FringeScan(
        phi_s=phi_s, block=block, phi_x=x[: n1.size], n1=n1,
        n2=np.asarray(n2, dtype=float), pulses_per_point=pulses,
    )


def ideal_scans(phi_s, coherence=1.0, steps=32, pulses=120_000):
    plan = RunPlan(
        phi_s_values=(phi_s,), phi_x_grid=(0.0, 2.0 * math.pi, steps),
        pulses_per_point=pulses, coherence=coherence, seed=0,
    )
    scans = run_sweep(plan, mode="ideal")
    return {s.block: s for s in scans}


class TestVisibility:
    def test_poisson_propagation_example(self):
        # fringe peak 900 counts, trough 100 counts
        n1 = np.full(16, 500.0)
        n1[4], n1[12] = 900.0, 100.0
        est = estimate_visibility(scan(n1, 1000.0 - n1))
        assert est.value == pytest.approx(0.8, abs=1e-12)
        assert est.sigma == pytest.approx(0.018973665961010275, abs=1e-12)

    def test_flat_fringe_zero_visibility(self):
        est = estimate_visibility(scan(np.full(16, 500.0), np.full(16, 500.0)))
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_ideal_model_matches_contrast_law(self):
        # 32-point grid lands exactly on the fringe extrema
        for phi_s in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
            for gamma in (1.0, 0.967):
                scans = ideal_scans(phi_s, coherence=gamma)
                est = estimate_visibility(scans["none"])
                assert est.value == pytest.approx(gamma * math.sin(phi_s), abs=1e-12)

    def test_dense_grid_resolution_bound(self):
        # grid spacing below pi/128 keeps the worst-case peak miss tiny
        steps = 512
        scans = ideal_scans(1.0, coherence=0.9, steps=steps)
        est = estimate_visibility(scans["none"])
        spacing = 2.0 * math.pi / steps
        bound = 0.9 * math.sin(1.0) * (spacing / 2.0) ** 2 / 2.0 + 1e-12
        assert abs(est.value - 0.9 * math.sin(1.0)) <= bound

    def test_requires_open_scan(self):
        with pytest.raises(ContractViolation):
            estimate_visibility(scan(np.full(16, 1.0), np.full(16, 1.0), block="path0"))

    def test_requires_enough_points(self):
        with pytest.raises(ContractViolation):
            estimate_visibility(scan(np.full(4, 1.0), np.full(4, 1.0), phi_x=PHI_X_16[:4]))

    def test_requires_full_period(self):
        x = np.linspace(0.0, math.pi, 16)  # half a fringe period
        with pytest.raises(ContractViolation):
            estimate_visibility(scan(np.full(16, 1.0), np.full(16, 1.0), phi_x=x))

    def test_all_zero_counts(self):
        with pytest.raises(EstimationError):
            estimate_visibility(scan(np.zeros(16), np.zeros(16)))

    def test_empty_points_dropped(self):
        n1 = np.full(16, 500.0)
        n2 = np.full(16, 500.0)
        n1[3] = n2[3] = 0.0  # dead point must not poison the estimate
        est = estimate_visibility(scan(n1, n2))
        assert est.value == pytest.approx(0.0, abs=1e-12)


class TestDistinguishability:
    def test_mirror_mode(self):
        b0 = scan(np.full(16, 1000.0), np.zeros(16), block="path0")
        b1 = scan(np.zeros(16), np.full(16, 1000.0), block="path1")
        est = estimate_distinguishability(b0, b1)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        # boundary estimate carries the one-count floor, not zero sigma
        assert 0.0 < est.sigma < 1e-3

    def test_balanced_mode(self):
        b0 = scan(np.full(16, 500.0), np.full(16, 500.0), block="path0")
        b1 = scan(np.full(16, 500.0), np.full(16, 500.0), block="path1")
        assert estimate_distinguishability(b0, b1).value == pytest.approx(0.0, abs=1e-12)

    def test_ideal_intermediate_setting(self):
        scans = ideal_scans(math.pi / 3)
        est = estimate_distinguishability(scans["path0"], scans["path1"])
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_block_order_enforced(self):
        b0 = scan(np.full(16, 1.0), np.zeros(16), block="path0")
        b1 = scan(np.zeros(16), np.full(16, 1.0), block="path1")
        with pytest.raises(ContractViolation):
            estimate_distinguishability(b1, b0)

    def test_phi_s_mismatch(self):
        b0 = scan(np.full(16, 1.0), np.zeros(16), block="path0", phi_s=0.1)
        b1 = scan(np.zeros(16), np.full(16, 1.0), block="path1", phi_s=0.2)
        with pytest.raises(ContractViolation):
            estimate_distinguishability(b0, b1)

    def test_zero_counts(self):
        b0 = scan(np.zeros(16), np.zeros(16), block="path0")
        b1 = scan(np.zeros(16), np.full(16, 1.0), block="path1")
        with pytest.raises(EstimationError):
            estimate_distinguishability(b0, b1)


class TestFormulaRoute:
    def test_extreme_inputs(self):
        report = eur_formula_route(EstimateWithError(1.0, 0.0), EstimateWithError(0.0, 0.0))
        assert report.quantities.eur_sum == pytest.approx(1.0, abs=1e-12)
        assert report.quantities.eur_satisfied

    def test_saturated_pair(self):
        report = eur_formula_route(
            EstimateWithError(math.sin(math.pi / 4), 0.0),
            EstimateWithError(math.cos(math.pi / 4), 0.0),
        )
        assert report.quantities.eur_sum == pytest.approx(1.0, abs=1e-12)

    def test_high_visibility_point(self):
        report = eur_formula_route(EstimateWithError(0.967, 0.0), EstimateWithError(0.0, 0.0))
        assert report.quantities.eur_sum == pytest.approx(1.3274302685677908, abs=1e-12)

    def test_clamping_flagged(self):
        report = eur_formula_route(EstimateWithError(-0.05, 0.01), EstimateWithError(0.5, 0.01))
        assert report.clamped_v and not report.clamped_d
        assert report.quantities.v == 0.0

    def test_visibility_clamp_reachable_from_counts(self):
        # a low-exposure peak can put fewer detector-1 counts at the fringe
        # max than at the min; the route must clamp, not crash
        n1 = np.full(16, 50.0)
        n2 = np.full(16, 50.0)
        n1[4], n2[4] = 9.0, 1.0     # p_hat = 0.9, only 10 clicks
        n1[12], n2[12] = 100.0, 900.0  # p_hat = 0.1, heavy exposure
        est = estimate_visibility(scan(n1, n2))
        assert est.value < 0.0
        report = eur_formula_route(est, EstimateWithError(0.5, 0.01))
        assert report.clamped_v


class TestDefinitionRoute:
    def test_ideal_matches_formula_route(self):
        for phi_s in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
            scans = ideal_scans(phi_s)
            defn = eur_definition_route(scans["none"], estimate_distinguishability(scans["path0"], scans["path1"]))
            formula = eur_formula_route(
                estimate_visibility(scans["none"]),
                estimate_distinguishability(scans["path0"], scans["path1"]),
            )
            assert defn.quantities.h_min_z == pytest.approx(formula.quantities.h_min_z, abs=1e-12)
            assert defn.quantities.h_max_w == pytest.approx(formula.quantities.h_max_w, abs=1e-12)

    def test_mirror_setting(self):
        scans = ideal_scans(0.0)
        defn = eur_definition_route(scans["none"], estimate_distinguishability(scans["path0"], scans["path1"]))
        assert defn.quantities.h_min_z == pytest.approx(0.0, abs=1e-12)
        assert defn.quantities.h_max_w == pytest.approx(1.0, abs=1e-12)

    def test_balanced_setting(self):
        scans = ideal_scans(math.pi / 2, coherence=1.0)
        defn = eur_definition_route(scans["none"], estimate_distinguishability(scans["path0"], scans["path1"]))
        assert defn.quantities.h_min_z == pytest.approx(1.0, abs=1e-12)
        assert defn.quantities.h_max_w == pytest.approx(0.0, abs=1e-12)

    def test_route_identity_on_normalized_scans(self):
        # once every point is normalized to a probability pair, both routes
        # consume the same numbers and must agree to floating-point accuracy
        rng = np.random.default_rng(42)
        for trial in range(20):
            phi_s = float(rng.uniform(0.1, math.pi / 2))
            raw_open = rng.poisson(60.0, size=(2, 16)).astype(float) + 1.0
            raw_b0 = rng.poisson(40.0, size=(2, 16)).astype(float) + 1.0
            raw_b1 = rng.poisson(40.0, size=(2, 16)).astype(float) + 1.0
            t_open, t_b0, t_b1 = (r.sum(axis=0) for r in (raw_open, raw_b0, raw_b1))
            s_open = scan(raw_open[0] / t_open, raw_open[1] / t_open, phi_s=phi_s)
            s_b0 = scan(raw_b0[0] / t_b0, raw_b0[1] / t_b0, phi_s=phi_s, block="path0")
            s_b1 = scan(raw_b1[0] / t_b1, raw_b1[1] / t_b1, phi_s=phi_s, block="path1")
            defn = eur_definition_route(s_open, estimate_distinguishability(s_b0, s_b1))
            formula = eur_formula_route(
                estimate_visibility(s_open), estimate_distinguishability(s_b0, s_b1)
            )
            assert abs(defn.quantities.h_min_z - formula.quantities.h_min_z) < 1e-12
            assert abs(defn.quantities.h_max_w - formula.quantities.h_max_w) < 1e-12


class TestEquivalenceAndReports:
    def test_identical_routes_zero_diff(self):
        scans = ideal_scans(math.pi / 8)
        r = eur_formula_route(
            estimate_visibility(scans["none"]),
            estimate_distinguishability(scans["path0"], scans["path1"]),
        )
        eq = equivalence_report(r, r)
        assert eq.d_h_min == 0.0 and eq.d_h_max == 0.0 and eq.d_eur == 0.0
        assert eq.within_h_min and eq.within_h_max and eq.within_eur

    def test_ideal_diffs_vanish_for_any_phi_s(self):
        for phi_s in np.linspace(0.0, math.pi / 2, 9):
            scans = ideal_scans(float(phi_s))
            rep = duality_report(scans["none"], scans["path0"], scans["path1"])
            assert rep.equivalence.d_h_min < 1e-12
            assert rep.equivalence.d_h_max < 1e-12
            assert rep.equivalence.d_eur < 1e-12

    def test_monte_carlo_routes_agree_within_three_sigma(self):
        # noisy runs: the routes consume different data, so demand agreement
        # within propagated errors on nearly all seeds
        hits = 0
        seeds = range(50)
        for seed in seeds:
            plan = RunPlan(
                phi_s_values=(math.pi / 4,), pulses_per_point=100_000, seed=seed
            )
            scans = {s.block: s for s in run_sweep(plan)}
            rep = duality_report(scans["none"], scans["path0"], scans["path1"], k=3.0)
            eq = rep.equivalence
            hits += eq.within_h_min and eq.within_h_max and eq.within_eur
        assert hits >= 0.99 * len(seeds)

    def test_sigma_scaling_with_counts(self):
        plan = RunPlan(phi_s_values=(math.pi / 8,), pulses_per_point=200_000, seed=3)
        small = {s.block: s for s in run_sweep(plan, mode="ideal")}
        plan4 = RunPlan(phi_s_values=(math.pi / 8,), pulses_per_point=800_000, seed=3)
        big = {s.block: s for s in run_sweep(plan4, mode="ideal")}
        for pick in (
            lambda sc: estimate_visibility(sc["none"]),
            lambda sc: estimate_distinguishability(sc["path0"], sc["path1"]),
        ):
            ratio = pick(small).sigma / pick(big).sigma
            assert abs(ratio - 2.0) < 0.1  # fourfold counts halve sigma within 5%

    def test_dropped_points_counted(self):
        scans = ideal_scans(math.pi / 4)
        n1 = scans["none"].n1.copy()
        n2 = scans["none"].n2.copy()
        n1[5] = n2[5] = 0.0
        broken = FringeScan(
            phi_s=scans["none"].phi_s, block="none", phi_x=scans["none"].phi_x,
            n1=n1, n2=n2, pulses_per_point=scans["none"].pulses_per_point,
        )
        rep = duality_report(broken, scans["path0"], scans["path1"])
        assert rep.formula.dropped_points == 1
        assert rep.definition.dropped_points == 1

    def test_open_and_blocked_phi_s_must_match(self):
        scans, other = ideal_scans(math.pi / 4), ideal_scans(math.pi / 3)
        with pytest.raises(ContractViolation, match="open and blocked"):
            duality_report(scans["none"], other["path0"], other["path1"])


class TestScanValidation:
    def test_negative_counts(self):
        with pytest.raises(ContractViolation):
            scan(np.full(16, -1.0), np.full(16, 1.0))

    def test_non_monotone_phi_x(self):
        x = PHI_X_16.copy()
        x[3] = x[2]
        with pytest.raises(ContractViolation):
            scan(np.full(16, 1.0), np.full(16, 1.0), phi_x=x)


class TestFlatnessAndFit:
    def test_flat_scan_passes(self):
        s = scan(np.full(16, 40.0), np.full(16, 38.0), block="path0")
        assert flatness_check(s).flat

    def test_fringing_scan_fails(self):
        p = 0.5 * (1.0 + 0.9 * np.sin(PHI_X_16))
        s = scan(1000 * p, 1000 * (1 - p))
        assert not flatness_check(s).flat

    def test_degenerate_one_sided_scan_passes(self):
        s = scan(np.full(16, 40.0), np.zeros(16), block="path0")
        check = flatness_check(s)
        assert check.flat and check.spread == 0.0

    def test_fit_recovers_clean_fringe(self):
        p = 0.5 * (1.0 + 0.8 * np.sin(PHI_X_16 + 0.3))
        fit = fit_fringe(scan(10_000 * p, 10_000 * (1 - p)))
        assert fit.amplitude == pytest.approx(0.4, abs=1e-9)
        assert fit.offset == pytest.approx(0.5, abs=1e-9)
        assert fit.phase == pytest.approx(0.3, abs=1e-9)
        assert fit.residual_rms < 1e-9
