import dataclasses
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitysim import (
    BLOCKS,
    ContractViolation,
    DualityQuantities,
    DualityReport,
    EquivalenceReport,
    EstimateWithError,
    EstimationError,
    FringeScan,
    ProbDist,
    RouteReport,
    RunPlan,
    duality_report,
    equivalence_report,
    estimate_distinguishability,
    estimate_visibility,
    eur_definition_route,
    eur_formula_route,
    fit_fringe,
    h_max,
    h_max_from_visibility,
    h_min,
    h_min_from_distinguishability,
    run_sweep,
)
from dualitysim.estimators import MIN_FRINGE_POINTS, flatness_check
from dualitysim.tolerances import ATOL_ALGEBRAIC, INEQ_SLACK

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
        plan = RunPlan(phi_s_values=tuple(np.linspace(0.0, math.pi / 2, 9)), coherence=1.0, seed=0)
        reports = duality_report(run_sweep(plan, mode="ideal"))
        assert [rep.phi_s for rep in reports] == list(plan.phi_s_values)
        for rep in reports:
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
            [rep] = duality_report(run_sweep(plan), k=3.0)
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
        [rep] = duality_report([broken, scans["path0"], scans["path1"]])
        assert rep.formula.dropped_points == 1
        assert rep.definition.dropped_points == 1

    def test_open_and_blocked_phi_s_must_match(self):
        scans, other = ideal_scans(math.pi / 4), ideal_scans(math.pi / 3)
        with pytest.raises(ContractViolation, match="open and blocked"):
            duality_report([scans["none"], other["path0"], other["path1"]])

    def test_empty_sequences_give_no_reports(self):
        assert duality_report([]) == []

    def test_sequences_of_unequal_length_rejected(self):
        scans = ideal_scans(math.pi / 4)
        with pytest.raises(ContractViolation, match="one open, one path0 and one path1"):
            duality_report([scans["none"], scans["none"], scans["path0"], scans["path1"]])

    def test_block_interleaving_leaves_reports_unchanged(self):
        # the i-th scan of each block is the i-th setting, however the blocks interleave
        plan = RunPlan(phi_s_values=(0.0, 0.7, 0.7, math.pi / 2), pulses_per_point=4000, seed=5)
        scans = run_sweep(plan)
        want = _bits(duality_report(scans))
        assert len(want) == 4
        for key in (lambda s: BLOCKS.index(s.block), lambda s: -BLOCKS.index(s.block)):  # stable: each block keeps its order
            assert _bits(duality_report(sorted(scans, key=key))) == want
        assert _bits(duality_report(run_sweep(replace(plan, blocks=BLOCKS[::-1])))) == want


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


# The per-setting scalar scorecard that the array pass of duality_report
# replaced, kept verbatim as its reference (with the scalar bound checks it
# called).  The array pass must give every field of every report bit for bit,
# and raise the same error for the first failing setting.

def _ref_kept(scan):
    keep = scan.totals > 0
    if not np.any(keep):
        raise EstimationError("all points in scan have zero counts")
    return keep


def _ref_extremal_indices(scan):
    keep = _ref_kept(scan)
    idx = np.flatnonzero(keep)
    phat = scan.n1[idx] / scan.totals[idx]
    return idx[int(np.argmax(phat))], idx[int(np.argmin(phat))]


def _ref_ratio_variance(a, b, s, var_a, var_b):
    return (2.0 * b / s**2) ** 2 * var_a + (2.0 * a / s**2) ** 2 * var_b


def _ref_visibility(scan):
    if scan.block != "none":
        raise ContractViolation("visibility requires an open scan (block = none)")
    for x, error in ((scan.phi_x, ContractViolation), (scan.phi_x[_ref_kept(scan)], EstimationError)):
        if x.size < MIN_FRINGE_POINTS:
            raise error(f"need at least {MIN_FRINGE_POINTS} usable points, got {x.size}")
        span = float(x[-1] - x[0])
        if span + span / (x.size - 1) < 2.0 * math.pi - 1e-9:
            raise error(f"phi_x span {span:.3f} rad covers less than one fringe period")
    i_max, i_min = _ref_extremal_indices(scan)
    n_max, n_min = float(scan.n1[i_max]), float(scan.n1[i_min])
    s = n_max + n_min
    if s <= 0:
        raise EstimationError("zero detector-1 counts at both fringe extrema")
    m_max, m_min = max(n_max, 1.0), max(n_min, 1.0)
    return EstimateWithError((n_max - n_min) / s, math.sqrt(_ref_ratio_variance(m_max, m_min, s, m_max, m_min)))


def _ref_pooled_bias(scan):
    a, b = float(scan.n1.sum()), float(scan.n2.sum())
    s = a + b
    if s <= 0:
        raise EstimationError(f"zero total counts in blocked scan ({scan.block})")
    fa, fb = max(a, 1.0), max(b, 1.0)
    return abs(a - b) / s, _ref_ratio_variance(fa, fb, s, fa, fb)


def _ref_distinguishability(scan_blocked_0, scan_blocked_1):
    if scan_blocked_0.block != "path0" or scan_blocked_1.block != "path1":
        raise ContractViolation("expected scans with block = path0 and path1, in that order")
    if abs(scan_blocked_0.phi_s - scan_blocked_1.phi_s) > ATOL_ALGEBRAIC:
        raise ContractViolation("blocked scans must share the same phi_s")
    d0, var0 = _ref_pooled_bias(scan_blocked_0)
    d1, var1 = _ref_pooled_bias(scan_blocked_1)
    return EstimateWithError(0.5 * (d0 + d1), 0.5 * math.sqrt(var0 + var1))


def _ref_eur_check(h_min_z, h_max_w):
    for name, h in (("h_min_z", h_min_z), ("h_max_w", h_max_w)):
        if not (-ATOL_ALGEBRAIC <= h <= 1.0 + INEQ_SLACK):
            raise ContractViolation(f"{name} = {h} outside [0, log2 n]")
    total = h_min_z + h_max_w
    return total, bool(total >= 1.0 - INEQ_SLACK)


def _ref_duality_from_v_d(v, d):
    hz = h_min_from_distinguishability(d)
    hw = h_max_from_visibility(v)
    eur_sum, eur_ok = _ref_eur_check(hz, hw)
    value = d * d + v * v
    return DualityQuantities(
        v=float(v), d=float(d), h_min_z=hz, h_max_w=hw, eur_sum=eur_sum, wpdr_value=value,
        eur_satisfied=eur_ok, wpdr_satisfied=bool(value <= 1.0 + INEQ_SLACK),
    )


def _ref_clamp_unit(x):
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def _ref_h_max_slope(v):
    root = math.sqrt(max((1.0 - v) * (1.0 + v), 0.0))
    if root == 0.0:
        return 0.0
    return v / (root * (1.0 + root) * math.log(2.0))


def _ref_route_report(route, q, v, sigma_v, d, sigma_d, **flags):
    s_hmin = 1.0 / ((1.0 + d) * math.log(2.0)) * sigma_d
    s_hmax = _ref_h_max_slope(v) * sigma_v
    return RouteReport(
        route=route, quantities=q, h_min_sigma=s_hmin, h_max_sigma=s_hmax,
        eur_sigma=math.hypot(s_hmin, s_hmax),
        wpdr_sigma=math.hypot(2.0 * d * sigma_d, 2.0 * v * sigma_v),
        **flags,
    )


def _ref_formula_route(visibility, distinguishability, dropped_points=0):
    v, clamped_v = _ref_clamp_unit(visibility.value)
    d, clamped_d = _ref_clamp_unit(distinguishability.value)
    return _ref_route_report(
        "formula", _ref_duality_from_v_d(v, d), v, visibility.sigma, d, distinguishability.sigma,
        clamped_v=clamped_v, clamped_d=clamped_d, dropped_points=dropped_points,
    )


def _ref_definition_route(scan_open, distinguishability, dropped_points=0):
    if scan_open.block != "none":
        raise ContractViolation("definition route needs an open scan first")
    d = distinguishability.value
    hz = h_min(ProbDist(np.array([(1.0 + d) / 2.0, (1.0 - d) / 2.0]), ("guess_hit", "guess_miss")))
    i_max, i_min = _ref_extremal_indices(scan_open)
    t_max, t_min = float(scan_open.totals[i_max]), float(scan_open.totals[i_min])
    p_max = float(scan_open.n1[i_max]) / t_max
    p_min = float(scan_open.n1[i_min]) / t_min
    s = p_max + p_min
    if s <= 0:
        raise EstimationError("zero detector-1 probability at both fringe extrema")
    hw = h_max(ProbDist(np.array([p_max, p_min]) / s, ("fringe_max", "fringe_min")))
    contrast = (p_max - p_min) / s
    var_p = (p_max * (1.0 - p_max) / t_max, p_min * (1.0 - p_min) / t_min)
    var_c = _ref_ratio_variance(p_max, p_min, s, *var_p)
    eur_sum, eur_ok = _ref_eur_check(hz, hw)
    q = replace(_ref_duality_from_v_d(contrast, d), h_min_z=hz, h_max_w=hw, eur_sum=eur_sum, eur_satisfied=eur_ok)
    return _ref_route_report(
        "definition", q, contrast, math.sqrt(var_c), d, distinguishability.sigma, dropped_points=dropped_points,
    )


def _ref_equivalence(route_a, route_b, k=1.0):
    qa, qb = route_a.quantities, route_b.quantities
    d_h_min = abs(qa.h_min_z - qb.h_min_z)
    d_h_max = abs(qa.h_max_w - qb.h_max_w)
    d_eur = abs(qa.eur_sum - qb.eur_sum)
    return EquivalenceReport(
        d_h_min=d_h_min, d_h_max=d_h_max, d_eur=d_eur,
        within_h_min=bool(d_h_min <= k * (route_a.h_min_sigma + route_b.h_min_sigma)),
        within_h_max=bool(d_h_max <= k * (route_a.h_max_sigma + route_b.h_max_sigma)),
        within_eur=bool(d_eur <= k * (route_a.eur_sigma + route_b.eur_sigma)),
        k=k,
    )


def _ref_duality_report(scan_open, scan_blocked_0, scan_blocked_1, k=1.0):
    visibility = _ref_visibility(scan_open)
    distinguishability = _ref_distinguishability(scan_blocked_0, scan_blocked_1)
    if abs(scan_open.phi_s - scan_blocked_0.phi_s) > ATOL_ALGEBRAIC:
        raise ContractViolation("open and blocked scans must share the same phi_s")
    dropped = sum(int(np.count_nonzero(s.totals == 0)) for s in (scan_open, scan_blocked_0, scan_blocked_1))
    formula = _ref_formula_route(visibility, distinguishability, dropped_points=dropped)
    definition = _ref_definition_route(scan_open, distinguishability, dropped_points=dropped)
    return DualityReport(
        phi_s=scan_open.phi_s, visibility=visibility, distinguishability=distinguishability,
        formula=formula, definition=definition, equivalence=_ref_equivalence(formula, definition, k=k),
    )


def _outcome(compute):
    """What ``compute`` returns, or the type and message of the library error it raises."""
    try:
        return compute()
    except (ContractViolation, EstimationError) as exc:
        return type(exc), str(exc)


def _bits(x):
    """``x`` with every float as its exact hex form, so -0.0 and 0.0 differ too."""
    if dataclasses.is_dataclass(x):
        return type(x).__name__, [_bits(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (list, tuple)):
        return [_bits(e) for e in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    return x


def _in_block_order(triple):
    """A setting's scans as (open, path0, path1), the roles duality_report reads off their labels."""
    return sorted(triple, key=lambda s: BLOCKS.index(s.block))


def assert_same_as_reference(triples, k=1.0):
    """duality_report over all settings, as one flat list, gives what the reference gives setting by setting."""
    want = _outcome(lambda: [_ref_duality_report(*_in_block_order(t), k=k) for t in triples])
    got = _outcome(lambda: duality_report([scan for t in triples for scan in t], k=k))
    assert _bits(got) == _bits(want)
    assert got == want
    for scan_open, scan_b0, scan_b1 in triples:  # the per-setting estimators are one-row calls of the same pass
        for new, ref in ((estimate_visibility, _ref_visibility), (estimate_distinguishability, _ref_distinguishability)):
            args = (scan_open,) if new is estimate_visibility else (scan_b0, scan_b1)
            assert _bits(_outcome(lambda: new(*args))) == _bits(_outcome(lambda: ref(*args)))
        d = _outcome(lambda: _ref_distinguishability(scan_b0, scan_b1))
        if isinstance(d, EstimateWithError):
            assert _bits(_outcome(lambda: eur_definition_route(scan_open, d, 2))) == \
                _bits(_outcome(lambda: _ref_definition_route(scan_open, d, 2)))
            v = _outcome(lambda: _ref_visibility(scan_open))
            definition = _outcome(lambda: _ref_definition_route(scan_open, d, 2))
            if isinstance(v, EstimateWithError) and isinstance(definition, RouteReport):
                formula = eur_formula_route(v, d, 1)
                assert _bits(formula) == _bits(_ref_formula_route(v, d, 1))
                assert _bits(equivalence_report(formula, definition, k)) == \
                    _bits(_ref_equivalence(formula, definition, k))
    return got


GRID_STEPS = (8, 9, 16, 33, 130)
BROKEN = ("all_zero_open", "few_kept", "zero_path0", "zero_path1", "open_phi_s", "blocked_phi_s", "swapped_blocks")


def _triple(phi_s, steps, open_counts, b0_counts, b1_counts, pulses=1000):
    x = np.linspace(0.0, 2.0 * math.pi, steps, endpoint=False)
    return tuple(
        FringeScan(phi_s=phi_s, block=block, phi_x=x, n1=n1, n2=n2, pulses_per_point=pulses)
        for block, (n1, n2) in zip(BLOCKS, (open_counts, b0_counts, b1_counts))
    )


def _sweep_triple(phi_s, steps, pulses, coherence, seed, mode):
    plan = RunPlan(phi_s_values=(phi_s,), phi_x_grid=(0.0, 2.0 * math.pi, steps),
                   pulses_per_point=pulses, coherence=coherence, seed=seed)
    by_block = {s.block: s for s in run_sweep(plan, mode=mode)}
    return tuple(by_block[b] for b in BLOCKS)


@st.composite
def setting(draw, steps):
    """The open, path0 and path1 scans of one phi_s: sampled, ideal, drawn counts, or broken."""
    kind = draw(st.sampled_from(("montecarlo", "montecarlo", "ideal", "counts", "counts", "broken")))
    phi_s = draw(st.sampled_from((0.0, math.pi / 4, math.pi / 2)) | st.floats(0.0, math.pi))
    if kind in ("montecarlo", "ideal"):
        pulses = draw(st.sampled_from((20, 200, 4000, 120_000)) if kind == "montecarlo" else st.integers(1, 10**7))
        coherence = draw(st.sampled_from((0.0, 0.5, 0.967, 1.0)))
        return _sweep_triple(phi_s, steps, pulses, coherence, draw(st.integers(0, 2**32)), kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))  # drawing each count would make the test slow
    top = draw(st.sampled_from((2, 5, 1000)))
    counts = lambda: rng.integers(0, top + 1, size=steps).astype(float)  # noqa: E731
    open_counts = (counts(), counts())
    blocked = []
    for _ in range(2):
        n1, shape = counts(), draw(st.sampled_from(("one_sided", "balanced", "drawn")))
        blocked.append((n1, np.zeros(steps) if shape == "one_sided" else n1 if shape == "balanced" else counts()))
    if kind == "counts":
        return _triple(phi_s, steps, open_counts, *blocked)
    fault = draw(st.sampled_from(BROKEN))
    zero = (np.zeros(steps), np.zeros(steps))
    if fault == "all_zero_open":
        open_counts = zero
    elif fault == "few_kept":
        open_counts = tuple(np.where(np.arange(steps) < 3, c + 1.0, 0.0) for c in open_counts)
    elif fault in ("zero_path0", "zero_path1"):
        blocked[fault == "zero_path1"] = zero
    scans = _triple(phi_s, steps, open_counts, *blocked)
    if fault == "open_phi_s":
        scans = (replace(scans[0], phi_s=phi_s + 0.1),) + scans[1:]
    elif fault == "blocked_phi_s":
        scans = scans[:2] + (replace(scans[2], phi_s=phi_s + 0.1),)
    elif fault == "swapped_blocks":
        scans = (scans[0], scans[2], scans[1])
    return scans


@st.composite
def settings_of_one_grid(draw):
    steps = draw(st.sampled_from(GRID_STEPS))
    return draw(st.lists(setting(steps), min_size=1, max_size=5))


class TestArrayPassMatchesReference:
    @settings(max_examples=200, deadline=None, derandomize=True)  # the same examples on every run
    @given(triples=settings_of_one_grid(), k=st.sampled_from((1.0, 3.0)))
    def test_every_field_and_error(self, triples, k):
        assert_same_as_reference(triples, k)

    def test_edge_branches(self):
        flat = np.full(32, 50.0)
        peak_low = flat.copy(), flat.copy()
        peak_low[0][4], peak_low[1][4] = 9.0, 1.0  # p_hat 0.9 on only 10 clicks
        peak_low[0][12], peak_low[1][12] = 100.0, 900.0  # p_hat 0.1 on heavy exposure
        dark_min = flat.copy(), flat.copy()
        dark_min[0][7] = 0.0  # detector 1 dark at the minimum: V = 1
        one_sided, balanced = (flat, np.zeros(32)), (flat, flat)
        triples = [
            _triple(0.3, 32, peak_low, one_sided, one_sided),  # V < 0 (clamped), D = 1
            _triple(0.6, 32, dark_min, balanced, balanced),  # V = 1 (slope-0 branch), D = 0
        ]
        # the low-count sweep of the edge golden: 4000 pulses per point, coherence 0, seed 3
        plan = RunPlan(phi_s_values=(0.0, math.pi / 4, math.pi / 2), pulses_per_point=4000, coherence=0.0, seed=3)
        scans = run_sweep(plan)
        triples += [tuple(scans[i:i + len(BLOCKS)]) for i in range(0, len(scans), len(BLOCKS))]
        # an ideal setting whose V sigma moves in the last bit if the squares multiply instead of calling pow
        triples.append(_sweep_triple(0.9040558713560102, 32, 120_000, 1.0, 0, "ideal"))
        reports = assert_same_as_reference(triples)
        assert reports[0].formula.clamped_v and reports[0].distinguishability.value == 1.0
        assert reports[1].visibility.value == 1.0 and reports[1].formula.h_max_sigma == 0.0
        assert reports[1].distinguishability.value == 0.0
        # coherence 0 at 4000 pulses: zero-count points dropped, V = 1 where detector 1 stays dark
        assert sum(r.formula.dropped_points for r in reports[2:5]) == 14
        assert [r.visibility.value for r in reports[2:5]] == [1.0, 0.5, 1.0]

    @pytest.mark.parametrize("faults", [("zero_path1", "open_phi_s"), ("open_phi_s", "zero_path1"),
                                        ("swapped_blocks", "all_zero_open"), ("few_kept", "blocked_phi_s")])
    def test_first_failing_setting_raises(self, faults):
        good = _sweep_triple(math.pi / 4, 16, 120_000, 0.967, 1, "montecarlo")
        broken = []
        for fault in faults:
            o, b0, b1 = (s for s in good)
            if fault == "zero_path1":
                b1 = replace(b1, n1=np.zeros(16), n2=np.zeros(16))
            elif fault == "open_phi_s":
                o = replace(o, phi_s=1.0)
            elif fault == "swapped_blocks":
                b0, b1 = b1, b0
            elif fault == "all_zero_open":
                o = replace(o, n1=np.zeros(16), n2=np.zeros(16))
            elif fault == "few_kept":
                o = replace(o, n1=np.where(np.arange(16) < 3, o.n1, 0.0), n2=np.where(np.arange(16) < 3, o.n2, 0.0))
            elif fault == "blocked_phi_s":
                b1 = replace(b1, phi_s=1.0)
            broken.append((o, b0, b1))
        triples = [good, broken[0], good, broken[1]]
        first, second = (_outcome(lambda t=t: _ref_duality_report(*_in_block_order(t))) for t in broken)
        # labels fix the roles, so swapped blocked scans are no fault and the second setting's error is raised
        assert isinstance(first, tuple) != ("swapped_blocks" in faults)
        assert isinstance(second, tuple) and first != second
        assert assert_same_as_reference(triples) == (second if "swapped_blocks" in faults else first)
