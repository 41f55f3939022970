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
    fit_fringe,
    h_max,
    h_max_from_visibility,
    h_min,
    h_min_from_distinguishability,
    run_sweep,
)
from dualitysim.entropy import duality_columns
from dualitysim.estimators import MIN_FRINGE_POINTS, flatness_check
from dualitysim.tolerances import ATOL_ALGEBRAIC, INEQ_SLACK

PHI_X_16 = np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False)


def scan(n1, n2, phi_x=PHI_X_16):
    """A hand-built scan, as flatness_check and fit_fringe take it."""
    n1 = np.asarray(n1, dtype=float)
    return FringeScan(phi_x=phi_x[: n1.size], n1=n1, n2=np.asarray(n2, dtype=float))


def score(open_counts, b0_counts, b1_counts, phi_s=0.0, grid=None):
    """The scorecard of one setting from its open, path0 and path1 (n1, n2) counts.

    The plan's phi_x grid defaults to one period over as many points as the counts hold.
    """
    counts = np.array([[open_counts, b0_counts, b1_counts]], dtype=float)
    plan = RunPlan(phi_s_values=(phi_s,), phi_x_grid=grid or (0.0, 2.0 * math.pi, counts.shape[-1]))
    [rep] = duality_report(plan, counts)
    return rep


def ideal_sweep(phi_s, coherence=1.0, steps=32, pulses=120_000):
    """The plan of one noiseless setting and its counts."""
    plan = RunPlan(
        phi_s_values=(phi_s,), phi_x_grid=(0.0, 2.0 * math.pi, steps),
        pulses_per_point=pulses, coherence=coherence, seed=0,
    )
    return plan, run_sweep(plan, mode="ideal")


def ideal_report(phi_s, **kwargs):
    """The scorecard of one noiseless setting."""
    [rep] = duality_report(*ideal_sweep(phi_s, **kwargs))
    return rep


def with_balanced_blocked(n1, n2, n=500.0, grid=None):
    """A lone open scan with blocked scans of D = 0 on its grid."""
    counts = np.full(np.size(n1), n)
    return score((n1, n2), (counts, counts), (counts, counts), grid=grid)


def with_ideal_open(b0, b1):
    """A lone blocked pair with a full-contrast open scan (V = 1) on its grid."""
    p = 0.5 * (1.0 + np.sin(PHI_X_16[: np.size(b0[0])]))
    return score((1000.0 * p, 1000.0 * (1.0 - p)), b0, b1)


def low_exposure_peak():
    """Open (n1, n2) counts whose fringe max has fewer detector-1 counts than its min, so V < 0."""
    n1 = np.full(16, 50.0)
    n2 = np.full(16, 50.0)
    n1[4], n2[4] = 9.0, 1.0     # p_hat = 0.9, only 10 clicks
    n1[12], n2[12] = 100.0, 900.0  # p_hat = 0.1, heavy exposure
    return n1, n2


class TestVisibility:
    def test_poisson_propagation_example(self):
        # fringe peak 900 counts, trough 100 counts
        n1 = np.full(16, 500.0)
        n1[4], n1[12] = 900.0, 100.0
        est = with_balanced_blocked(n1, 1000.0 - n1).visibility
        assert est.value == pytest.approx(0.8, abs=1e-12)
        assert est.sigma == pytest.approx(0.018973665961010275, abs=1e-12)

    def test_flat_fringe_zero_visibility(self):
        est = with_balanced_blocked(np.full(16, 500.0), np.full(16, 500.0)).visibility
        assert est.value == pytest.approx(0.0, abs=1e-12)

    def test_ideal_model_matches_contrast_law(self):
        # 32-point grid lands exactly on the fringe extrema
        for phi_s in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
            for gamma in (1.0, 0.967):
                est = ideal_report(phi_s, coherence=gamma).visibility
                assert est.value == pytest.approx(gamma * math.sin(phi_s), abs=1e-12)

    def test_dense_grid_resolution_bound(self):
        # grid spacing below pi/128 keeps the worst-case peak miss tiny
        steps = 512
        est = ideal_report(1.0, coherence=0.9, steps=steps).visibility
        spacing = 2.0 * math.pi / steps
        bound = 0.9 * math.sin(1.0) * (spacing / 2.0) ** 2 / 2.0 + 1e-12
        assert abs(est.value - 0.9 * math.sin(1.0)) <= bound

    def test_requires_enough_points(self):
        with pytest.raises(ContractViolation, match="need at least"):
            with_balanced_blocked(np.full(4, 1.0), np.full(4, 1.0))

    def test_requires_full_period(self):
        with pytest.raises(ContractViolation, match="less than one fringe period"):
            with_balanced_blocked(np.full(16, 1.0), np.full(16, 1.0), grid=(0.0, math.pi, 16))  # half a period

    def test_all_zero_counts(self):
        with pytest.raises(EstimationError, match="all points in scan have zero counts"):
            with_balanced_blocked(np.zeros(16), np.zeros(16))

    def test_empty_points_dropped(self):
        n1 = np.full(16, 500.0)
        n2 = np.full(16, 500.0)
        n1[3] = n2[3] = 0.0  # dead point must not poison the estimate
        est = with_balanced_blocked(n1, n2).visibility
        assert est.value == pytest.approx(0.0, abs=1e-12)


class TestDistinguishability:
    def test_mirror_mode(self):
        b0 = (np.full(16, 1000.0), np.zeros(16))
        b1 = (np.zeros(16), np.full(16, 1000.0))
        est = with_ideal_open(b0, b1).distinguishability
        assert est.value == pytest.approx(1.0, abs=1e-12)
        # boundary estimate carries the one-count floor, not zero sigma
        assert 0.0 < est.sigma < 1e-3

    def test_balanced_mode(self):
        b0 = (np.full(16, 500.0), np.full(16, 500.0))
        b1 = (np.full(16, 500.0), np.full(16, 500.0))
        assert with_ideal_open(b0, b1).distinguishability.value == pytest.approx(0.0, abs=1e-12)

    def test_ideal_intermediate_setting(self):
        est = ideal_report(math.pi / 3).distinguishability
        assert est.value == pytest.approx(0.5, abs=1e-12)

    def test_zero_counts(self):
        b0 = (np.zeros(16), np.zeros(16))
        b1 = (np.zeros(16), np.full(16, 1.0))
        with pytest.raises(EstimationError, match=r"zero total counts in blocked scan \(path0\)"):
            with_ideal_open(b0, b1)


class TestFormulaRoute:
    def test_extreme_inputs(self):
        # full contrast (detector 1 dark at the fringe minimum), balanced blocked scans: V = 1, D = 0
        p = 0.5 * (1.0 + np.sin(PHI_X_16))
        report = with_balanced_blocked(1000.0 * p, 1000.0 * (1.0 - p)).formula
        assert (report.quantities.v, report.quantities.d) == (1.0, 0.0)
        assert report.quantities.eur_sum == pytest.approx(1.0, abs=1e-12)
        assert report.quantities.eur_satisfied

    def test_saturated_pair(self):
        q = duality_columns(math.sin(math.pi / 4), math.cos(math.pi / 4))
        assert q["eur_sum"] == pytest.approx(1.0, abs=1e-12)

    def test_high_visibility_point(self):
        q = duality_columns(0.967, 0.0)
        assert q["eur_sum"] == pytest.approx(1.3274302685677908, abs=1e-12)

    def test_clamping_flagged(self):
        # V < 0 from the counts, D = 0.5 from blocked scans with 3:1 pooled counts
        b0 = (np.full(16, 75.0), np.full(16, 25.0))
        b1 = (np.full(16, 25.0), np.full(16, 75.0))
        report = score(low_exposure_peak(), b0, b1).formula
        assert report.clamped_v and not report.clamped_d
        assert report.quantities.v == 0.0 and report.quantities.d == 0.5

    def test_visibility_clamp_reachable_from_counts(self):
        # a low-exposure peak can put fewer detector-1 counts at the fringe
        # max than at the min; the route must clamp, not crash
        rep = with_balanced_blocked(*low_exposure_peak())
        assert rep.visibility.value < 0.0
        assert rep.formula.clamped_v


class TestDefinitionRoute:
    def test_ideal_matches_formula_route(self):
        for phi_s in (0.0, math.pi / 8, math.pi / 4, math.pi / 2):
            rep = ideal_report(phi_s)
            defn, formula = rep.definition, rep.formula
            assert defn.quantities.h_min_z == pytest.approx(formula.quantities.h_min_z, abs=1e-12)
            assert defn.quantities.h_max_w == pytest.approx(formula.quantities.h_max_w, abs=1e-12)

    def test_mirror_setting(self):
        defn = ideal_report(0.0).definition
        assert defn.quantities.h_min_z == pytest.approx(0.0, abs=1e-12)
        assert defn.quantities.h_max_w == pytest.approx(1.0, abs=1e-12)

    def test_balanced_setting(self):
        defn = ideal_report(math.pi / 2, coherence=1.0).definition
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
            rep = score(*(raw / raw.sum(axis=0) for raw in (raw_open, raw_b0, raw_b1)), phi_s=phi_s)
            defn, formula = rep.definition, rep.formula
            assert abs(defn.quantities.h_min_z - formula.quantities.h_min_z) < 1e-12
            assert abs(defn.quantities.h_max_w - formula.quantities.h_max_w) < 1e-12


class TestEquivalenceAndReports:
    def test_ideal_diffs_vanish_for_any_phi_s(self):
        plan = RunPlan(phi_s_values=tuple(np.linspace(0.0, math.pi / 2, 9)), coherence=1.0, seed=0)
        reports = duality_report(plan, run_sweep(plan, mode="ideal"))
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
            [rep] = duality_report(plan, run_sweep(plan))
            eq, f, d = rep.equivalence, rep.formula, rep.definition
            hits += (eq.d_h_min <= 3.0 * (f.h_min_sigma + d.h_min_sigma)
                     and eq.d_h_max <= 3.0 * (f.h_max_sigma + d.h_max_sigma)
                     and eq.d_eur <= 3.0 * (f.eur_sigma + d.eur_sigma))
        assert hits >= 0.99 * len(seeds)

    def test_sigma_scaling_with_counts(self):
        [small] = duality_report(*ideal_sweep(math.pi / 8, pulses=200_000))
        [big] = duality_report(*ideal_sweep(math.pi / 8, pulses=800_000))
        for pick in (lambda rep: rep.visibility, lambda rep: rep.distinguishability):
            ratio = pick(small).sigma / pick(big).sigma
            assert abs(ratio - 2.0) < 0.1  # fourfold counts halve sigma within 5%

    def test_dropped_points_counted(self):
        plan, counts = ideal_sweep(math.pi / 4)
        counts[0, BLOCKS.index("none"), :, 5] = 0.0
        [rep] = duality_report(plan, counts)
        assert rep.formula.dropped_points == 1
        assert rep.definition.dropped_points == 1

    def test_plan_without_every_block_rejected(self):
        plan = RunPlan(phi_s_values=(math.pi / 4,), blocks=("none", "path1"))
        with pytest.raises(ContractViolation, match="one open, one path0 and one path1"):
            duality_report(plan, run_sweep(plan, mode="ideal"))

    @pytest.mark.parametrize("shape", [(2, 3, 2, 32), (1, 3, 2, 31), (1, 3, 32), (3, 2, 32)])
    def test_counts_of_another_shape_rejected(self, shape):
        plan, _ = ideal_sweep(math.pi / 4)
        with pytest.raises(ContractViolation, match=r"^counts need the plan's \(phi_s, block, detector, phi_x\) shape"):
            duality_report(plan, np.ones(shape))

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf, -math.inf])
    def test_bad_counts_rejected_first_in_plan_order(self, value):
        # the message names the detector of the first bad cell in (phi_s, block, detector, phi_x) order
        plan = RunPlan(phi_s_values=(0.3, 0.6), phi_x_grid=(0.0, 2.0 * math.pi, 16))
        for (s, b, det, x), later in (((0, 2, 1, 9), (1, 0, 0, 0)), ((1, 0, 0, 3), (1, 0, 1, 0))):
            counts = run_sweep(plan, mode="ideal")
            counts[s, b, det, x] = counts[later] = value
            with pytest.raises(ContractViolation, match=f"^n{det + 1} counts must be finite and nonnegative"):
                duality_report(plan, counts)

    def test_block_order_leaves_reports_unchanged(self):
        # each block is read off the plan, so the order of the block axis changes nothing
        plan = RunPlan(phi_s_values=(0.0, 0.7, 0.7, math.pi / 2), pulses_per_point=4000, seed=5)
        counts = run_sweep(plan)
        want = _bits(duality_report(plan, counts))
        assert len(want) == 4
        for blocks in (BLOCKS[::-1], ("path0", "none", "path1")):
            reordered = replace(plan, blocks=blocks)
            assert _bits(duality_report(reordered, run_sweep(reordered))) == want
            by_hand = counts[:, [BLOCKS.index(b) for b in blocks]]
            assert _bits(duality_report(reordered, by_hand)) == want


def _scan_fields(**changes):
    fields = dict(phi_x=PHI_X_16[:4], n1=np.full(4, 2.0), n2=np.full(4, 3.0))
    return {**fields, **changes}


def _with(name, i, value):
    arr = _scan_fields()[name].copy()
    arr[i] = value
    return {name: arr}


# Each fault of FringeScan's contract, in the order the checks run, with its message.
SCAN_FAULTS = [
    ("empty_scan", {"phi_x": [], "n1": [], "n2": []}, "scan needs at least one point"),
    ("unequal_lengths", {"n2": np.full(3, 3.0)}, "phi_x, n1, n2 must have equal lengths"),
    ("repeated_phi_x", _with("phi_x", 2, PHI_X_16[1]), "phi_x must be strictly increasing"),
    ("decreasing_phi_x", {"phi_x": PHI_X_16[:4][::-1]}, "phi_x must be strictly increasing"),
    *[(f"{name}_{label}", _with(name, 1, value), f"{name} counts must be finite and nonnegative")
      for name in ("n1", "n2")
      for label, value in (("negative", -1.0), ("nan", math.nan), ("inf", math.inf), ("minus_inf", -math.inf))],
]


class TestScanValidation:
    @pytest.mark.parametrize("changes,message", [f[1:] for f in SCAN_FAULTS], ids=[f[0] for f in SCAN_FAULTS])
    def test_each_fault_raises_its_message(self, changes, message):
        with pytest.raises(ContractViolation, match=f"^{message}"):
            FringeScan(**_scan_fields(**changes))

    def test_checks_run_in_order(self):
        # Two faults in different fields: the one whose check comes first is reported.
        pairs = 0
        for i, (_, first, message) in enumerate(SCAN_FAULTS):
            for _, later, later_message in SCAN_FAULTS[i + 1:]:
                if later_message != message and not set(first) & set(later):
                    pairs += 1
                    with pytest.raises(ContractViolation, match=f"^{message}"):
                        FringeScan(**_scan_fields(**later, **first))
        assert pairs == 38

    def test_stores_read_only_float64_copies(self):
        phi_x, n1, n2 = PHI_X_16[:4].copy(), np.arange(4, dtype=np.int64), [1, 2, 3, 4]
        s = FringeScan(phi_x, n1, n2)
        for stored in (s.phi_x, s.n1, s.n2):
            assert stored.dtype == np.float64 and not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 7.0
        phi_x[0], n1[0] = -1.0, 99
        assert s.phi_x[0] == 0.0 and s.n1[0] == 0.0
        assert not np.shares_memory(s.phi_x, phi_x)

    def test_zero_d_inputs_become_one_point(self):
        s = FringeScan(np.float64(0.5), np.array(3.0), 4)
        assert s.phi_x.shape == s.n1.shape == s.n2.shape == (1,)
        assert (s.phi_x[0], s.n1[0], s.n2[0]) == (0.5, 3.0, 4.0)


class TestFlatnessAndFit:
    def test_flat_scan_passes(self):
        s = scan(np.full(16, 40.0), np.full(16, 38.0))
        assert flatness_check(s).flat

    def test_fringing_scan_fails(self):
        p = 0.5 * (1.0 + 0.9 * np.sin(PHI_X_16))
        s = scan(1000 * p, 1000 * (1 - p))
        assert not flatness_check(s).flat

    def test_degenerate_one_sided_scan_passes(self):
        s = scan(np.full(16, 40.0), np.zeros(16))
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


@dataclasses.dataclass(frozen=True)
class _RefScan:
    """One setting's scan at one block, the record the reference reads."""

    phi_s: float
    block: str
    phi_x: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    @property
    def totals(self):
        return self.n1 + self.n2


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


def assert_same_as_reference(settings, blocks=BLOCKS):
    """duality_report over one plan of all settings gives what the reference gives setting by setting.

    Each setting is (phi_s, its open, path0 and path1 (n1, n2) counts); the
    plan's block axis runs in ``blocks`` order.
    """
    plan = RunPlan(phi_s_values=[phi_s for phi_s, _ in settings], blocks=blocks,
                   phi_x_grid=(0.0, 2.0 * math.pi, settings[0][1].shape[-1]))
    phi_x = plan.phi_x_values()
    want = _outcome(lambda: [_ref_duality_report(*(_RefScan(phi_s, block, phi_x, *c) for block, c in zip(BLOCKS, counts)))
                             for phi_s, counts in settings])
    counts = np.array([[counts[BLOCKS.index(block)] for block in blocks] for _, counts in settings])
    got = _outcome(lambda: duality_report(plan, counts))
    assert _bits(got) == _bits(want)
    assert got == want
    return got


GRID_STEPS = (8, 9, 16, 33, 130)
BROKEN = ("all_zero_open", "few_kept", "zero_path0", "zero_path1")


def _setting(phi_s, open_counts, b0_counts, b1_counts):
    return phi_s, np.array([open_counts, b0_counts, b1_counts], dtype=float)


def _sweep_setting(phi_s, steps, pulses, coherence, seed, mode):
    plan = RunPlan(phi_s_values=(phi_s,), phi_x_grid=(0.0, 2.0 * math.pi, steps),
                   pulses_per_point=pulses, coherence=coherence, seed=seed)
    return phi_s, run_sweep(plan, mode=mode)[0]


def _broken(phi_s, counts, fault):
    """A copy of a setting with one fault: an empty open scan, three kept open points, or an empty blocked scan."""
    counts = counts.copy()
    if fault == "all_zero_open":
        counts[0] = 0.0
    elif fault == "few_kept":
        counts[0] = np.where(np.arange(counts.shape[-1]) < 3, counts[0] + 1.0, 0.0)
    else:
        counts[BLOCKS.index(fault.removeprefix("zero_"))] = 0.0
    return phi_s, counts


@st.composite
def setting(draw, steps):
    """The open, path0 and path1 counts of one phi_s: sampled, ideal, drawn counts, or broken."""
    kind = draw(st.sampled_from(("montecarlo", "montecarlo", "ideal", "counts", "counts", "broken")))
    phi_s = draw(st.sampled_from((0.0, math.pi / 4, math.pi / 2)) | st.floats(0.0, math.pi))
    if kind in ("montecarlo", "ideal"):
        pulses = draw(st.sampled_from((20, 200, 4000, 120_000)) if kind == "montecarlo" else st.integers(1, 10**7))
        coherence = draw(st.sampled_from((0.0, 0.5, 0.967, 1.0)))
        return _sweep_setting(phi_s, steps, pulses, coherence, draw(st.integers(0, 2**32)), kind)
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))  # drawing each count would make the test slow
    top = draw(st.sampled_from((2, 5, 1000)))
    counts = lambda: rng.integers(0, top + 1, size=steps).astype(float)  # noqa: E731
    open_counts = (counts(), counts())
    blocked = []
    for _ in range(2):
        n1, shape = counts(), draw(st.sampled_from(("one_sided", "balanced", "drawn")))
        blocked.append((n1, np.zeros(steps) if shape == "one_sided" else n1 if shape == "balanced" else counts()))
    good = _setting(phi_s, open_counts, *blocked)
    return good if kind == "counts" else _broken(*good, draw(st.sampled_from(BROKEN)))


@st.composite
def settings_of_one_plan(draw):
    """Up to five settings on one phi_x grid, and the order of the plan's block axis."""
    steps = draw(st.sampled_from(GRID_STEPS))
    return draw(st.lists(setting(steps), min_size=1, max_size=5)), draw(st.permutations(BLOCKS))


class TestArrayPassMatchesReference:
    @settings(max_examples=200, deadline=None, derandomize=True)  # the same examples on every run
    @given(case=settings_of_one_plan())
    def test_every_field_and_error(self, case):
        assert_same_as_reference(*case)

    def test_edge_branches(self):
        flat = np.full(32, 50.0)
        peak_low = flat.copy(), flat.copy()
        peak_low[0][4], peak_low[1][4] = 9.0, 1.0  # p_hat 0.9 on only 10 clicks
        peak_low[0][12], peak_low[1][12] = 100.0, 900.0  # p_hat 0.1 on heavy exposure
        dark_min = flat.copy(), flat.copy()
        dark_min[0][7] = 0.0  # detector 1 dark at the minimum: V = 1
        one_sided, balanced = (flat, np.zeros(32)), (flat, flat)
        cases = [
            _setting(0.3, peak_low, one_sided, one_sided),  # V < 0 (clamped), D = 1
            _setting(0.6, dark_min, balanced, balanced),  # V = 1 (slope-0 branch), D = 0
        ]
        # the low-count sweep of the edge golden: 4000 pulses per point, coherence 0, seed 3
        plan = RunPlan(phi_s_values=(0.0, math.pi / 4, math.pi / 2), pulses_per_point=4000, coherence=0.0, seed=3)
        cases += list(zip(plan.phi_s_values, run_sweep(plan)))
        # an ideal setting whose V sigma moves in the last bit if the squares multiply instead of calling pow
        cases.append(_sweep_setting(0.9040558713560102, 32, 120_000, 1.0, 0, "ideal"))
        reports = assert_same_as_reference(cases)
        assert reports[0].formula.clamped_v and reports[0].distinguishability.value == 1.0
        assert reports[1].visibility.value == 1.0 and reports[1].formula.h_max_sigma == 0.0
        assert reports[1].distinguishability.value == 0.0
        # coherence 0 at 4000 pulses: zero-count points dropped, V = 1 where detector 1 stays dark
        assert sum(r.formula.dropped_points for r in reports[2:5]) == 14
        assert [r.visibility.value for r in reports[2:5]] == [1.0, 0.5, 1.0]

    @pytest.mark.parametrize("blocks", [BLOCKS, ("path1", "none", "path0")], ids=["blocks_in_order", "blocks_permuted"])
    @pytest.mark.parametrize("faults", [("zero_path1", "all_zero_open"), ("all_zero_open", "zero_path1"),
                                        ("few_kept", "zero_path0"), ("zero_path0", "few_kept")], ids="-".join)
    def test_first_failing_setting_raises(self, faults, blocks):
        good = _sweep_setting(math.pi / 4, 16, 120_000, 0.967, 1, "montecarlo")
        broken = [_broken(*good, fault) for fault in faults]
        first, second = (assert_same_as_reference([case], blocks) for case in broken)
        assert isinstance(first, tuple) and isinstance(second, tuple) and first != second
        assert assert_same_as_reference([good, broken[0], good, broken[1]], blocks) == first
