"""Estimators turning detector counts into V, D, entropies, and error bars.

Two routes are computed side by side and reported together:

* the formula route feeds the count-based visibility and distinguishability
  estimates into the duality closed forms;
* the definition route applies the min/max-entropy definitions directly to
  measured probability distributions (the bias distribution of the pooled
  distinguishability estimate D for the particle side, the renormalized pair
  of fringe-extremal detector probabilities for the wave side).

For binary data the two routes are algebraically identical; with raw counts
they consume slightly different data (raw counts vs per-point-normalized
probabilities), so Monte Carlo runs show small differences that must stay
within the propagated error bars.

Error bars use first-order (delta method) propagation with Poisson variance
equal to the count, and no bootstrap.  One helper carries the propagation
through every contrast ratio (a - b)/(a + b), and one carries the V and D
sigmas into both routes' entropy and bound sigmas.  Fringe extrema are taken
directly from the measured grid (argmax/argmin, ties broken toward the lowest
phi_x): the optional sinusoid fit below is presentation-only and never feeds
entropies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entropy import DualityQuantities, duality_from_v_d, eur_check, h_max, h_min
from .errors import ContractViolation, EstimationError
from .optics import BLOCK_NONE, BLOCK_PATH0, BLOCK_PATH1, BLOCKS
from .states import ProbDist
from .tolerances import ATOL_ALGEBRAIC

LN2 = math.log(2.0)

# Fewest usable phi_x points a visibility estimate accepts.
MIN_FRINGE_POINTS = 8

FORMULA_ROUTE = "formula"
DEFINITION_ROUTE = "definition"


@dataclass(frozen=True)
class FringeScan:
    """Counts at both detectors along a phi_x sweep at one (phi_s, block) setting."""

    phi_s: float
    block: str
    phi_x: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    pulses_per_point: int

    def __post_init__(self):
        for name in ("phi_x", "n1", "n2"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=np.float64)).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.block not in BLOCKS:
            raise ContractViolation(f"block must be one of {BLOCKS}, got {self.block!r}")
        if self.phi_x.size == 0:
            raise ContractViolation("scan needs at least one point")
        if not (self.phi_x.size == self.n1.size == self.n2.size):
            raise ContractViolation("phi_x, n1, n2 must have equal lengths")
        if np.any(np.diff(self.phi_x) <= 0):
            raise ContractViolation("phi_x must be strictly increasing")
        for name, arr in (("n1", self.n1), ("n2", self.n2)):
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ContractViolation(f"{name} counts must be finite and nonnegative")
        if self.pulses_per_point < 0:
            raise ContractViolation("pulses_per_point must be nonnegative")

    @property
    def totals(self) -> np.ndarray:
        return self.n1 + self.n2

    @property
    def empty_points(self) -> int:
        """Points with zero total counts; these are dropped by the estimators."""
        return int(np.count_nonzero(self.totals == 0))


@dataclass(frozen=True)
class EstimateWithError:
    value: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.sigma)):
            raise ContractViolation("estimate and sigma must be finite")
        if self.sigma < 0:
            raise ContractViolation("sigma must be nonnegative")


@dataclass(frozen=True)
class RouteReport:
    """One route's duality quantities plus propagated error bars."""

    route: str
    quantities: DualityQuantities
    h_min_sigma: float
    h_max_sigma: float
    eur_sigma: float
    wpdr_sigma: float
    clamped_v: bool = False
    clamped_d: bool = False
    dropped_points: int = 0


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-quantity absolute differences between two routes, with sigma flags."""

    d_h_min: float
    d_h_max: float
    d_eur: float
    within_h_min: bool
    within_h_max: bool
    within_eur: bool
    k: float = 1.0


@dataclass(frozen=True)
class DualityReport:
    """Everything measured at one phi_s: V, D, both routes, route agreement."""

    phi_s: float
    visibility: EstimateWithError
    distinguishability: EstimateWithError
    formula: RouteReport
    definition: RouteReport
    equivalence: EquivalenceReport


def _kept(scan: FringeScan):
    keep = scan.totals > 0
    if not np.any(keep):
        raise EstimationError("all points in scan have zero counts")
    return keep


def _extremal_indices(scan: FringeScan):
    """Grid indices of the per-point-probability extrema (ties: lowest phi_x)."""
    keep = _kept(scan)
    idx = np.flatnonzero(keep)
    phat = scan.n1[idx] / scan.totals[idx]
    return idx[int(np.argmax(phat))], idx[int(np.argmin(phat))]


def _ratio_variance(a: float, b: float, s: float, var_a: float, var_b: float) -> float:
    """Delta-method variance of the contrast (a - b)/s, s = a + b, for independent a and b."""
    return (2.0 * b / s**2) ** 2 * var_a + (2.0 * a / s**2) ** 2 * var_b


def estimate_visibility(scan: FringeScan) -> EstimateWithError:
    """Fringe visibility (N_max - N_min)/(N_max + N_min) from the grid extrema.

    The extrema are located on the per-point probabilities n1/(n1+n2) and the
    estimate uses the detector-1 counts at those two points.  The error bar
    propagates their Poisson variances (var N = N) through the ratio.
    """
    if scan.block != BLOCK_NONE:
        raise ContractViolation("visibility requires an open scan (block = none)")
    # A grid too short or too narrow is a caller error; a grid that becomes
    # so only once its zero-count points are dropped is degenerate data.
    for x, error in ((scan.phi_x, ContractViolation), (scan.phi_x[_kept(scan)], EstimationError)):
        if x.size < MIN_FRINGE_POINTS:
            raise error(f"need at least {MIN_FRINGE_POINTS} usable points, got {x.size}")
        span = float(x[-1] - x[0])
        if span + span / (x.size - 1) < 2.0 * math.pi - 1e-9:
            raise error(f"phi_x span {span:.3f} rad covers less than one fringe period")
    i_max, i_min = _extremal_indices(scan)
    n_max, n_min = float(scan.n1[i_max]), float(scan.n1[i_min])
    s = n_max + n_min
    if s <= 0:
        raise EstimationError("zero detector-1 counts at both fringe extrema")
    # a zero-count extremum still carries one count's worth of Poisson
    # uncertainty; without the floor the boundary estimate V=1 would report
    # sigma 0 and defeat every downstream consistency check
    m_max, m_min = max(n_max, 1.0), max(n_min, 1.0)
    return EstimateWithError((n_max - n_min) / s, math.sqrt(_ratio_variance(m_max, m_min, s, m_max, m_min)))


def _pooled_bias(scan: FringeScan):
    """(|N1 - N2|/S, variance) from phi_x-pooled counts of one blocked scan."""
    a, b = float(scan.n1.sum()), float(scan.n2.sum())
    s = a + b
    if s <= 0:
        raise EstimationError(f"zero total counts in blocked scan ({scan.block})")
    # same one-count floor as the visibility sigma: a dark detector is a
    # boundary estimate, not a zero-uncertainty one
    fa, fb = max(a, 1.0), max(b, 1.0)
    return abs(a - b) / s, _ratio_variance(fa, fb, s, fa, fb)


def estimate_distinguishability(scan_blocked_0: FringeScan, scan_blocked_1: FringeScan) -> EstimateWithError:
    """Distinguishability (D_1 + D_2)/2 averaged over the two blocked scans.

    Each single-blocked bias |p1 - p2|/(p1 + p2) is phi_x-independent, so the
    counts are pooled over the full sweep before taking the ratio; pooling
    makes the estimate insensitive to whether raw or conditioned counts came
    in.
    """
    if scan_blocked_0.block != BLOCK_PATH0 or scan_blocked_1.block != BLOCK_PATH1:
        raise ContractViolation("expected scans with block = path0 and path1, in that order")
    if abs(scan_blocked_0.phi_s - scan_blocked_1.phi_s) > ATOL_ALGEBRAIC:
        raise ContractViolation("blocked scans must share the same phi_s")
    d0, var0 = _pooled_bias(scan_blocked_0)
    d1, var1 = _pooled_bias(scan_blocked_1)
    return EstimateWithError(0.5 * (d0 + d1), 0.5 * math.sqrt(var0 + var1))


def _clamp_unit(x: float):
    if x < 0.0:
        return 0.0, True
    if x > 1.0:
        return 1.0, True
    return x, False


def _h_min_slope(d: float) -> float:
    return 1.0 / ((1.0 + d) * LN2)


def _h_max_slope(v: float) -> float:
    # d/dV log2(1 + sqrt(1-V^2)) diverges one-sidedly at V=1, where the
    # first-order sigma is meaningless; report 0 there and leave
    # boundary-aware tolerance to consumers working in (V, D) space.
    root = math.sqrt(max((1.0 - v) * (1.0 + v), 0.0))
    if root == 0.0:
        return 0.0
    return v / (root * (1.0 + root) * LN2)


def _route_report(route: str, q: DualityQuantities, v, sigma_v, d, sigma_d, **flags) -> RouteReport:
    """A route's scorecard with the V and D sigmas propagated through both closed forms."""
    s_hmin = _h_min_slope(d) * sigma_d
    s_hmax = _h_max_slope(v) * sigma_v
    return RouteReport(
        route=route, quantities=q, h_min_sigma=s_hmin, h_max_sigma=s_hmax,
        eur_sigma=math.hypot(s_hmin, s_hmax),
        wpdr_sigma=math.hypot(2.0 * d * sigma_d, 2.0 * v * sigma_v),
        **flags,
    )


def eur_formula_route(
    visibility: EstimateWithError,
    distinguishability: EstimateWithError,
    dropped_points: int = 0,
) -> RouteReport:
    """Closed-form route: entropies from the V and D estimates.

    Estimates outside [0, 1] are clamped before entering the closed forms and
    flagged in the report; sigmas are first-order propagations through the
    two closed forms.
    """
    v, clamped_v = _clamp_unit(visibility.value)
    d, clamped_d = _clamp_unit(distinguishability.value)
    return _route_report(
        FORMULA_ROUTE, duality_from_v_d(v, d), v, visibility.sigma, d, distinguishability.sigma,
        clamped_v=clamped_v, clamped_d=clamped_d, dropped_points=dropped_points,
    )


def eur_definition_route(
    scan_open: FringeScan,
    distinguishability: EstimateWithError,
    dropped_points: int = 0,
) -> RouteReport:
    """Definition route: entropies evaluated on measured distributions.

    Particle side: the min-entropy definition is applied to the bias
    distribution ((1 + D)/2, (1 - D)/2) of the pooled distinguishability
    estimate D (see :func:`estimate_distinguishability`).

    Wave side: the max-entropy definition is applied to the detector-1
    per-point probabilities at the two fringe-extremal phi_x points,
    renormalized into a binary distribution.  On scans whose per-point pairs
    are already normalized this reproduces the formula route exactly.
    """
    if scan_open.block != BLOCK_NONE:
        raise ContractViolation("definition route needs an open scan first")
    d = distinguishability.value
    hz = h_min(_bias_distribution(d))

    i_max, i_min = _extremal_indices(scan_open)
    t_max, t_min = float(scan_open.totals[i_max]), float(scan_open.totals[i_min])
    p_max = float(scan_open.n1[i_max]) / t_max
    p_min = float(scan_open.n1[i_min]) / t_min
    s = p_max + p_min
    if s <= 0:
        raise EstimationError("zero detector-1 probability at both fringe extrema")
    hw = h_max(ProbDist(np.array([p_max, p_min]) / s, ("fringe_max", "fringe_min")))
    contrast = (p_max - p_min) / s
    var_p = (p_max * (1.0 - p_max) / t_max, p_min * (1.0 - p_min) / t_min)
    var_c = _ratio_variance(p_max, p_min, s, *var_p)

    # definition-route entropies replace the closed-form ones in the scorecard
    eur_sum, eur_ok = eur_check(hz, hw)
    q = replace(duality_from_v_d(contrast, d), h_min_z=hz, h_max_w=hw, eur_sum=eur_sum, eur_satisfied=eur_ok)
    return _route_report(
        DEFINITION_ROUTE, q, contrast, math.sqrt(var_c), d, distinguishability.sigma, dropped_points=dropped_points,
    )


def _bias_distribution(d: float) -> ProbDist:
    return ProbDist(np.array([(1.0 + d) / 2.0, (1.0 - d) / 2.0]), ("guess_hit", "guess_miss"))


def equivalence_report(route_a: RouteReport, route_b: RouteReport, k: float = 1.0) -> EquivalenceReport:
    """Absolute per-quantity differences, flagged against k * (sigma_a + sigma_b)."""
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


def duality_report(
    scan_open: FringeScan,
    scan_blocked_0: FringeScan,
    scan_blocked_1: FringeScan,
    k: float = 1.0,
) -> DualityReport:
    """Full dual-route scorecard for one phi_s setting."""
    visibility = estimate_visibility(scan_open)
    distinguishability = estimate_distinguishability(scan_blocked_0, scan_blocked_1)
    if abs(scan_open.phi_s - scan_blocked_0.phi_s) > ATOL_ALGEBRAIC:
        raise ContractViolation("open and blocked scans must share the same phi_s")
    dropped = scan_open.empty_points + scan_blocked_0.empty_points + scan_blocked_1.empty_points
    formula = eur_formula_route(visibility, distinguishability, dropped_points=dropped)
    definition = eur_definition_route(scan_open, distinguishability, dropped_points=dropped)
    return DualityReport(
        phi_s=scan_open.phi_s,
        visibility=visibility,
        distinguishability=distinguishability,
        formula=formula,
        definition=definition,
        equivalence=equivalence_report(formula, definition, k=k),
    )


@dataclass(frozen=True)
class FlatnessCheck:
    """Range-vs-allowance test of phi_x independence for one scan."""

    spread: float
    allowance: float
    flat: bool
    pooled_probability: float


def flatness_check(scan: FringeScan, n_sigma: float = 3.0) -> FlatnessCheck:
    """Test whether the per-point probabilities are constant in phi_x.

    Compares the spread max - min of p_hat = n1/(n1+n2) against n_sigma times
    the combined binomial sigma of the two extremal points, evaluated under
    the flat hypothesis (pooled probability), so a point that happened to
    collect all its counts in one detector still carries its proper
    uncertainty.  Blocked scans must pass this for every phi_s.
    """
    keep = _kept(scan)
    idx = np.flatnonzero(keep)
    totals = scan.totals[idx]
    phat = scan.n1[idx] / totals
    pooled = float(scan.n1[idx].sum() / totals.sum())
    i_max, i_min = int(np.argmax(phat)), int(np.argmin(phat))
    spread = float(phat[i_max] - phat[i_min])
    null_var = pooled * (1.0 - pooled)
    allowance = n_sigma * (
        math.sqrt(null_var / totals[i_max]) + math.sqrt(null_var / totals[i_min])
    )
    return FlatnessCheck(
        spread=spread, allowance=allowance, flat=bool(spread <= allowance),
        pooled_probability=pooled,
    )


@dataclass(frozen=True)
class FringeFit:
    """Least-squares sinusoid p(phi_x) = offset + amplitude sin(phi_x + phase)."""

    offset: float
    amplitude: float
    phase: float
    residual_rms: float


def fit_fringe(scan: FringeScan) -> FringeFit:
    """Presentation-only sinusoid fit of the per-point probabilities.

    Never feeds the entropy estimates; the estimators use grid extrema so the
    reported quantities import no model assumptions.
    """
    keep = _kept(scan)
    x = scan.phi_x[keep]
    if x.size < 3:
        raise EstimationError("need at least 3 usable points to fit a fringe")
    phat = scan.n1[keep] / scan.totals[keep]
    basis = np.column_stack([np.ones_like(x), np.sin(x), np.cos(x)])
    coeff, *_ = np.linalg.lstsq(basis, phat, rcond=None)
    c0, cs, cc = (float(c) for c in coeff)
    residual = phat - basis @ coeff
    return FringeFit(
        offset=c0,
        amplitude=math.hypot(cs, cc),
        phase=math.atan2(cc, cs),
        residual_rms=float(np.sqrt(np.mean(residual**2))),
    )
