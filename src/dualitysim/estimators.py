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

The scorecard is one array pass.  :func:`duality_report` slices a sweep's
counts (phi_s, block, detector, phi_x) into each block's rows and computes
the grid extrema, V, D, both routes, their sigmas and the route equivalence
for all rows at once.  Each stage reports its failed checks per row instead
of raising, so a sweep raises the error of its first failing setting, as a
loop over the settings would.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .entropy import DualityQuantities, duality_columns, eur_check, h_max, h_min
from .errors import ContractViolation, EstimationError
from .optics import BLOCK_PATH0, BLOCK_PATH1, BLOCKS

LN2 = math.log(2.0)

# Fewest usable phi_x points a visibility estimate accepts.
MIN_FRINGE_POINTS = 8

FORMULA_ROUTE = "formula"
DEFINITION_ROUTE = "definition"


@dataclass(frozen=True)
class FringeScan:
    """Counts at both detectors along a phi_x sweep at one setting."""

    phi_x: np.ndarray
    n1: np.ndarray
    n2: np.ndarray

    def __post_init__(self):
        for name in ("phi_x", "n1", "n2"):
            arr = np.array(getattr(self, name), dtype=np.float64, ndmin=1)  # always a copy
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.phi_x.size == 0:
            raise ContractViolation("scan needs at least one point")
        if not (self.phi_x.size == self.n1.size == self.n2.size):
            raise ContractViolation("phi_x, n1, n2 must have equal lengths")
        if (np.diff(self.phi_x) <= 0).any():
            raise ContractViolation("phi_x must be strictly increasing")
        for name, arr in (("n1", self.n1), ("n2", self.n2)):
            if not ((arr >= 0) & (arr < np.inf)).all():  # NaN fails both
                raise ContractViolation(f"{name} counts must be finite and nonnegative")

    @property
    def totals(self) -> np.ndarray:
        return self.n1 + self.n2


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


class _Rows:
    """One block's (phi_s, detector, phi_x) counts, with each row's kept points and p_hat = n1/(n1+n2) extrema.

    The extrema are grid indices over the kept (nonzero-total) points, ties
    broken toward the lowest phi_x.
    """

    def __init__(self, counts: np.ndarray):
        self.n1, self.n2 = counts[:, 0], counts[:, 1]
        self.totals = self.n1 + self.n2
        self.keep = self.totals > 0
        with np.errstate(invalid="ignore"):
            phat = self.n1 / self.totals
        self.i_max = np.where(self.keep, phat, -np.inf).argmax(axis=-1)
        self.i_min = np.where(self.keep, phat, np.inf).argmin(axis=-1)


def _at(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    return a[np.arange(len(a)), index]


def _raise_first(checks) -> None:
    """Raise the error of the first failing row, and within it of its first failing check.

    ``checks`` lists (failing rows, exception type, message or row ->
    message) in the order one setting's estimate meets them, so a batch
    raises what a loop over its settings would raise first.
    """
    failing = [(int(np.argmax(mask)), order) for order, (mask, _, _) in enumerate(checks) if np.any(mask)]
    if failing:
        row, order = min(failing)
        _, error, message = checks[order]
        raise error(message if isinstance(message, str) else message(row))


# Squares are Python's ** (libm pow) and hypotenuses math.hypot, one element
# at a time: numpy's a**2 multiplies and np.hypot rounds differently, each
# moving some reported sigmas in the last bit.
def _squares(x: np.ndarray) -> np.ndarray:
    return np.array([e ** 2 for e in x.tolist()])


def _hypot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.array(list(map(math.hypot, x.tolist(), y.tolist())))


def _ratio_variance(a, b, s, var_a, var_b):
    """Delta-method variance of the contrast (a - b)/s, s = a + b, for independent a and b, per row."""
    s2 = _squares(s)
    return _squares(2.0 * b / s2) * var_a + _squares(2.0 * a / s2) * var_b


def _grid_checks(span, size, error) -> list:
    """Checks that phi_x grids of ``size`` points over ``span`` (first to last point) cover one fringe period."""
    short = span + span / (size - 1) < 2.0 * math.pi - 1e-9
    return [
        (size < MIN_FRINGE_POINTS, error, lambda i: f"need at least {MIN_FRINGE_POINTS} usable points, got {size[i]}"),
        (short, error, lambda i: f"phi_x span {span[i]:.3f} rad covers less than one fringe period"),
    ]


def covers_fringe_period(phi_x: np.ndarray) -> bool:
    """Whether a phi_x grid of two or more points passes the visibility estimate's grid checks."""
    return not any(fails for fails, _, _ in _grid_checks(phi_x[-1] - phi_x[0], phi_x.size, ContractViolation))


@np.errstate(divide="ignore", invalid="ignore")
def _visibility(rows: _Rows, x: np.ndarray):
    """V and its sigma per open row on phi_x grid ``x``, from detector-1 counts at the grid extrema, with the checks."""
    n_max, n_min = _at(rows.n1, rows.i_max), _at(rows.n1, rows.i_min)
    s = n_max + n_min
    # a zero-count extremum still carries one count's worth of Poisson
    # uncertainty; without the floor the boundary estimate V=1 would report
    # sigma 0 and defeat every downstream consistency check
    m_max, m_min = np.maximum(n_max, 1.0), np.maximum(n_min, 1.0)
    kept = rows.keep.sum(axis=-1)
    first, last = rows.keep.argmax(axis=-1), x.size - 1 - rows.keep[:, ::-1].argmax(axis=-1)
    # A grid too short or too narrow is a caller error; a grid that becomes
    # so only once its zero-count points are dropped is degenerate data.
    return (n_max - n_min) / s, np.sqrt(_ratio_variance(m_max, m_min, s, m_max, m_min)), [
        (kept == 0, EstimationError, "all points in scan have zero counts"),
        *_grid_checks(np.full(kept.shape, x[-1] - x[0]), np.full(kept.shape, x.size), ContractViolation),
        *_grid_checks(x[last] - x[first], kept, EstimationError),
        (s <= 0, EstimationError, "zero detector-1 counts at both fringe extrema"),
    ]


@np.errstate(divide="ignore", invalid="ignore")
def _pooled_bias(rows: _Rows):
    """Per blocked row: |N1 - N2|/S from the phi_x-pooled counts, its variance, and whether S is zero."""
    a, b = rows.n1.sum(axis=-1), rows.n2.sum(axis=-1)
    s = a + b
    # same one-count floor as the visibility sigma: a dark detector is a
    # boundary estimate, not a zero-uncertainty one
    fa, fb = np.maximum(a, 1.0), np.maximum(b, 1.0)
    return np.abs(a - b) / s, _ratio_variance(fa, fb, s, fa, fb), s <= 0


def _distinguishability(b0: _Rows, b1: _Rows):
    """D = (D_1 + D_2)/2 and its sigma per pair of blocked rows, with the estimate's checks."""
    (d0, var0, empty0), (d1, var1, empty1) = _pooled_bias(b0), _pooled_bias(b1)
    return 0.5 * (d0 + d1), 0.5 * np.sqrt(var0 + var1), [
        (empty0, EstimationError, f"zero total counts in blocked scan ({BLOCK_PATH0})"),
        (empty1, EstimationError, f"zero total counts in blocked scan ({BLOCK_PATH1})"),
    ]


@np.errstate(divide="ignore", invalid="ignore")
def _fringe_pair(rows: _Rows):
    """Per open row, the detector-1 probabilities and totals at both fringe extrema, with the pair's checks."""
    t_max, t_min = _at(rows.totals, rows.i_max), _at(rows.totals, rows.i_min)
    p_max, p_min = _at(rows.n1, rows.i_max) / t_max, _at(rows.n1, rows.i_min) / t_min
    return (p_max, p_min, t_max, t_min), [
        (p_max + p_min <= 0, EstimationError, "zero detector-1 probability at both fringe extrema"),
    ]


@np.errstate(divide="ignore", invalid="ignore")
def _route(quantities: dict, v, sigma_v, d, sigma_d) -> dict:
    """A route's columns: its DualityQuantities columns, and the V and D sigmas propagated through both closed forms."""
    s_hmin = 1.0 / ((1.0 + d) * LN2) * sigma_d
    # d/dV log2(1 + sqrt(1-V^2)) diverges one-sidedly at V=1, where the
    # first-order sigma is meaningless; report 0 there and leave
    # boundary-aware tolerance to consumers working in (V, D) space.
    root = np.sqrt(np.maximum((1.0 - v) * (1.0 + v), 0.0))
    s_hmax = np.where(root == 0.0, 0.0, v / (root * (1.0 + root) * LN2)) * sigma_v
    return dict(quantities, h_min_sigma=s_hmin, h_max_sigma=s_hmax, eur_sigma=_hypot(s_hmin, s_hmax),
                wpdr_sigma=_hypot(2.0 * d * sigma_d, 2.0 * v * sigma_v))


def _formula_route(v, sigma_v, d, sigma_d) -> dict:
    """Formula-route columns: the closed forms at V and D, each clamped into [0, 1] and flagged where it was."""
    clamped_v, clamped_d = ((x < 0.0) | (x > 1.0) for x in (v, d))
    v, d = np.where(clamped_v, np.clip(v, 0.0, 1.0), v), np.where(clamped_d, np.clip(d, 0.0, 1.0), d)
    return dict(_route(duality_columns(v, d), v, sigma_v, d, sigma_d), clamped_v=clamped_v, clamped_d=clamped_d)


def _definition_route(p_max, p_min, t_max, t_min, d, sigma_d) -> dict:
    """Definition-route columns from the fringe-extremal detector-1 probabilities and the D estimate."""
    hz = h_min(np.stack([(1.0 + d) / 2.0, (1.0 - d) / 2.0], axis=-1))  # the bias distribution of D
    s = p_max + p_min
    hw = h_max(np.stack([p_max, p_min], axis=-1) / s[:, None])
    contrast = (p_max - p_min) / s
    var_c = _ratio_variance(p_max, p_min, s, p_max * (1.0 - p_max) / t_max, p_min * (1.0 - p_min) / t_min)
    # definition-route entropies replace the closed-form ones in the scorecard
    eur_sum, eur_ok = eur_check(hz, hw)
    quantities = dict(duality_columns(contrast, d), h_min_z=hz, h_max_w=hw, eur_sum=eur_sum, eur_satisfied=eur_ok)
    return _route(quantities, contrast, np.sqrt(var_c), d, sigma_d)


def _equivalence(a, b) -> dict:
    """Per-quantity absolute differences between two routes' columns, flagged against sigma_a + sigma_b."""
    out = {}
    for name, value, sigma in (("h_min", "h_min_z", "h_min_sigma"), ("h_max", "h_max_w", "h_max_sigma"),
                               ("eur", "eur_sum", "eur_sigma")):
        out[f"d_{name}"] = np.abs(a[value] - b[value])
        out[f"within_{name}"] = out[f"d_{name}"] <= a[sigma] + b[sigma]
    return out


def _objects(cls, columns: dict, **shared) -> list:
    """One ``cls`` per row of ``columns`` (arrays or lists), each also given the ``shared`` fields."""
    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))
    return [cls(**dict(zip(columns, row)), **shared) for row in rows]


def _route_reports(route: str, columns: dict, **shared) -> list:
    names = {f.name for f in fields(DualityQuantities)}
    quantities = _objects(DualityQuantities, {name: c for name, c in columns.items() if name in names})
    rest = {name: c for name, c in columns.items() if name not in names}
    return _objects(RouteReport, dict(rest, quantities=quantities), route=route, **shared)


def _estimates(value, sigma) -> list:
    return _objects(EstimateWithError, {"value": value, "sigma": sigma})


def duality_report(plan, counts) -> list:
    """Full dual-route scorecards for every phi_s of ``plan``, one DualityReport per setting.

    ``counts`` is laid out as :func:`run_sweep` returns it for ``plan``, which
    holds all three blocks in any order.  Where a setting cannot be estimated,
    the error raised is the first one a loop over the settings would meet.
    """
    if any(block not in plan.blocks for block in BLOCKS):
        raise ContractViolation("need one open, one path0 and one path1 scan per phi_s")
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (len(plan.phi_s_values), len(plan.blocks), 2, plan.phi_x_grid[2]):
        raise ContractViolation(f"counts need the plan's (phi_s, block, detector, phi_x) shape, not {counts.shape}")
    bad = np.argwhere(~((counts >= 0) & (counts < np.inf)))  # NaN fails both; rows come in plan order
    if bad.size:
        raise ContractViolation(f"n{bad[0][2] + 1} counts must be finite and nonnegative")
    op, b0, b1 = (_Rows(counts[:, plan.blocks.index(block)]) for block in BLOCKS)
    v, sigma_v, v_checks = _visibility(op, plan.phi_x_values())
    d, sigma_d, d_checks = _distinguishability(b0, b1)
    pair, pair_checks = _fringe_pair(op)
    _raise_first([*v_checks, *d_checks, *pair_checks])
    dropped = sum((~rows.keep).sum(axis=-1) for rows in (op, b0, b1))
    formula = dict(_formula_route(v, sigma_v, d, sigma_d), dropped_points=dropped)
    definition = dict(_definition_route(*pair, d, sigma_d), dropped_points=dropped)
    return _objects(DualityReport, {
        "phi_s": plan.phi_s_values,
        "visibility": _estimates(v, sigma_v),
        "distinguishability": _estimates(d, sigma_d),
        "formula": _route_reports(FORMULA_ROUTE, formula),
        "definition": _route_reports(DEFINITION_ROUTE, definition),
        "equivalence": _objects(EquivalenceReport, _equivalence(formula, definition)),
    })


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
