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
phi_x), so no fitted model feeds the entropies.

The scorecard is one array pass.  :func:`duality_report` slices a sweep's
counts (phi_s, block, detector, phi_x) into each block's rows and computes
the grid extrema, V, D, both routes, their sigmas and the route equivalence
for all rows at once, and returns them as named columns, one entry per
phi_s, nested as a report.json point nests them.  Each stage reports its
failed checks per row instead of raising, so a sweep raises the error of its
first failing setting, as a loop over the settings would.  The particle-side
test, :func:`flatness_check`, reads the same row view of any stack of
(detector, phi_x) rows.
"""
from __future__ import annotations

import math

import numpy as np

from .entropy import duality_columns, eur_check, h_max, h_min, wpdr_check
from .errors import ContractViolation, EstimationError
from .optics import BLOCK_PATH0, BLOCK_PATH1, BLOCKS

LN2 = math.log(2.0)

# Fewest usable phi_x points a visibility estimate accepts.
MIN_FRINGE_POINTS = 8

# A flat scan's p_hat spread stays within this many sigmas of its two extremal points.
FLATNESS_SIGMAS = 3.0


def _check_counts(counts: np.ndarray) -> None:
    """Raise ContractViolation at the first count, in C order, that is not finite, nonnegative and below 2^63.

    The message names that count's detector, its index on axis -2.
    """
    # NaN fails both; no sweep counts more than 2^53, and counts near 1e154 would overflow the sigmas' squares
    bad = np.argwhere(~((counts >= 0) & (counts < 2.0**63)))
    if bad.size:
        raise ContractViolation(f"n{bad[0][-2] + 1} counts must be finite and nonnegative and below 2^63")


class _Rows:
    """Rows of (row, detector, phi_x) counts, with each row's kept points, p_hat = n1/(n1+n2) and its extrema.

    The extrema are grid indices over the kept (nonzero-total) points, ties
    broken toward the lowest phi_x.
    """

    def __init__(self, counts: np.ndarray):
        self.n1, self.n2 = counts[:, 0], counts[:, 1]
        self.totals = self.n1 + self.n2
        self.keep = self.totals > 0
        with np.errstate(invalid="ignore"):
            self.phat = self.n1 / self.totals
        self.i_max = np.where(self.keep, self.phat, -np.inf).argmax(axis=-1)
        self.i_min = np.where(self.keep, self.phat, np.inf).argmin(axis=-1)


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


def _fringe_pair(rows: _Rows):
    """Per row, the detector-1 probabilities and totals at both fringe extrema, with an open row's checks of them."""
    t_max, t_min = _at(rows.totals, rows.i_max), _at(rows.totals, rows.i_min)
    p_max, p_min = _at(rows.phat, rows.i_max), _at(rows.phat, rows.i_min)
    return (p_max, p_min, t_max, t_min), [
        (p_max + p_min <= 0, EstimationError, "zero detector-1 probability at both fringe extrema"),
    ]


@np.errstate(divide="ignore", invalid="ignore")
def _route(quantities: dict, v, sigma_v, d, sigma_d) -> dict:
    """A route's columns: its :func:`duality_columns`, and the V and D sigmas propagated through both closed forms."""
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
    """Definition-route columns from the fringe-extremal detector-1 probabilities and the D estimate.

    The contrast of the extremal pair, p_max >= p_min >= 0, lies in [0, 1], so
    this route clamps nothing and flags no row.
    """
    hz = h_min(np.stack([(1.0 + d) / 2.0, (1.0 - d) / 2.0], axis=-1))  # the bias distribution of D
    s = p_max + p_min
    hw = h_max(np.stack([p_max, p_min], axis=-1) / s[:, None])
    contrast = (p_max - p_min) / s
    var_c = _ratio_variance(p_max, p_min, s, p_max * (1.0 - p_max) / t_max, p_min * (1.0 - p_min) / t_min)
    (eur_sum, eur_ok), (wpdr_value, wpdr_ok) = eur_check(hz, hw), wpdr_check(d, contrast)
    quantities = dict(v=contrast, d=d, h_min_z=hz, h_max_w=hw, eur_sum=eur_sum, wpdr_value=wpdr_value,
                      eur_satisfied=eur_ok, wpdr_satisfied=wpdr_ok)  # duality_columns' names, in its order
    unclamped = np.zeros(contrast.shape, dtype=bool)
    return dict(_route(quantities, contrast, np.sqrt(var_c), d, sigma_d), clamped_v=unclamped, clamped_d=unclamped)


def _equivalence(a, b) -> dict:
    """Per-quantity absolute differences between two routes' columns, flagged against sigma_a + sigma_b."""
    out = {}
    for name, value, sigma in (("h_min", "h_min_z", "h_min_sigma"), ("h_max", "h_max_w", "h_max_sigma"),
                               ("eur", "eur_sum", "eur_sigma")):
        out[f"d_{name}"] = np.abs(a[value] - b[value])
        out[f"within_{name}"] = out[f"d_{name}"] <= a[sigma] + b[sigma]
    return out


def duality_report(plan, counts) -> dict:
    """The dual-route scorecard of every phi_s of ``plan``, as named columns with one entry per setting.

    ``phi_s``, ``V``, ``V_sigma``, ``D`` and ``D_sigma`` are arrays, and
    ``formula``, ``definition`` and ``equivalence`` are dicts of arrays: each
    route's :func:`duality_columns`, their propagated sigmas, clamp flags and
    dropped points, and the routes' absolute differences with their
    within-sigma flags.  ``counts`` is laid out as :func:`run_sweep` returns it
    for ``plan``, which holds all three blocks in any order.  Where a setting
    cannot be estimated, the error raised is the first one a loop over the
    settings would meet.
    """
    if any(block not in plan.blocks for block in BLOCKS):
        raise ContractViolation("need one open, one path0 and one path1 scan per phi_s")
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (len(plan.phi_s_values), len(plan.blocks), 2, plan.phi_x_grid[2]):
        raise ContractViolation(f"counts need the plan's (phi_s, block, detector, phi_x) shape, not {counts.shape}")
    _check_counts(counts)
    op, b0, b1 = (_Rows(counts[:, plan.blocks.index(block)]) for block in BLOCKS)
    v, sigma_v, v_checks = _visibility(op, plan.phi_x_values())
    d, sigma_d, d_checks = _distinguishability(b0, b1)
    pair, pair_checks = _fringe_pair(op)
    _raise_first([*v_checks, *d_checks, *pair_checks])
    dropped = sum((~rows.keep).sum(axis=-1) for rows in (op, b0, b1))
    formula = dict(_formula_route(v, sigma_v, d, sigma_d), dropped_points=dropped)
    definition = dict(_definition_route(*pair, d, sigma_d), dropped_points=dropped)
    return {
        "phi_s": np.array(plan.phi_s_values),
        "V": v, "V_sigma": sigma_v,
        "D": d, "D_sigma": sigma_d,
        "formula": formula,
        "definition": definition,
        "equivalence": _equivalence(formula, definition),
    }


def flatness_check(counts) -> dict:
    """Test whether each row's per-point probabilities are constant in phi_x.

    ``counts`` is any array of (detector, phi_x) rows, shape (..., 2, points)
    with D1 first: one row, a sweep's ``counts[:, b]`` or any stack.  Each
    row's spread max - min of p_hat = n1/(n1+n2) over its kept points is
    compared against FLATNESS_SIGMAS times the combined binomial sigma of the
    two extremal points, evaluated under the flat hypothesis (the probability
    pooled over the kept points), so a point that happened to collect all its
    counts in one detector still carries its proper uncertainty.  Blocked
    scans must pass this for every phi_s.  Returns ``flat``, ``spread`` and
    ``allowance`` as arrays of the rows' leading shape; a row with no counts
    at all raises, the first such row in C order.
    """
    counts = np.asarray(counts, dtype=np.float64)
    if counts.ndim < 2 or counts.shape[-2] != 2 or counts.shape[-1] == 0:
        raise ContractViolation(f"counts need a (..., 2, phi_x) shape with at least one point, not {counts.shape}")
    _check_counts(counts)
    rows = _Rows(counts.reshape(-1, *counts.shape[-2:]))
    _raise_first([(~rows.keep.any(axis=-1), EstimationError, "all points in scan have zero counts")])
    # a dropped point holds no counts, so these sums over all points are the sums over the kept ones
    pooled = rows.n1.sum(axis=-1) / rows.totals.sum(axis=-1)
    null_var = pooled * (1.0 - pooled)
    (p_max, p_min, t_max, t_min), _ = _fringe_pair(rows)  # a blocked row may put no D1 count at either extremum
    spread = p_max - p_min
    allowance = FLATNESS_SIGMAS * (np.sqrt(null_var / t_max) + np.sqrt(null_var / t_min))
    lead = counts.shape[:-2]
    return {"flat": (spread <= allowance).reshape(lead), "spread": spread.reshape(lead),
            "allowance": allowance.reshape(lead)}
