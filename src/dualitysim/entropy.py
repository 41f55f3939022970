"""Min/max entropies, their duality closed forms, and the n-path guessing-game quantities.

All logarithms are base 2; every entropy is in bits.  The binary identities
this module is built around (c = |2p - 1| for a normalized pair (p, 1 - p)):

    h_min((p, 1-p))  =  -log2((1 + c) / 2)
    h_max((p, 1-p))  =  log2(1 + sqrt(1 - c^2))

are exact, which is what makes the entropy-definition route and the
visibility/distinguishability closed-form route interchangeable for binary
data.  The closed-form helpers and the bound predicates accept scalars or
numpy arrays, and the entropy definitions take rows of distributions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .tolerances import ATOL_ALGEBRAIC, ATOL_NORM, INEQ_SLACK


def h_min(dist):
    """Unconditional min-entropy -log2(max_j p_j) of a normalized distribution, or of each row of an array of them."""
    out = -np.log2(np.max(_normalized(dist, "min-entropy"), axis=-1)) + 0.0
    return float(out) if out.ndim == 0 else out


def h_max(dist):
    """Unconditional max-entropy 2 log2(sum_j sqrt(p_j)), per row as :func:`h_min`; zero outcomes contribute 0."""
    out = 2.0 * np.log2(np.sum(np.sqrt(_normalized(dist, "max-entropy")), axis=-1))
    return float(out) if out.ndim == 0 else out


@np.errstate(invalid="ignore")  # a row holding +inf and -inf sums to NaN, which is rejected, not warned about
def _normalized(dist, entropy: str) -> np.ndarray:
    """The probabilities of a distribution, or of every row of an array of them, which must be nonnegative and normalized."""
    p = np.asarray(dist, dtype=np.float64)
    if not np.all((p >= 0) & (np.abs(p.sum(axis=-1, keepdims=True) - 1.0) <= ATOL_NORM)):
        raise ContractViolation(f"{entropy} requires a normalized distribution")
    return p


def h_min_from_distinguishability(d):
    """Particle-side closed form -log2((1 + D)/2); strictly decreasing on [0, 1]."""
    d = np.asarray(d, dtype=np.float64)
    _check_unit_range("distinguishability", d)
    out = -np.log2(0.5 * (1.0 + d)) + 0.0
    return float(out) if out.ndim == 0 else out


def h_max_from_visibility(v):
    """Wave-side closed form log2(1 + sqrt(1 - V^2)), the phase-optimized max-entropy.

    The radicand is evaluated as (1 - V)(1 + V) to stay accurate near V = 1.
    """
    v = np.asarray(v, dtype=np.float64)
    _check_unit_range("visibility", v)
    radicand = np.maximum((1.0 - v) * (1.0 + v), 0.0)
    out = np.log2(1.0 + np.sqrt(radicand))
    return float(out) if out.ndim == 0 else out


def eur_check(h_min_z, h_max_w):
    """Two-path entropic uncertainty bound: returns (sum, sum >= 1 - INEQ_SLACK); vectorized.

    The sum of ignorance about the path variable and the optimal fringe
    variable, each in [0, 1] bit, is at least 1 bit for any physical two-path
    input; a False flag on physically generated numbers signals a bug upstream.
    """
    for name, h in (("h_min_z", h_min_z), ("h_max_w", h_max_w)):
        h = np.asarray(h, dtype=np.float64)
        inside = (h >= -ATOL_ALGEBRAIC) & (h <= 1.0 + INEQ_SLACK)
        if not np.all(inside):
            raise ContractViolation(f"{name} = {h[~inside].flat[0]} outside [0, 1]")
    total = h_min_z + h_max_w
    ok = total >= 1.0 - INEQ_SLACK
    return total, ok if np.ndim(ok) else bool(ok)


def wpdr_check(d, v):
    """Duality trade-off: returns (D^2 + V^2, value <= 1 + INEQ_SLACK); vectorized."""
    _check_unit_range("distinguishability", np.asarray(d, dtype=np.float64))
    _check_unit_range("visibility", np.asarray(v, dtype=np.float64))
    value = d * d + v * v
    ok = value <= 1.0 + INEQ_SLACK
    return value, ok if np.ndim(ok) else bool(ok)


@dataclass(frozen=True)
class GuessingInput:
    """Success probability of an n-outcome guessing game."""

    p_guess: float
    n: int = 2

    def __post_init__(self):
        if self.n < 2:
            raise ContractViolation(f"path count must be >= 2, got {self.n}")
        if not (1.0 / self.n - ATOL_ALGEBRAIC <= self.p_guess <= 1.0 + ATOL_ALGEBRAIC):
            raise ContractViolation(
                f"p_guess = {self.p_guess} outside [1/{self.n}, 1]"
            )


def _affine_guessing_score(g: GuessingInput) -> float:
    # (n p - 1)/(n - 1): 0 at uniform guessing, 1 at certainty.
    return (g.n * g.p_guess - 1.0) / (g.n - 1.0)


def visibility_from_guessing(g: GuessingInput) -> float:
    """Generalized n-path fringe visibility from the phase-guessing game.

    At n = 2 this reduces to 2 p_guess - 1.
    """
    return _affine_guessing_score(g)


def distinguishability_from_guessing(g: GuessingInput) -> float:
    """Generalized n-path distinguishability from the which-path guessing game.

    Same affine map as :func:`visibility_from_guessing`; kept as a distinct
    operation because it consumes a different game.
    """
    return _affine_guessing_score(g)


def h_max_guessing_bound(g: GuessingInput) -> float:
    """Upper bound log2(1 + sqrt((n-1)^2 - (n p_guess - 1)^2)) on the max-entropy.

    Factored as n(1-p) * (n(1+p) - 2) before the square root; at n = 2 this
    equals h_max_from_visibility(2 p_guess - 1).
    """
    radicand = g.n * (1.0 - g.p_guess) * (g.n * (1.0 + g.p_guess) - 2.0)
    if radicand < -ATOL_ALGEBRAIC:
        raise ContractViolation(f"negative radicand {radicand} for {g}")
    return math.log2(1.0 + math.sqrt(max(radicand, 0.0)))


def duality_columns(v, d) -> dict:
    """Both binary closed forms and both bound predicates for arrays of measured (V, D).

    Returns v, d, h_min_z, h_max_w, eur_sum, wpdr_value, eur_satisfied and
    wpdr_satisfied by name, each an array with one entry per (V, D) pair.
    """
    v, d = np.asarray(v, dtype=np.float64), np.asarray(d, dtype=np.float64)
    hz, hw = h_min_from_distinguishability(d), h_max_from_visibility(v)
    (eur_sum, eur_ok), (wpdr_value, wpdr_ok) = eur_check(hz, hw), wpdr_check(d, v)
    return dict(v=v, d=d, h_min_z=hz, h_max_w=hw, eur_sum=eur_sum, wpdr_value=wpdr_value,
                eur_satisfied=eur_ok, wpdr_satisfied=wpdr_ok)


def _check_unit_range(name: str, x: np.ndarray) -> None:
    # one pass: NaN fails both comparisons, and +-inf fails one
    if not np.all((x >= -ATOL_ALGEBRAIC) & (x <= 1.0 + ATOL_ALGEBRAIC)):
        raise ContractViolation(f"{name} must be finite and within [0, 1]")
