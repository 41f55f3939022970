"""Exact complex-vector states on the path Hilbert space and the elements acting on them.

All observable outputs go through :func:`born_probabilities`, so states are
never canonicalized by global phase: only magnitudes matter downstream.
Dimension is dynamic (n >= 2); the interferometer model uses n = 2.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ContractViolation
from .tolerances import ATOL_ALGEBRAIC, ATOL_NORM

UNITARY = "unitary"
ATTENUATOR = "attenuator"
ELEMENT_KINDS = (UNITARY, ATTENUATOR)


@dataclass(frozen=True)
class PathState:
    """Amplitude vector over interferometer paths / detector ports.

    The squared norm may drop below 1 after a path block (subnormalized
    state) but can never exceed 1.
    """

    amps: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.amps, dtype=np.complex128)).copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)
        if a.ndim != 1 or a.size < 2:
            raise ContractViolation(f"state needs >= 2 path amplitudes, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ContractViolation("state amplitudes must be finite")
        if self.norm_sq > 1.0 + ATOL_ALGEBRAIC:
            raise ContractViolation(f"squared norm {self.norm_sq} exceeds 1")

    @property
    def dim(self) -> int:
        return int(self.amps.size)

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    @classmethod
    def basis(cls, dim: int, port: int) -> "PathState":
        """Computational basis state |port> in a dim-path space."""
        if not 0 <= port < dim:
            raise ContractViolation(f"port {port} outside 0..{dim - 1}")
        a = np.zeros(dim, dtype=np.complex128)
        a[port] = 1.0
        return cls(a)


@dataclass(frozen=True)
class OpticalElement:
    """A dim x dim complex matrix acting on :class:`PathState`.

    ``unitary`` elements satisfy M^dag M = I within ATOL_ALGEBRAIC;
    ``attenuator`` elements are contractive (no singular value above 1).
    """

    matrix: np.ndarray
    kind: str = UNITARY

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.complex128).copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ContractViolation(f"element matrix must be square with dim >= 2, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ContractViolation("element matrix must be finite")
        if self.kind not in ELEMENT_KINDS:
            raise ContractViolation(f"unknown element kind {self.kind!r}")
        if self.kind == UNITARY:
            gram = m.conj().T @ m
            err = float(np.max(np.abs(gram - np.eye(m.shape[0]))))
            if err > ATOL_ALGEBRAIC:
                raise ContractViolation(f"matrix is not unitary (max |M^dag M - I| = {err:.3e})")
        else:
            top = float(np.linalg.svd(m, compute_uv=False)[0])
            if top > 1.0 + ATOL_ALGEBRAIC:
                raise ContractViolation(f"attenuator amplifies (largest singular value {top})")

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


@dataclass(frozen=True)
class ProbDist:
    """Labeled discrete probability distribution over detector outcomes.

    ``normalized`` records whether the weights sum to 1 within ATOL_NORM;
    subnormalized distributions (e.g. from a blocked path) carry False.
    """

    probs: np.ndarray
    labels: tuple = ()
    normalized: bool = field(init=False)

    def __post_init__(self):
        p = np.atleast_1d(np.asarray(self.probs, dtype=np.float64)).copy()
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        if p.ndim != 1 or p.size == 0:
            raise ContractViolation("probability vector must be non-empty and 1-d")
        if not np.all(np.isfinite(p)):
            raise ContractViolation("probabilities must be finite")
        if np.any(p < 0):
            raise ContractViolation("probabilities must be nonnegative")
        labels = tuple(self.labels) if self.labels else tuple(f"p{i}" for i in range(p.size))
        if len(labels) != p.size:
            raise ContractViolation("label count must match outcome count")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "normalized", abs(self.total - 1.0) <= ATOL_NORM)

    @property
    def total(self) -> float:
        return float(self.probs.sum())

    def conditioned(self) -> "ProbDist":
        """Renormalize on detection; fails on zero total weight."""
        t = self.total
        if t <= 0.0:
            raise ContractViolation("cannot condition a zero-weight distribution")
        return ProbDist(self.probs / t, self.labels)


def apply_element(element: OpticalElement, state: PathState) -> PathState:
    """Matrix-vector action of an element on a state.

    Unitary elements preserve the norm within ATOL_ALGEBRAIC; attenuators
    never increase it.
    """
    if element.dim != state.dim:
        raise ContractViolation(f"dimension mismatch: element {element.dim} vs state {state.dim}")
    return PathState(element.matrix @ state.amps)


def born_probabilities(state: PathState, labels: Iterable[str] | None = None) -> ProbDist:
    """Outcome distribution |amp_j|^2 per port.

    For a subnormalized state the distribution is returned as-is with
    ``normalized=False``; nothing is silently rescaled.
    """
    p = np.abs(state.amps) ** 2
    return ProbDist(p, tuple(labels) if labels is not None else ())


def compose(first: OpticalElement, second: OpticalElement) -> OpticalElement:
    """Element product first . second (``second`` acts first on the state)."""
    if first.dim != second.dim:
        raise ContractViolation(f"dimension mismatch: {first.dim} vs {second.dim}")
    kind = UNITARY if (first.kind == UNITARY and second.kind == UNITARY) else ATTENUATOR
    return OpticalElement(first.matrix @ second.matrix, kind)


def identity_element(dim: int) -> OpticalElement:
    return OpticalElement(np.eye(dim, dtype=np.complex128), UNITARY)
