"""The tunable-beamsplitter interferometer and its closed-form detection probabilities.

Circuit layout: a 50:50 input splitter prepares an equal superposition of two
fiber paths, a phase modulator adds the controllable phase ``phi_x`` to one
path, an optional ideal blocker removes one path, and a Sagnac loop recombines
the paths.  The loop phase ``phi_s`` tunes the recombiner continuously from a
mirror (phi_s = 0: each input exits through a single port, no interference)
to a balanced splitter (phi_s = pi/2: full-contrast fringes in phi_x).

Two routes to the detection probabilities are provided and must agree:

* the matrix route, multiplying the element matrices onto the input state;
* closed forms, p1 = (1 + gamma sin(phi_x) sin(phi_s)) / 2 with both paths
  open and the phi_x-independent pair (cos^2(phi_s/2), sin^2(phi_s/2)) with a
  path blocked.

``gamma`` is an interference-contrast factor in [0, 1] modeling residual
modal crosstalk in the demultiplexer as dephasing between the paths: it
scales fringe visibility (V = gamma sin phi_s) and leaves which-path
information untouched. The matrix route covers the pure-state case gamma = 1
only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolation
from .states import (
    ATTENUATOR,
    UNITARY,
    OpticalElement,
    PathState,
    apply_element,
    born_probabilities,
    compose,
)
from .tolerances import ATOL_ALGEBRAIC, ATOL_NORM

BLOCK_NONE = "none"
BLOCK_PATH0 = "path0"
BLOCK_PATH1 = "path1"
BLOCKS = (BLOCK_NONE, BLOCK_PATH0, BLOCK_PATH1)

# The input couples into port 1 of the input splitter.  With the element
# matrices below this pins the detector mapping D1 = port 1, D2 = port 0
# (asserted by the calibration probe in detector_ports): the open-circuit
# p1 then follows the closed form above, and blocking path 1 routes
# cos^2(phi_s/2) of the surviving amplitude to D1.
INPUT_PORT = 1


@dataclass(frozen=True)
class CircuitConfig:
    """One interferometer setting: phases, block state, contrast factor."""

    phi_x: float
    phi_s: float
    block: str = BLOCK_NONE
    coherence: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.phi_x) and math.isfinite(self.phi_s)):
            raise ContractViolation("phases must be finite")
        if self.block not in BLOCKS:
            raise ContractViolation(f"block must be one of {BLOCKS}, got {self.block!r}")
        if not (math.isfinite(self.coherence) and 0.0 <= self.coherence <= 1.0):
            raise ContractViolation(f"coherence must lie in [0, 1], got {self.coherence}")


@dataclass(frozen=True)
class DetectionProbs:
    """Detection probabilities at D1/D2.

    ``conditional`` marks a distribution renormalized on detection (sums
    to 1); raw blocked-path values are subnormalized and carry False.
    """

    p1: float
    p2: float
    conditional: bool

    def __post_init__(self):
        for name, p in (("p1", self.p1), ("p2", self.p2)):
            if not (math.isfinite(p) and -ATOL_ALGEBRAIC <= p <= 1.0 + ATOL_ALGEBRAIC):
                raise ContractViolation(f"{name} = {p} outside [0, 1]")
        if self.conditional and abs(self.p1 + self.p2 - 1.0) > ATOL_NORM:
            raise ContractViolation("conditional probabilities must sum to 1")

    @property
    def as_tuple(self) -> tuple:
        return (self.p1, self.p2)


def relative_phase(phi: float) -> OpticalElement:
    """diag(1, e^{i phi}) - a phase modulator on the second path."""
    return OpticalElement(np.array([[1.0, 0.0], [0.0, np.exp(1j * phi)]]), UNITARY)


@lru_cache(maxsize=2)
def _splitters():
    inv = 1.0 / math.sqrt(2.0)
    bs1 = OpticalElement(inv * np.array([[1.0, 1j], [1j, 1.0]]), UNITARY)
    bs2 = OpticalElement(inv * np.array([[1j, -1.0], [-1.0, 1j]]), UNITARY)
    return bs1, bs2


def standard_elements(phi_x: float, phi_s: float):
    """The four circuit elements (input splitter, loop splitter, both modulators).

    Returns (BS1, BS2, PM1, PM2) where BS1 = (1/sqrt2)[[1, i], [i, 1]],
    BS2 = (1/sqrt2)[[i, -1], [-1, i]], PM1 = diag(1, e^{i phi_x}) and
    PM2 = diag(1, e^{i phi_s}).
    """
    bs1, bs2 = _splitters()
    return bs1, bs2, relative_phase(phi_x), relative_phase(phi_s)


@lru_cache(maxsize=4096)
def sagnac_effective(phi_s: float) -> OpticalElement:
    """Effective recombiner BS2 . PM2(phi_s) . BS2 of the Sagnac loop.

    The wave packets split at the loop splitter, the loop phase addresses one
    propagation direction, and both recombine in the same splitter; the net
    effect is this single unitary.  phi_s = 0 gives a mirror (full port swap
    up to phase), phi_s = pi/2 a balanced splitter.
    """
    _, bs2, _, pm2 = standard_elements(0.0, phi_s)
    return compose(bs2, compose(pm2, bs2))


@lru_cache(maxsize=64)
def path_blocker(dim: int, path: int, transmissivity: float = 0.0) -> OpticalElement:
    """Ideal (or partial) attenuator on one path; transmissivity 0 blocks it."""
    if not 0.0 <= transmissivity <= 1.0:
        raise ContractViolation(f"transmissivity must lie in [0, 1], got {transmissivity}")
    if not 0 <= path < dim:
        raise ContractViolation(f"path {path} outside 0..{dim - 1}")
    diag = np.ones(dim, dtype=np.complex128)
    diag[path] = math.sqrt(transmissivity)
    return OpticalElement(np.diag(diag), ATTENUATOR)


def circuit_output_state(cfg: CircuitConfig) -> PathState:
    """Full matrix-route output state (pure-state path, coherence = 1 only).

    Applies input splitter, phi_x modulator, optional blocker and the
    effective Sagnac recombiner to the input; amplitudes are in port order.
    """
    if cfg.coherence != 1.0:
        raise ContractViolation("matrix route models the pure state only (coherence must be 1)")
    bs1, _, pm1, _ = standard_elements(cfg.phi_x, cfg.phi_s)
    state = apply_element(pm1, apply_element(bs1, PathState.basis(2, INPUT_PORT)))
    if cfg.block != BLOCK_NONE:
        path = 0 if cfg.block == BLOCK_PATH0 else 1
        state = apply_element(path_blocker(2, path), state)
    return apply_element(sagnac_effective(cfg.phi_s), state)


@lru_cache(maxsize=1)
def detector_ports() -> tuple:
    """Port indices (d1, d2) of the detectors, pinned by a calibration probe.

    Matrix products reproduce the closed-form probabilities only up to a port
    relabeling and per-port phases, so the mapping is fixed once by evaluating
    the open circuit at (phi_x, phi_s) = (pi/2, pi/2) and requiring p1 = 1
    there, matching the closed form.
    """
    probe = circuit_output_state(CircuitConfig(math.pi / 2, math.pi / 2))
    probs = born_probabilities(probe).probs
    d1 = int(np.argmax(probs))
    if abs(probs[d1] - 1.0) > ATOL_NORM:
        raise AssertionError("detector calibration probe did not concentrate on one port")
    return d1, 1 - d1


def state_detection_probs(state: PathState, conditional: bool = True) -> DetectionProbs:
    """Map a 2-port output state to detector probabilities.

    With ``conditional`` the pair is renormalized on detection, which is how
    blocked-path data are compared against the closed forms.
    """
    if state.dim != 2:
        raise ContractViolation("detector mapping is defined for the 2-port circuit")
    d1, d2 = detector_ports()
    dist = born_probabilities(state)
    if conditional:
        dist = dist.conditioned()
    p = dist.probs
    return DetectionProbs(float(p[d1]), float(p[d2]), conditional)


def open_p1(sin_x, sin_s, coherence=1.0):
    """Open-circuit p1 = (1 + gamma sin(phi_x) sin(phi_s)) / 2 (p2 = 1 - p1), elementwise on the sines."""
    return 0.5 * (1.0 + coherence * sin_x * sin_s)


def _blocked_pair(phi_s: float, block: str) -> tuple:
    """Conditional (p1, p2) with one path blocked: (cos^2, sin^2)(phi_s/2), swapped for path0."""
    c, s = math.cos(phi_s / 2.0) ** 2, math.sin(phi_s / 2.0) ** 2
    return (c, s) if block == BLOCK_PATH1 else (s, c)


def raw_probs(phi_x, phi_s: float, block: str = BLOCK_NONE, coherence: float = 1.0) -> np.ndarray:
    """Unconditional per-pulse (p1, p2), shape (2,) + phi_x.shape, over phi_x at one (phi_s, block).

    With a path blocked this is half the conditional pair, the blocker
    having removed half of the amplitude.
    """
    if block not in BLOCKS:
        raise ContractViolation(f"block must be one of {BLOCKS}, got {block!r}")
    phi_x = np.asarray(phi_x, dtype=np.float64)
    if block == BLOCK_NONE:
        p1 = open_p1(np.sin(phi_x), math.sin(phi_s), coherence)
        return np.stack((p1, 1.0 - p1))
    return np.stack([np.full(phi_x.shape, 0.5 * p) for p in _blocked_pair(phi_s, block)])


def raw_detection_probs(cfg: CircuitConfig) -> DetectionProbs:
    """Unconditional per-pulse probabilities feeding the photon-counting model."""
    p1, p2 = raw_probs(cfg.phi_x, cfg.phi_s, cfg.block, cfg.coherence)
    return DetectionProbs(float(p1), float(p2), conditional=cfg.block == BLOCK_NONE)


def detection_probs_closed_form(cfg: CircuitConfig) -> DetectionProbs:
    """Open-circuit detection probabilities, p1 = (1 + gamma sin.sin)/2.

    At gamma = 1 this is the interference pattern of the ideal device; the
    contrast factor scales the cross term only.
    """
    if cfg.block != BLOCK_NONE:
        raise ContractViolation("closed form with both paths open requires block = none")
    return raw_detection_probs(cfg)


def detection_probs_blocked(cfg: CircuitConfig, conditional: bool = True) -> DetectionProbs:
    """Blocked-path detection probabilities; independent of phi_x.

    Blocking path 1 leaves the conditional pair (cos^2(phi_s/2),
    sin^2(phi_s/2)); blocking path 0 swaps the ports.  Raw (unconditional)
    values are half of these, reflecting the blocked 50% of the amplitude.
    """
    if cfg.block == BLOCK_NONE:
        raise ContractViolation("blocked closed form requires block = path0 or path1")
    if conditional:
        return DetectionProbs(*_blocked_pair(cfg.phi_s, cfg.block), conditional=True)
    return raw_detection_probs(cfg)


def fringe_extrema(phi_s: float, coherence: float = 1.0) -> tuple:
    """Extrema (p_max, p_min) of the open-circuit p1 over phi_x at fixed phi_s."""
    amp = abs(coherence * math.sin(phi_s))
    return 0.5 * (1.0 + amp), 0.5 * (1.0 - amp)
