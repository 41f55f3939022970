"""The tunable-beamsplitter interferometer and its two routes to the detection probabilities.

Circuit layout: a 50:50 input splitter prepares an equal superposition of two
fiber paths, a phase modulator adds the controllable phase ``phi_x`` to one
path, an optional ideal blocker removes one path, and a Sagnac loop recombines
the paths.  The loop phase ``phi_s`` tunes the recombiner continuously from a
mirror (phi_s = 0: each input exits through a single port, no interference)
to a balanced splitter (phi_s = pi/2: full-contrast fringes in phi_x).

Two routes to the detection probabilities are provided and must agree:

* the matrix route, :func:`matrix_probs`, multiplying the element matrices
  onto the density matrix of the paths;
* the closed forms, :func:`raw_probs`, p1 = (1 + gamma sin(phi_x) sin(phi_s)) / 2
  with both paths open and the phi_x-independent pair (cos^2(phi_s/2),
  sin^2(phi_s/2)) with a path blocked.

``gamma`` is an interference-contrast factor in [0, 1] modeling residual
modal crosstalk in the demultiplexer as dephasing between the paths: it
scales fringe visibility (V = gamma sin phi_s) and leaves which-path
information untouched.  The matrix route applies it as a dephasing channel
on the paths after the phi_x modulator: it multiplies the off-diagonal
elements of their density matrix by gamma and keeps the diagonal (Englert,
PRL 77, 2154 (1996)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ContractViolation

BLOCK_NONE = "none"
BLOCK_PATH0 = "path0"
BLOCK_PATH1 = "path1"
BLOCKS = (BLOCK_NONE, BLOCK_PATH0, BLOCK_PATH1)

# The input couples into port 1 of the input splitter.  With the element
# matrices below this pins the detector mapping D1 = port 1, D2 = port 0
# (read off in matrix_probs): the open-circuit p1 then follows the closed
# form above, and blocking path 1 routes cos^2(phi_s/2) of the surviving
# amplitude to D1.
INPUT_PORT = 1


def check_coherence(coherence) -> None:
    """Raise ContractViolation unless the coherence lies in [0, 1] (NaN does not)."""
    if not 0.0 <= coherence <= 1.0:
        raise ContractViolation("coherence must lie in [0, 1]")


def _check_setting(phi_x, phi_s, block: str, coherence) -> None:
    """The checks shared by both routes to the probabilities over phi_x at one (phi_s, block) setting."""
    if block not in BLOCKS:
        raise ContractViolation(f"block must be one of {BLOCKS}, got {block!r}")
    if not (math.isfinite(phi_s) and np.isfinite(phi_x).all()):
        raise ContractViolation("phases must be finite")
    check_coherence(coherence)


@dataclass(frozen=True)
class CircuitConfig:
    """One interferometer setting: phases, block state, contrast factor."""

    phi_x: float
    phi_s: float
    block: str = BLOCK_NONE
    coherence: float = 1.0

    def __post_init__(self):
        _check_setting(self.phi_x, self.phi_s, self.block, self.coherence)


def _frozen(matrix) -> np.ndarray:
    """A read-only complex copy, so the lru_cache'd matrices cannot be written through."""
    m = np.array(matrix, dtype=np.complex128)
    m.setflags(write=False)
    return m


def relative_phase(phi: float) -> np.ndarray:
    """diag(1, e^{i phi}) - a phase modulator on the second path."""
    return _frozen([[1.0, 0.0], [0.0, np.exp(1j * phi)]])


@lru_cache(maxsize=2)
def _splitters():
    inv = 1.0 / math.sqrt(2.0)
    bs1 = _frozen(inv * np.array([[1.0, 1j], [1j, 1.0]]))
    bs2 = _frozen(inv * np.array([[1j, -1.0], [-1.0, 1j]]))
    return bs1, bs2


def standard_elements(phi_x: float, phi_s: float):
    """The four circuit elements (input splitter, loop splitter, both modulators) as read-only 2x2 arrays.

    Returns (BS1, BS2, PM1, PM2) where BS1 = (1/sqrt2)[[1, i], [i, 1]],
    BS2 = (1/sqrt2)[[i, -1], [-1, i]], PM1 = diag(1, e^{i phi_x}) and
    PM2 = diag(1, e^{i phi_s}).
    """
    bs1, bs2 = _splitters()
    return bs1, bs2, relative_phase(phi_x), relative_phase(phi_s)


@lru_cache(maxsize=4096)
def sagnac_effective(phi_s: float) -> np.ndarray:
    """Effective recombiner BS2 . PM2(phi_s) . BS2 of the Sagnac loop.

    The wave packets split at the loop splitter, the loop phase addresses one
    propagation direction, and both recombine in the same splitter; the net
    effect is this single unitary.  phi_s = 0 gives a mirror (full port swap
    up to phase), phi_s = pi/2 a balanced splitter.
    """
    _, bs2, _, pm2 = standard_elements(0.0, phi_s)
    return _frozen(bs2 @ (pm2 @ bs2))


@lru_cache(maxsize=2)
def path_blocker(path: int) -> np.ndarray:
    """Ideal blocker of one of the two paths: the diagonal projector onto the other."""
    if not 0 <= path < 2:
        raise ContractViolation(f"path {path} outside 0..1")
    diag = np.ones(2, dtype=np.complex128)
    diag[path] = 0.0
    return _frozen(np.diag(diag))


def matrix_probs(phi_x, phi_s: float, block: str = BLOCK_NONE, coherence: float = 1.0) -> np.ndarray:
    """The (p1, p2) of :func:`raw_probs`, by the matrix route over the whole phi_x array.

    The input splitter's column at INPUT_PORT and the phi_x modulator give
    the paths' amplitudes, whose density matrix dephases by ``coherence``;
    the blocker (if a path is blocked) and then the Sagnac recombiner act on
    it, and D1 reads port 1, D2 port 0.
    """
    _check_setting(phi_x, phi_s, block, coherence)
    phi_x = np.asarray(phi_x, dtype=np.float64)
    modulator = np.stack((np.ones(phi_x.shape), np.exp(1j * phi_x)), axis=-1)  # the diagonal of PM1(phi_x)
    amps = _splitters()[0][:, INPUT_PORT] * modulator
    rho = amps[..., :, None] * amps[..., None, :].conj() * np.array([[1.0, coherence], [coherence, 1.0]])
    out = sagnac_effective(phi_s)
    if block != BLOCK_NONE:
        out = out @ path_blocker(0 if block == BLOCK_PATH0 else 1)
    ports = np.einsum("pk,...kl,pl->p...", out, rho, out.conj()).real
    return ports[[1, 0]]


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
    _check_setting(phi_x, phi_s, block, coherence)
    phi_x = np.asarray(phi_x, dtype=np.float64)
    if block == BLOCK_NONE:
        p1 = open_p1(np.sin(phi_x), math.sin(phi_s), coherence)
        return np.stack((p1, 1.0 - p1))
    return np.stack([np.full(phi_x.shape, 0.5 * p) for p in _blocked_pair(phi_s, block)])


def raw_detection_probs(cfg: CircuitConfig) -> tuple:
    """Unconditional per-pulse (p1, p2) of one setting, as floats, feeding the photon-counting model."""
    p1, p2 = raw_probs(cfg.phi_x, cfg.phi_s, cfg.block, cfg.coherence)
    return float(p1), float(p2)
