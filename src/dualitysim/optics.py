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

Both broadcast phi_x against phi_s, at one block setting and one ``gamma`` per
call: a sweep's rows, a (phi_s, phi_x) plane and the switch scenario's
per-pulse phases go through the same formulas.

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


def _check_setting(phi_x, phi_s, block: str, coherence) -> tuple:
    """The checks shared by both routes; returns phi_x and phi_s as float64 arrays and their broadcast shape."""
    if block not in BLOCKS:
        raise ContractViolation(f"block must be one of {BLOCKS}, got {block!r}")
    phi_x, phi_s = np.asarray(phi_x, dtype=np.float64), np.asarray(phi_s, dtype=np.float64)
    if not (np.isfinite(phi_s).all() and np.isfinite(phi_x).all()):
        raise ContractViolation("phases must be finite")
    check_coherence(coherence)
    try:
        shape = np.broadcast(phi_x, phi_s).shape
    except ValueError:
        raise ContractViolation(f"phi_x and phi_s shapes {phi_x.shape} and {phi_s.shape} do not broadcast") from None
    return phi_x, phi_s, shape


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
    """A read-only complex copy, so that no caller can write into an element matrix."""
    m = np.array(matrix, dtype=np.complex128)
    m.setflags(write=False)
    return m


# The input splitter, the loop splitter, and the blockers of path 0 and path 1, all read-only.
BS1 = _frozen(1.0 / math.sqrt(2.0) * np.array([[1.0, 1j], [1j, 1.0]]))
BS2 = _frozen(1.0 / math.sqrt(2.0) * np.array([[1j, -1.0], [-1.0, 1j]]))
BLOCKERS = (_frozen(np.diag([0.0, 1.0])), _frozen(np.diag([1.0, 0.0])))


def relative_phase(phi) -> np.ndarray:
    """diag(1, e^{i phi}) - a phase modulator on the second path; shape np.shape(phi) + (2, 2)."""
    m = np.zeros(np.shape(phi) + (2, 2), dtype=np.complex128)
    m[..., 0, 0], m[..., 1, 1] = 1.0, np.exp(1j * phi)
    return _frozen(m)


def standard_elements(phi_x, phi_s):
    """The four circuit elements (BS1, BS2, PM1, PM2) as read-only arrays, the modulators at phi_x and phi_s."""
    return BS1, BS2, relative_phase(phi_x), relative_phase(phi_s)


def sagnac_effective(phi_s) -> np.ndarray:
    """Effective recombiner BS2 . PM2(phi_s) . BS2 of the Sagnac loop; shape np.shape(phi_s) + (2, 2).

    The wave packets split at the loop splitter, the loop phase addresses one
    propagation direction, and both recombine in the same splitter; the net
    effect is this single unitary.  phi_s = 0 gives a mirror (full port swap
    up to phase), phi_s = pi/2 a balanced splitter.
    """
    return _frozen(BS2 @ (relative_phase(phi_s) @ BS2))


def path_blocker(path: int) -> np.ndarray:
    """Ideal blocker of one of the two paths: the diagonal projector onto the other."""
    if not 0 <= path < 2:
        raise ContractViolation(f"path {path} outside 0..1")
    return BLOCKERS[path]


def matrix_probs(phi_x, phi_s, block: str = BLOCK_NONE, coherence: float = 1.0) -> np.ndarray:
    """The (p1, p2) of :func:`raw_probs`, by the matrix route, with phi_x broadcast against phi_s.

    The input splitter's column at INPUT_PORT and the phi_x modulator give
    the paths' amplitudes, whose density matrix dephases by ``coherence``;
    the blocker (if a path is blocked) and then the Sagnac recombiner act on
    it, and D1 reads port 1, D2 port 0.
    """
    phi_x, phi_s, _ = _check_setting(phi_x, phi_s, block, coherence)
    amps = relative_phase(phi_x) @ BS1[:, INPUT_PORT]
    rho = amps[..., :, None] * amps[..., None, :].conj() * np.array([[1.0, coherence], [coherence, 1.0]])
    out = sagnac_effective(phi_s)
    if block != BLOCK_NONE:
        out = out @ path_blocker(0 if block == BLOCK_PATH0 else 1)
    ports = np.einsum("...pk,...kl,...pl->p...", out, rho, out.conj()).real
    return ports[[1, 0]]


def raw_probs(phi_x, phi_s, block: str = BLOCK_NONE, coherence: float = 1.0) -> np.ndarray:
    """Unconditional per-pulse (p1, p2), shape (2,) + the broadcast shape of phi_x and phi_s.

    Both paths open, p1 = (1 + gamma sin(phi_x) sin(phi_s)) / 2 and p2 = 1 - p1.
    With a path blocked this is half the conditional pair (cos^2, sin^2)(phi_s/2),
    swapped for path0, the blocker having removed half of the amplitude; the
    pair is computed over phi_s alone, as it does not depend on phi_x.
    """
    phi_x, phi_s, shape = _check_setting(phi_x, phi_s, block, coherence)
    out = np.empty((2,) + shape)
    if block == BLOCK_NONE:
        out[0] = 0.5 * (1.0 + coherence * np.sin(phi_x) * np.sin(phi_s))
        out[1] = 1.0 - out[0]
    else:  # float_power squares to the bits of Python's float ** 2, which the goldens pin; x * x differs on some
        half = phi_s / 2.0
        c, s = 0.5 * np.float_power(np.cos(half), 2.0), 0.5 * np.float_power(np.sin(half), 2.0)
        out[0], out[1] = (c, s) if block == BLOCK_PATH1 else (s, c)
    return out


def raw_detection_probs(cfg: CircuitConfig) -> tuple:
    """Unconditional per-pulse (p1, p2) of one setting, as floats, feeding the photon-counting model."""
    p1, p2 = raw_probs(cfg.phi_x, cfg.phi_s, cfg.block, cfg.coherence)
    return float(p1), float(p2)
