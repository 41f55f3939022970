"""Photon-counting Monte Carlo for the tunable-beamsplitter experiment.

Source model: attenuated laser pulses carry Poisson-distributed photon
numbers with mean ``mu`` per detection gate.  Detection efficiency and the
measurement-system loss thin the beam independently, so each detector's click
probability per pulse is

    c_j = 1 - exp(-mu_eff * p_j_raw) + dark_prob,   mu_eff = mu * eta * 10^(-L/10),

with ``p_j_raw`` the unconditional optics probability (half amplitude when a
path is blocked).  Counts over a point are binomial in the pulse number.
:func:`click_probs` is this model on arrays; the sweep and the switch
scenario both call it.  The time-multiplexed single-detector readout of the
experiment (D1 in the early gate, D2 in the late one) is a pure relabeling
with afterpulsing off, so it is not modeled.

Determinism contract: every grid cell draws from its own substream derived as
a pure function of (seed, block index, phi_s index, phi_x index), first the
D1 count and then the D2 count.  Identical plans produce bit-identical counts
in any evaluation order.  The switch scenario draws from one stream, chunk by
chunk: every D1 uniform of a chunk, then every D2 uniform of it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation
from .estimators import FringeScan
from .optics import BLOCKS, CircuitConfig, open_p1, raw_detection_probs, raw_probs

IDEAL_MODE = "ideal"
MONTECARLO_MODE = "montecarlo"
MODES = (IDEAL_MODE, MONTECARLO_MODE)

# Fitted maximum fringe contrast of the physical device; the pure-state model
# uses 1.0.  Plans may override either.
DEFAULT_COHERENCE_MC = 0.967
DEFAULT_COHERENCE_IDEAL = 1.0

DEFAULT_PULSES_PER_POINT = 120_000  # 0.8 s integration at the default repetition rate

SWITCH_CHUNK_PULSES = 1_000_000  # pulses sampled per step of the switch scenario; bounds its memory
MAX_PHI_X_STEPS = 2**16  # caps the cells and the memory a sweep plan may ask for


@dataclass(frozen=True)
class SourceConfig:
    """Pulsed weak-coherent source: mean photons per gate and repetition rate."""

    mu: float = 0.2
    rep_rate: float = 150e3

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ContractViolation(f"mu must be > 0, got {self.mu}")
        if not (math.isfinite(self.rep_rate) and self.rep_rate > 0):
            raise ContractViolation(f"rep_rate must be > 0, got {self.rep_rate}")


@dataclass(frozen=True)
class DetectorConfig:
    """Gated single-photon detection: efficiency, system loss, dark counts per gate."""

    efficiency: float = 0.10
    system_loss_db: float = 12.0
    dark_prob: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.efficiency <= 1.0:
            raise ContractViolation(f"efficiency must lie in (0, 1], got {self.efficiency}")
        if not (math.isfinite(self.system_loss_db) and self.system_loss_db >= 0):
            raise ContractViolation("system_loss_db must be finite and nonnegative")
        if not 0.0 <= self.dark_prob <= 1.0:
            raise ContractViolation("dark_prob must lie in [0, 1]")


@dataclass(frozen=True)
class RunPlan:
    """A full sweep: phi_s values, phi_x grid, block settings, statistics, seed.

    ``coherence=None`` resolves to the mode default (1.0 ideal, 0.967 Monte
    Carlo).  ``phi_x_grid`` is (start, stop, steps) with a half-open range.
    """

    phi_s_values: tuple
    phi_x_grid: tuple = (0.0, 2.0 * math.pi, 32)
    blocks: tuple = BLOCKS
    pulses_per_point: int = DEFAULT_PULSES_PER_POINT
    coherence: float | None = None
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.blocks, str):
            raise ContractViolation(f"blocks must be a list of settings, got {self.blocks!r}")
        object.__setattr__(self, "phi_s_values", tuple(float(p) for p in self.phi_s_values))
        object.__setattr__(self, "blocks", tuple(self.blocks))
        start, stop, steps = self.phi_x_grid
        integers = (("phi_x grid steps", steps), ("pulses_per_point", self.pulses_per_point), ("seed", self.seed))
        for name, value in integers:
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ContractViolation(f"{name} must be an integer, got {value!r}")
        object.__setattr__(self, "phi_x_grid", (float(start), float(stop), int(steps)))
        if not self.phi_s_values:
            raise ContractViolation("phi_s_values must be non-empty")
        if not all(map(math.isfinite, self.phi_s_values + self.phi_x_grid[:2])):
            raise ContractViolation("phi_s values and phi_x grid bounds must be finite")
        if not 2 <= int(steps) <= MAX_PHI_X_STEPS:
            raise ContractViolation(f"phi_x grid needs 2 to {MAX_PHI_X_STEPS} steps, got {steps}")
        if not float(stop) > float(start):
            raise ContractViolation("phi_x grid stop must exceed start")
        if not 0 <= self.pulses_per_point < 2**63:
            raise ContractViolation("pulses_per_point must lie in [0, 2^63)")
        for b in self.blocks:
            if b not in BLOCKS:
                raise ContractViolation(f"unknown block setting {b!r}")
        if len(set(self.blocks)) != len(self.blocks) or not self.blocks:
            raise ContractViolation("blocks must be a non-empty set of distinct settings")
        if self.coherence is not None and not 0.0 <= self.coherence <= 1.0:
            raise ContractViolation("coherence must lie in [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ContractViolation("seed must be a 64-bit unsigned integer")

    def phi_x_values(self) -> np.ndarray:
        start, stop, steps = self.phi_x_grid
        return start + (stop - start) * np.arange(steps) / steps

    def resolved_coherence(self, mode: str) -> float:
        if self.coherence is not None:
            return self.coherence
        return DEFAULT_COHERENCE_IDEAL if mode == IDEAL_MODE else DEFAULT_COHERENCE_MC


def effective_mean_photons(source: SourceConfig, detector: DetectorConfig) -> float:
    """Detected mean photons per pulse after efficiency and system loss."""
    return source.mu * detector.efficiency * 10.0 ** (-detector.system_loss_db / 10.0)


def click_probs(p_raw, source: SourceConfig, detector: DetectorConfig):
    """Click probabilities min(1, 1 - exp(-mu_eff p) + dark_prob), elementwise on raw probabilities.

    Computed in a single buffer: the switch scenario calls this on chunks of
    a million pulses, where every temporary array is a fresh allocation.
    """
    c = np.array(p_raw, dtype=np.float64)
    c *= -effective_mean_photons(source, detector)
    np.expm1(c, out=c)
    np.negative(c, out=c)
    c += detector.dark_prob
    return np.minimum(c, 1.0, out=c)


def click_probabilities(cfg: CircuitConfig, source: SourceConfig, detector: DetectorConfig):
    """Per-pulse click probability (c1, c2) at each detector for one circuit setting."""
    c1, c2 = click_probs(raw_detection_probs(cfg).as_tuple, source, detector)
    return float(c1), float(c2)


def expected_counts(cfg: CircuitConfig, source: SourceConfig, detector: DetectorConfig, pulses: int):
    """Expected click counts over a point; the noiseless limit of simulate_point."""
    c1, c2 = click_probabilities(cfg, source, detector)
    return pulses * c1, pulses * c2


def simulate_point(
    cfg: CircuitConfig,
    source: SourceConfig,
    detector: DetectorConfig,
    pulses: int,
    rng: np.random.Generator,
):
    """Sampled (n1, n2) click counts for one grid cell.

    Binomial sampling over pulses is exactly equivalent to drawing Poisson
    photon numbers at the source and thinning through loss, efficiency and
    the Born splitting, because a thinned Poisson beam yields independent
    per-detector click probabilities 1 - exp(-mu_eff p_j).
    """
    if pulses < 0:
        raise ContractViolation("pulses must be nonnegative")
    c1, c2 = click_probabilities(cfg, source, detector)
    return int(rng.binomial(pulses, c1)), int(rng.binomial(pulses, c2))


def cell_rng(seed: int, block_index: int, phi_s_index: int, phi_x_index: int) -> np.random.Generator:
    """Substream for one grid cell; pure function of (seed, cell indices).

    Uses a SeedSequence spawn key, so substreams are independent of each
    other and of the order in which cells are evaluated.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(block_index, phi_s_index, phi_x_index))
    return np.random.Generator(np.random.PCG64(ss))


def sample_photon_numbers(mu: float, pulses: int, rng: np.random.Generator) -> np.ndarray:
    """Photon number per pulse at the source (before any loss)."""
    if mu <= 0:
        raise ContractViolation("mu must be positive")
    return rng.poisson(mu, size=pulses)


def multi_photon_fraction(mu: float, pulses: int, rng: np.random.Generator) -> float:
    """Sampled fraction of pulses carrying 2+ photons; expectation 1 - e^-mu (1 + mu)."""
    n = sample_photon_numbers(mu, pulses, rng)
    return float(np.count_nonzero(n >= 2)) / pulses


def run_sweep(
    plan: RunPlan,
    source: SourceConfig | None = None,
    detector: DetectorConfig | None = None,
    mode: str = MONTECARLO_MODE,
) -> list:
    """One FringeScan per (phi_s, block) pair, in plan order.

    Each pair is evaluated as one phi_x row.  The ideal route is the
    noiseless mass pulses * p, bypassing the click model and its ~mu_eff/2
    relative nonlinearity so that it reproduces the closed forms exactly.
    The Monte Carlo route draws each cell's D1 then D2 count from the
    cell's own substream.
    """
    if mode not in MODES:
        raise ContractViolation(f"mode must be one of {MODES}")
    source = source or SourceConfig()
    detector = detector or DetectorConfig()
    coherence = plan.resolved_coherence(mode)
    phi_x = plan.phi_x_values()
    pulses = plan.pulses_per_point
    scans = []
    for s_idx, phi_s in enumerate(plan.phi_s_values):
        for block in plan.blocks:
            p = raw_probs(phi_x, phi_s, block, coherence)
            if mode == IDEAL_MODE:
                counts = pulses * p
            else:
                b_idx = BLOCKS.index(block)
                counts = np.empty_like(p)
                for x_idx, (c1, c2) in enumerate(click_probs(p, source, detector).T.tolist()):
                    rng = cell_rng(plan.seed, b_idx, s_idx, x_idx)
                    counts[:, x_idx] = rng.binomial(pulses, c1), rng.binomial(pulses, c2)
            scans.append(FringeScan(
                phi_s=phi_s, block=block, phi_x=phi_x, n1=counts[0], n2=counts[1],
                pulses_per_point=pulses, seed=plan.seed, mode=mode,
            ))
    return scans


@dataclass(frozen=True)
class SwitchTrace:
    """Binned time series from the dynamic wave/particle switching run."""

    t: np.ndarray
    phi_s: np.ndarray
    phi_x: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    pulses_per_bin: int

    def __post_init__(self):
        sizes = {arr.size for arr in (self.t, self.phi_s, self.phi_x, self.n1, self.n2)}
        if len(sizes) != 1:
            raise ContractViolation("all trace arrays must have equal length")


def triangle_wave(t: np.ndarray, period: float, amplitude: float = 2.0 * math.pi) -> np.ndarray:
    """Symmetric triangle 0 -> amplitude -> 0 over one period."""
    frac = np.mod(t / period, 1.0)
    return amplitude * (1.0 - np.abs(2.0 * frac - 1.0))


def run_dynamic_switch(
    duration_s: float,
    toggle_period_s: float,
    triangle_period_s: float,
    source: SourceConfig,
    detector: DetectorConfig,
    rng: np.random.Generator | int,
    coherence: float = 1.0,
    bin_seconds: float = 0.2,
) -> SwitchTrace:
    """Continuous phi_x triangle sweep while phi_s toggles between 0 and pi/2.

    phi_s starts at 0 (which-path segments with flat, balanced rates) and
    flips every ``toggle_period_s`` to pi/2 (full-contrast fringe segments).
    Each chunk of SWITCH_CHUNK_PULSES pulses draws one uniform per pulse for
    D1, then one per pulse for D2; a pulse clicks at a detector when its
    uniform lies below that detector's click probability, and clicks are
    binned into windows of ``bin_seconds``.

    No click probability exceeds the saturating port's, c(p = 1), so a
    uniform at or above it cannot click.  The phase and click model is
    evaluated only on the pulses whose uniform falls below that bound (a
    fraction c(p = 1), about mu_eff, of them); every draw and every count is
    what evaluating the model on all pulses gives.
    """
    if min(duration_s, toggle_period_s, triangle_period_s, bin_seconds) <= 0:
        raise ContractViolation("durations and periods must be positive")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(rng))))
    n_pulses = int(duration_s * source.rep_rate)
    n_bins = int(math.ceil(duration_s / bin_seconds))
    counts = np.zeros(2 * n_bins, dtype=np.int64)
    # The relative margin keeps the bound above every c even if a vectorised
    # expm1 is not monotone to the last bit; it admits no measurable extra work.
    c_bound = click_probs(1.0, source, detector) * (1.0 + 1e-9)

    buf = np.empty(2 * min(SWITCH_CHUNK_PULSES, n_pulses))  # one buffer for every chunk's uniforms
    for start in range(0, n_pulses, SWITCH_CHUNK_PULSES):
        size = min(SWITCH_CHUNK_PULSES, n_pulses - start)
        u = rng.random(out=buf[: 2 * size])  # every D1 uniform of the chunk, then every D2 one
        cand = np.flatnonzero(u < c_bound)
        det, idx = np.divmod(cand, size)
        t = (idx + start + 0.5) / source.rep_rate
        phi_x = triangle_wave(t, triangle_period_s)
        wave_segment = (np.floor(t / toggle_period_s).astype(np.int64) % 2) == 1
        sin_s = np.where(wave_segment, 1.0, 0.0)  # sin(phi_s) for phi_s in {0, pi/2}
        p1 = open_p1(np.sin(phi_x), sin_s, coherence)
        hit = u[cand] < click_probs(np.where(det == 0, p1, 1.0 - p1), source, detector)
        bins = np.minimum((t[hit] / bin_seconds).astype(np.int64), n_bins - 1)
        counts += np.bincount(det[hit] * n_bins + bins, minlength=2 * n_bins)

    t_bin = (np.arange(n_bins) + 0.5) * bin_seconds
    phi_s_bin = np.where((np.floor(t_bin / toggle_period_s).astype(np.int64) % 2) == 1, math.pi / 2.0, 0.0)
    return SwitchTrace(
        t=t_bin,
        phi_s=phi_s_bin,
        phi_x=triangle_wave(t_bin, triangle_period_s),
        n1=counts[:n_bins].astype(np.float64),
        n2=counts[n_bins:].astype(np.float64),
        pulses_per_bin=int(round(bin_seconds * source.rep_rate)),
    )
