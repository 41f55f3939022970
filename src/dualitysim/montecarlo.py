"""Photon-counting Monte Carlo for the tunable-beamsplitter experiment.

Source model: attenuated laser pulses carry Poisson-distributed photon
numbers with mean ``mu`` per detection gate.  Detection efficiency and the
measurement-system loss thin the beam independently, so each detector's click
probability per pulse is

    c_j = 1 - exp(-mu_eff * p_j_raw) + dark_prob,   mu_eff = mu * eta * 10^(-L/10),

with ``p_j_raw`` the unconditional optics probability (half amplitude when a
path is blocked).  Counts over a point are binomial in the pulse number.
:func:`click_probs` is this model on arrays, and :func:`~dualitysim.optics.raw_probs`
gives its ``p_j_raw``; the sweep and the switch scenario both call them.  The time-multiplexed single-detector readout of the
experiment (D1 in the early gate, D2 in the late one) is a pure relabeling
with afterpulsing off, so it is not modeled.

Determinism contract: every grid cell draws from its own substream, first
the D1 count and then the D2 count.  The substream is exactly numpy's
``PCG64(SeedSequence(seed, spawn_key=(block index, phi_s index, phi_x
index)))``, so identical plans produce bit-identical counts in any
evaluation order.  The sweep does not build those objects per cell: it
computes SeedSequence's uint32 hash-mix for every cell of the plan in one
array pass, seeds PCG64's LCG from the result, and sets one reused
Generator to each cell's state in turn.  Reusing the Generator is safe
because the only state its binomial sampler keeps between draws is a setup
cache keyed on (n, p).  The switch scenario reads one stream, chunk by
chunk: every D1 uniform of a chunk, then every D2 uniform of it.  Two
generators read the stream at those fixed positions, the D1 half on the
calling thread and the D2 half on a second thread, so the draws and the bytes
are those of reading the stream in order.  Both runs return bare counts
that their plan describes, and the input rules live in the plans:
:class:`RunPlan` for a sweep, :class:`SwitchPlan` (its caps, whole bins of
whole pulses, its phase rule and bin axes) for a switch run.
"""
from __future__ import annotations

import math
import threading
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ContractViolation
from .optics import BLOCKS, CircuitConfig, check_coherence, raw_detection_probs, raw_probs

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
# Caps the cells of a sweep (9 phi_s x 3 blocks x 2^16 steps fit); it also keeps
# every spawn-key word of a cell below 2^32, one uint32 word each.
MAX_SWEEP_CELLS = 2**21
MAX_SWITCH_BINS = 10**7  # caps the memory of a switch run's binned counts
MAX_SWITCH_PULSES = 10**9  # caps the sampling time of a switch run (the reference run is 1.08e7)

# numpy's SeedSequence hash-mix (pool of four uint32 words) and PCG64's LCG
# multiplier; _substream_words and _pcg64_state reproduce their seeding.
_POOL_SIZE = 4
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32, _U128 = 2**32 - 1, 2**128 - 1


def _hash_constants(init: int, mult: int, calls: int) -> tuple:
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _U32)
    return tuple(consts)


# The hash constant steps once per hash call: pool init and cross-mix
# (POOL_SIZE^2 calls), then POOL_SIZE per spawn-key word (three of them);
# the output hash has its own constants, one step per generated uint32 word.
_MIX_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE**2 + 3 * _POOL_SIZE)
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 2 * _POOL_SIZE)


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


def _check_seed(seed) -> None:
    """Raise ContractViolation unless the seed is an integer in [0, 2^64), as numpy's SeedSequence takes it."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ContractViolation("seed must be a 64-bit unsigned integer")


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
        phi_x = self.phi_x_values()
        if not (np.isfinite(phi_x).all() and (np.diff(phi_x) > 0).all()):
            raise ContractViolation("phi_x grid must give finite, strictly increasing floats")
        # the counts are float64, which hold every integer up to 2^53 exactly: fringes.csv prints them unrounded
        if not 0 <= self.pulses_per_point <= 2**53:
            raise ContractViolation("pulses_per_point must lie in [0, 2^53]")
        for b in self.blocks:
            if b not in BLOCKS:
                raise ContractViolation(f"unknown block setting {b!r}")
        if len(set(self.blocks)) != len(self.blocks) or not self.blocks:
            raise ContractViolation("blocks must be a non-empty set of distinct settings")
        if len(self.phi_s_values) * len(self.blocks) * int(steps) > MAX_SWEEP_CELLS:
            raise ContractViolation(f"phi_s values x blocks x phi_x steps exceeds {MAX_SWEEP_CELLS} cells")
        if self.coherence is not None:
            check_coherence(self.coherence)
        _check_seed(self.seed)

    @np.errstate(over="ignore", invalid="ignore")  # an overflowing grid is rejected, not warned about
    def phi_x_values(self) -> np.ndarray:
        start, stop, steps = self.phi_x_grid
        return start + (stop - start) * np.arange(steps) / steps

    def resolved_coherence(self, mode: str) -> float:
        if self.coherence is not None:
            return self.coherence
        return DEFAULT_COHERENCE_IDEAL if mode == IDEAL_MODE else DEFAULT_COHERENCE_MC


def is_whole(x: float) -> bool:
    """Whether x is a whole number of at least 1, to a relative tolerance of 1e-9."""
    return math.isfinite(x) and round(x) >= 1 and abs(x - round(x)) <= 1e-9 * x


@dataclass(frozen=True)
class SwitchPlan:
    """Timing of the dynamic switching scenario: a whole number of bins of ``bin_seconds``."""

    duration_s: float = 72.0
    toggle_period_s: float = 18.0
    triangle_period_s: float = 6.0
    bin_seconds: float = 0.2

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in astuple(self)):
            raise ContractViolation("all durations and periods must be finite and positive")
        bins = self.duration_s / self.bin_seconds
        if bins > MAX_SWITCH_BINS:
            raise ContractViolation(f"duration_s / bin_seconds asks for more than {MAX_SWITCH_BINS} bins")
        # A ragged last bin would hold fewer pulses than pulses_per_bin says.
        if not is_whole(bins):
            raise ContractViolation(f"duration_s must be a whole number of bin_seconds, got {bins!r} bins")

    def pulses(self, source: SourceConfig) -> tuple:
        """(bins, pulses_per_bin) of a run at the source's repetition rate, within the pulse cap."""
        if self.duration_s * source.rep_rate > MAX_SWITCH_PULSES:
            raise ContractViolation(f"switch.duration_s * source.rep_rate asks for more than {MAX_SWITCH_PULSES} pulses")
        for name in ("toggle_period_s", "triangle_period_s"):  # with the pulse cap, t / period <= 1e9 casts to int64
            if getattr(self, name) < 1.0 / source.rep_rate:
                raise ContractViolation(f"switch.{name} must be at least one pulse interval, 1 / source.rep_rate")
        # Unequal bins would hold other pulse counts than the reported pulses_per_bin.
        per_bin = self.bin_seconds * source.rep_rate
        if not is_whole(per_bin):
            raise ContractViolation(f"switch.bin_seconds * source.rep_rate must be a whole number of pulses, got {per_bin!r}")
        return self._bins(), round(per_bin)

    def _bins(self) -> int:
        """The run's bin count, which the plan's checks make a whole number of at least 1."""
        return round(self.duration_s / self.bin_seconds)

    def phases(self, t: np.ndarray) -> tuple:
        """(phi_s, phi_x) at each time ``t`` (s): the one phase rule, of the sampler and of :meth:`bin_axes`.

        phi_s toggles between 0 and pi/2 (a wave segment) every toggle period, starting at 0, and phi_x
        sweeps the modulator's full range as a symmetric triangle 0 -> 2 pi -> 0 over each triangle period.
        """
        wave = np.floor(t / self.toggle_period_s).astype(np.int64) % 2 == 1
        frac = np.mod(t / self.triangle_period_s, 1.0)
        return np.where(wave, math.pi / 2.0, 0.0), 2.0 * math.pi * (1.0 - np.abs(2.0 * frac - 1.0))

    def bin_axes(self) -> tuple:
        """(t, phi_s, phi_x) at the centre of each bin of the run: the labels of its (detector, bin) counts."""
        t = (np.arange(self._bins()) + 0.5) * self.bin_seconds
        return (t, *self.phases(t))


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
    c1, c2 = click_probs(raw_detection_probs(cfg), source, detector)
    return float(c1), float(c2)


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


def _hash(value, consts: tuple, k: int):
    """SeedSequence's k-th hash step, in uint32 arithmetic on ints or uint32 arrays."""
    value = (value ^ consts[k]) * consts[k + 1] & _U32
    return value ^ value >> 16


def _mix(x, y):
    """SeedSequence's mix of a hashed word ``y`` into a pool word ``x``."""
    r = ((_MIX_MULT_L * x & _U32) - (_MIX_MULT_R * y & _U32)) & _U32
    return r ^ r >> 16


def _substream_words(seed: int, block_index, phi_s_index, phi_x_index) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(b, s, x)).generate_state(4, np.uint64)`` for every cell at once.

    The indices broadcast against each other and must lie in [0, 2^32); the
    result has their broadcast shape plus a last axis of four uint64 words.
    The seed's pool is mixed once with ints, the three spawn-key words as
    uint32 arrays.
    """
    _check_seed(seed)
    seed = int(seed)
    # A seed below 2^64 is at most two 32-bit words, zero-padded to the pool size.
    pool = [_hash(seed >> 32 * i & _U32, _MIX_HASH, i) for i in range(_POOL_SIZE)]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], _MIX_HASH, k))
                k += 1
    for word in (block_index, phi_s_index, phi_x_index):
        word = np.array(word, dtype=np.uint32, ndmin=1)
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hash(word, _MIX_HASH, k))
            k += 1
    words = np.empty(pool[0].shape + (_POOL_SIZE,), dtype=np.uint64)
    for j in range(_POOL_SIZE):  # uint64 word j is generated uint32 words 2j (low) and 2j + 1 (high)
        lo, hi = (_hash(pool[i % _POOL_SIZE], _OUT_HASH, i).astype(np.uint64) for i in (2 * j, 2 * j + 1))
        words[..., j] = lo | hi << 32
    return words


def _pcg64_state(words) -> dict:
    """The public state of PCG64 seeded from four generate_state words (numpy's srandom: two LCG steps)."""
    initstate = words[0] << 64 | words[1]
    inc = (words[2] << 64 | words[3]) << 1 & _U128 | 1
    state = ((inc + initstate) * _PCG64_MULT + inc) & _U128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}


def cell_rng(seed: int, block_index: int, phi_s_index: int, phi_x_index: int) -> np.random.Generator:
    """Substream for one grid cell; pure function of (seed, cell indices).

    Exactly ``Generator(PCG64(SeedSequence(seed, spawn_key=(b, s, x))))``,
    derived as a one-cell call of the array pass :func:`run_sweep` makes.
    Substreams are independent of each other and of the order in which cells
    are evaluated.
    """
    rng = np.random.Generator(np.random.PCG64(0))  # its state is replaced below
    rng.bit_generator.state = _pcg64_state(_substream_words(seed, block_index, phi_s_index, phi_x_index)[0].tolist())
    return rng


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
) -> np.ndarray:
    """Counts of every cell of ``plan``: float64, shape (phi_s, block, detector D1/D2, phi_x), in plan order.

    Each (phi_s, block) pair is evaluated as one phi_x row.  The ideal route
    is the noiseless mass pulses * p, bypassing the click model and its
    ~mu_eff/2 relative nonlinearity so that it reproduces the closed forms
    exactly.  The Monte Carlo route draws each cell's D1 then D2 count from
    the cell's own substream (see :func:`cell_rng`), with every cell's state
    derived up front in one array pass and one Generator set to each in turn.
    """
    if mode not in MODES:
        raise ContractViolation(f"mode must be one of {MODES}")
    source = source or SourceConfig()
    detector = detector or DetectorConfig()
    coherence = plan.resolved_coherence(mode)
    phi_x = plan.phi_x_values()
    pulses = plan.pulses_per_point
    if mode == MONTECARLO_MODE:
        b_idx = np.array([BLOCKS.index(block) for block in plan.blocks])
        s_idx = np.arange(len(plan.phi_s_values))
        words = _substream_words(plan.seed, b_idx[:, None], s_idx[:, None, None], np.arange(phi_x.size))  # (s, b, x, 4)
        rng = np.random.Generator(np.random.PCG64(0))  # its state is set cell by cell
    counts = np.empty((len(plan.phi_s_values), len(plan.blocks), 2, phi_x.size))
    for s_pos, phi_s in enumerate(plan.phi_s_values):
        for b_pos, block in enumerate(plan.blocks):
            p, row = raw_probs(phi_x, phi_s, block, coherence), counts[s_pos, b_pos]
            if mode == IDEAL_MODE:
                row[:] = pulses * p
            else:  # one row of cells at a time becomes Python lists, which bounds their memory
                cells = zip(click_probs(p, source, detector).T.tolist(), words[s_pos, b_pos].tolist())
                for x_idx, ((c1, c2), cell_words) in enumerate(cells):
                    rng.bit_generator.state = _pcg64_state(cell_words)
                    row[:, x_idx] = rng.binomial(pulses, c1), rng.binomial(pulses, c2)
    return counts


def _screen(rng: np.random.Generator, u: np.ndarray, below: np.ndarray, bound: float) -> np.ndarray:
    """Fill ``u`` with the generator's next uniforms; the positions of those below ``bound``.

    ``below`` is scratch space the size of ``u`` for the comparison: a
    temporary allocated on a second thread grows that thread's own heap, and
    peak memory with it.
    """
    rng.random(out=u)
    return np.flatnonzero(np.less(u, bound, out=below))


def _on_second_thread(fn, *args):
    """Start ``fn(*args)`` on a second thread; the returned call joins it and returns its result or raises its error."""
    outcome = []

    def work():
        try:
            outcome.append((fn(*args), None))
        except BaseException as exc:  # raised again on the calling thread by join()
            outcome.append((None, exc))

    thread = threading.Thread(target=work, daemon=True)
    thread.start()

    def join():
        thread.join()
        ((result, exc),) = outcome  # exactly this call's outcome, never a stale or missing one
        if exc is not None:
            raise exc
        return result

    return join


def run_dynamic_switch(plan: SwitchPlan, source: SourceConfig, detector: DetectorConfig, seed: int,
                       coherence: float = 1.0) -> np.ndarray:
    """Clicks of a switching run in each bin: float64, shape (detector D1/D2, bin), in time order.

    phi_x sweeps a continuous triangle while phi_s toggles between 0
    (particle segments: flat, balanced rates) and pi/2 (wave segments:
    full-contrast fringes), as :meth:`SwitchPlan.phases` gives them at any
    time.  The run is the bins of whole pulses that
    :meth:`SwitchPlan.pulses` gives, drawn from the stream seeded by ``seed``
    (in [0, 2^64)) at ``coherence`` (in [0, 1]).  Each chunk of
    SWITCH_CHUNK_PULSES pulses reads one uniform per pulse for D1, then one
    per pulse for D2; a pulse clicks at a detector when its uniform lies
    below that detector's click probability, and clicks are binned into
    windows of ``plan.bin_seconds``.

    Two generators read the stream at those fixed positions: one fills and
    screens a chunk's D1 half on the calling thread while the other does the
    D2 half on a second thread, and each then advances past the other's half.
    The draws and the counts are those of reading the stream in order.

    No click probability exceeds the saturating port's, c(p = 1), so a
    uniform at or above it cannot click.  The phase and click model is
    evaluated only on the pulses whose uniform falls below that bound (a
    fraction c(p = 1), about mu_eff, of them); every draw and every count is
    what evaluating the model on all pulses gives.
    """
    _check_seed(seed)
    check_coherence(coherence)
    n_bins, pulses_per_bin = plan.pulses(source)
    n_pulses = n_bins * pulses_per_bin
    counts = np.zeros(2 * n_bins, dtype=np.int64)
    # The relative margin keeps the bound above every c even if a vectorised
    # expm1 is not monotone to the last bit; it admits no measurable extra work.
    c_bound = click_probs(1.0, source, detector) * (1.0 + 1e-9)

    # Two readers of the one stream, at the first chunk's D1 half and at its D2 half.
    d1, d2 = (np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed))) for _ in range(2))
    d2.bit_generator.advance(min(SWITCH_CHUNK_PULSES, n_pulses))
    buf = np.empty(2 * min(SWITCH_CHUNK_PULSES, n_pulses))  # one buffer for every chunk's uniforms
    below = np.empty(buf.size, dtype=bool)  # and one for their screen
    for start in range(0, n_pulses, SWITCH_CHUNK_PULSES):
        size = min(SWITCH_CHUNK_PULSES, n_pulses - start)
        u = buf[: 2 * size]  # every D1 uniform of the chunk, then every D2 one
        join_d2 = _on_second_thread(_screen, d2, u[size:], below[size : 2 * size], c_bound)
        try:
            cand_d1 = _screen(d1, u[:size], below[:size], c_bound)
        finally:
            cand_d2 = join_d2()
        d1.bit_generator.advance(size)  # past this chunk's D2 half
        d2.bit_generator.advance(min(SWITCH_CHUNK_PULSES, n_pulses - start - size))  # past the next chunk's D1 half
        cand = np.concatenate((cand_d1, cand_d2 + size))
        det, idx = np.divmod(cand, size)
        phi_s, phi_x = plan.phases((idx + start + 0.5) / source.rep_rate)
        p = np.choose(det, raw_probs(phi_x, phi_s, coherence=coherence))  # each candidate's own detector
        hit = u[cand] < click_probs(p, source, detector)
        counts += np.bincount(det[hit] * n_bins + (idx[hit] + start) // pulses_per_bin, minlength=2 * n_bins)
    return counts.reshape(2, n_bins).astype(np.float64)
