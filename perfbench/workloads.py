"""The benchmark workloads: seeded CLI inputs and the checks on each operation's outputs.

One operation is one ``dualitysim.cli.main`` call on a generated config.  The
configs carry only fields that feed the computation (no ``pulse_width``,
``gate_width`` or ``multiplex_delay``) and no operation passes ``--workers``,
so a change that deletes knobs which change nothing leaves the benchmark
untouched.

The click expectations below restate the physical model in closed form
(Poisson source thinned by loss and efficiency, p1 = (1 + gamma sin phi_x
sin phi_s)/2 with both paths open, half of (cos^2, sin^2)(phi_s/2) with one
path blocked) instead of calling the program, so the checks stay independent
of how the program computes them.  Counts are checked pooled, not per cell:
a per-cell sigma test would fail by chance on the low-count blocked cells
near phi_s = 0.  The pools split the phi_x range by the sign of sin phi_x,
because over a whole period the fringe term sums to zero: a pool over all of
phi_x would pass a lost, flipped or shifted fringe.  A sweep is pooled per
(block, half of the phi_x grid, detector); a switching run per (toggle
segment, sign of sin phi_x over the time bin, detector), which also catches
clicks put into the wrong bins.
"""
from __future__ import annotations

import csv
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SIGMA_LIMIT = 6.0
SATURATION_TOL = 1e-9

BLOCKS = ("none", "path0", "path1")
PHI_X_GRID = (0.0, 2.0 * math.pi, 32)
PULSES_PER_POINT = 120_000
REFERENCE_PHI_S = tuple(k * math.pi / 16.0 for k in range(9))
SOURCE = {"mu": 0.2}
DETECTOR = {"efficiency": 0.10, "system_loss_db": 12.0, "dark_prob": 0.0}
SWITCH_TIMING = {"duration_s": 72.0, "toggle_period_s": 18.0, "triangle_period_s": 6.0, "bin_seconds": 0.6}
SWITCH_REP_RATE = 150e3
DENSE_PHI_S_COUNT = 33
SWITCH_CHUNK = 250_000  # pulses per step of the switch expectation, to bound its memory


@dataclass
class Outcome:
    """What the checks found in one operation's output directory."""

    problems: list = field(default_factory=list)
    cells: int = 0
    pulses: int = 0  # nominal: pulses_per_point per cell on the ideal route too
    simulated_pulses: int = 0  # pulses the program sampled (0 on the ideal route)
    clicks: float = 0.0
    dropped_points: int = 0
    clamped_points: int = 0
    bytes_written: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    make_config: Callable[[np.random.Generator], dict]
    check: Callable[[dict, Path], Outcome]
    artifacts: tuple  # CSVs that must be byte-identical when an operation is re-run


def op_rng(workload_seed: int, index: int) -> np.random.Generator:
    """Input stream of operation ``index``; the same for any number of operations run."""
    return np.random.default_rng([workload_seed, index])


def _plan_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63))


def sweep_seeds_config(rng: np.random.Generator) -> dict:
    return {
        "scenario": "sweep",
        "mode": "montecarlo",
        "plan": {
            "phi_s_values": list(REFERENCE_PHI_S),
            "phi_x_grid": list(PHI_X_GRID),
            "blocks": list(BLOCKS),
            "pulses_per_point": PULSES_PER_POINT,
            "coherence": 0.967,
            "seed": _plan_seed(rng),
        },
        "source": dict(SOURCE),
        "detector": dict(DETECTOR),
    }


def switch_ref_config(rng: np.random.Generator) -> dict:
    return {
        "scenario": "switch",
        "mode": "montecarlo",
        "plan": {"coherence": 1.0, "seed": _plan_seed(rng)},
        "source": dict(SOURCE, rep_rate=SWITCH_REP_RATE),
        "detector": dict(DETECTOR),
        "switch": dict(SWITCH_TIMING),
    }


def verify_ideal_dense_config(rng: np.random.Generator) -> dict:
    return {
        "scenario": "eur-verify",
        "mode": "ideal",
        "plan": {
            "phi_s_values": sorted(rng.uniform(0.0, math.pi / 2.0, DENSE_PHI_S_COUNT).tolist()),
            "phi_x_grid": list(PHI_X_GRID),
            "blocks": list(BLOCKS),
            "pulses_per_point": PULSES_PER_POINT,
            "coherence": 1.0,
        },
    }


def _mean_photons(cfg: dict) -> float:
    det = cfg["detector"]
    return cfg["source"]["mu"] * det["efficiency"] * 10.0 ** (-det["system_loss_db"] / 10.0)


def _click_prob(p_raw: np.ndarray, mu_eff: float, dark: float) -> np.ndarray:
    return np.minimum(1.0, -np.expm1(-mu_eff * p_raw) + dark)


def _phi_x_half(k: int, steps: int) -> int:
    """0 for the first half of the phi_x grid ([0, pi) on the reference grid, sin >= 0), else 1."""
    return int(2 * k >= steps)


def sweep_expectation(cfg: dict) -> dict:
    """Mean and variance of the pooled clicks per (block, phi_x half) and detector over one sweep."""
    plan = cfg["plan"]
    start, stop, steps = plan["phi_x_grid"]
    phi_x = start + (stop - start) * np.arange(steps) / steps
    half = np.array([_phi_x_half(k, steps) for k in range(steps)])
    phi_s = np.asarray(plan["phi_s_values"], dtype=np.float64)[:, None]
    gamma, pulses = plan["coherence"], plan["pulses_per_point"]
    mu_eff, dark = _mean_photons(cfg), cfg["detector"]["dark_prob"]
    shape = (phi_s.size, phi_x.size)
    half_c = np.broadcast_to(0.5 * np.cos(phi_s / 2.0) ** 2, shape)
    half_s = np.broadcast_to(0.5 * np.sin(phi_s / 2.0) ** 2, shape)
    p1_open = 0.5 * (1.0 + gamma * np.sin(phi_x) * np.sin(phi_s))
    raw = {"none": (p1_open, 1.0 - p1_open), "path1": (half_c, half_s), "path0": (half_s, half_c)}
    expected = {}
    for block in plan["blocks"]:
        for h in (0, 1):
            stats = []
            for p in raw[block]:
                c = _click_prob(p, mu_eff, dark)[:, half == h]
                stats.append((float(pulses * c.sum()), float(pulses * (c * (1.0 - c)).sum())))
            expected[block, h] = stats
    return expected


def switch_expectation(cfg: dict) -> dict:
    """Mean and variance of the clicks per detector and time bin, and each bin's pool.

    Pulse k sits at t = (k + 1/2) / rep_rate and falls into bin
    floor(t / bin_seconds); phi_s starts at 0 and flips to pi/2 every toggle
    period while phi_x follows a 0 -> 2 pi -> 0 triangle.  A bin's pool is
    2 * (toggle segment parity) + (sin phi_x summed over its pulses < 0).
    """
    sw, rep_rate = cfg["switch"], cfg["source"]["rep_rate"]
    gamma = cfg["plan"]["coherence"]
    mu_eff, dark = _mean_photons(cfg), cfg["detector"]["dark_prob"]
    n_pulses = int(sw["duration_s"] * rep_rate)
    n_bins = int(math.ceil(sw["duration_s"] / sw["bin_seconds"]))
    mean, var, sin_sum = np.zeros((2, n_bins)), np.zeros((2, n_bins)), np.zeros(n_bins)
    for first in range(0, n_pulses, SWITCH_CHUNK):
        t = (np.arange(first, min(first + SWITCH_CHUNK, n_pulses)) + 0.5) / rep_rate
        bins = np.minimum((t / sw["bin_seconds"]).astype(np.int64), n_bins - 1)
        phi_x = 2.0 * math.pi * (1.0 - np.abs(2.0 * np.mod(t / sw["triangle_period_s"], 1.0) - 1.0))
        wave = (np.floor(t / sw["toggle_period_s"]) % 2) == 1
        sin_sum += np.bincount(bins, np.sin(phi_x), n_bins)
        p1 = 0.5 * (1.0 + gamma * np.sin(phi_x) * wave)
        for j, p in enumerate((p1, 1.0 - p1)):
            c = _click_prob(p, mu_eff, dark)
            mean[j] += np.bincount(bins, c, n_bins)
            var[j] += np.bincount(bins, c * (1.0 - c), n_bins)
    t_bin = (np.arange(n_bins) + 0.5) * sw["bin_seconds"]
    segment = (np.floor(t_bin / sw["toggle_period_s"]) % 2).astype(np.int64)
    return {"pool": 2 * segment + (sin_sum < 0), "mean": mean, "var": var}


def _within_sigma(label: str, observed: float, mean: float, var: float, problems: list) -> None:
    if abs(observed - mean) > SIGMA_LIMIT * math.sqrt(var):
        problems.append(f"{label}: {observed:.0f} clicks, expected {mean:.1f} +- {SIGMA_LIMIT:g} sigma ({math.sqrt(var):.1f})")


def _read_csv(path: Path) -> list:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _dir_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _sweep_artifacts(cfg: dict, out: Path, outcome: Outcome):
    """Row counts of a sweep-shaped run; returns (fringe rows, duality rows) or None."""
    plan = cfg["plan"]
    n_phi_s, steps = len(plan["phi_s_values"]), plan["phi_x_grid"][2]
    outcome.cells = n_phi_s * len(plan["blocks"]) * steps
    outcome.pulses = outcome.cells * plan["pulses_per_point"]
    try:
        fringes = _read_csv(out / "fringes.csv")
        duality = _read_csv(out / "duality.csv")
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"unreadable artifacts: {exc}")
        return None
    outcome.bytes_written = _dir_bytes(out)
    if len(fringes) != outcome.cells:
        outcome.problems.append(f"fringes.csv has {len(fringes)} rows, grid has {outcome.cells} cells")
    if len(duality) != n_phi_s or len(report.get("points", ())) != n_phi_s:
        outcome.problems.append(f"duality.csv/report.json do not hold one row per phi_s ({n_phi_s})")
    outcome.dropped_points = int(report.get("dropped_points", 0))
    outcome.clamped_points = sum(
        1 for p in report.get("points", ())
        if p.get("formula", {}).get("clamped_v") or p.get("formula", {}).get("clamped_d")
    )
    return fringes, duality


def check_sweep_montecarlo(cfg: dict, out: Path, expected: dict) -> Outcome:
    outcome = Outcome()
    rows = _sweep_artifacts(cfg, out, outcome)
    if rows is None:
        return outcome
    outcome.simulated_pulses = outcome.pulses
    start, stop, steps = cfg["plan"]["phi_x_grid"]
    pooled = defaultdict(lambda: [0.0, 0.0])
    for r in rows[0]:
        k = round((float(r["phi_x"]) - start) * steps / (stop - start)) % steps
        pool = pooled[r["block"], _phi_x_half(k, steps)]
        pool[0] += float(r["n1"])
        pool[1] += float(r["n2"])
    outcome.clicks = sum(sum(pool) for pool in pooled.values())
    for (block, half), per_detector in expected.items():
        for j, (mean, var) in enumerate(per_detector):
            _within_sigma(f"block {block} phi_x half {half} D{j + 1}", pooled[block, half][j], mean, var,
                          outcome.problems)
    return outcome


def check_verify_ideal(cfg: dict, out: Path) -> Outcome:
    outcome = Outcome()
    rows = _sweep_artifacts(cfg, out, outcome)
    if rows is None:
        return outcome
    for r in rows[1]:
        for column in ("eur_formula", "eur_defn", "wpdr"):
            if abs(float(r[column]) - 1.0) > SATURATION_TOL:
                outcome.problems.append(f"phi_s={r['phi_s']}: {column}={r[column]} is not saturated")
    return outcome


# Labels of the pools that switch_expectation numbers 0..3.
SWITCH_POOLS = ("phi_s=0 sin(phi_x)>=0", "phi_s=0 sin(phi_x)<0",
                "phi_s=pi/2 sin(phi_x)>=0", "phi_s=pi/2 sin(phi_x)<0")


def check_switch(cfg: dict, out: Path, expected: dict) -> Outcome:
    sw = cfg["switch"]
    pulses = int(sw["duration_s"] * cfg["source"]["rep_rate"])
    outcome = Outcome(cells=int(math.ceil(sw["duration_s"] / sw["bin_seconds"])), pulses=pulses,
                      simulated_pulses=pulses)
    try:
        series = _read_csv(out / "timeseries.csv")
        json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        outcome.problems.append(f"unreadable artifacts: {exc}")
        return outcome
    outcome.bytes_written = _dir_bytes(out)
    if len(series) != outcome.cells:
        outcome.problems.append(f"timeseries.csv has {len(series)} rows, expected {outcome.cells} bins")
        return outcome
    pool = expected["pool"]
    for j in range(2):
        observed = np.array([float(r[f"n{j + 1}"]) for r in series])
        outcome.clicks += float(observed.sum())
        sums = (np.bincount(pool, w, len(SWITCH_POOLS)) for w in (observed, expected["mean"][j], expected["var"][j]))
        for label, obs, mean, var in zip(SWITCH_POOLS, *sums):
            _within_sigma(f"{label} D{j + 1}", obs, mean, var, outcome.problems)
    return outcome


def _cached(expectation: Callable[[dict], object], checker: Callable) -> Callable[[dict, Path], Outcome]:
    """Bind a seed-independent expectation, computed once per distinct config."""
    cache = {}

    def check(cfg: dict, out: Path) -> Outcome:
        key = json.dumps(dict(cfg, plan={k: v for k, v in cfg["plan"].items() if k != "seed"}), sort_keys=True)
        if key not in cache:
            cache[key] = expectation(cfg)
        return checker(cfg, out, cache[key])

    return check


def build_workloads() -> dict:
    """Fresh workloads (the expectation caches live in the returned objects)."""
    workloads = (
        Workload("sweep_seeds", "sweep", sweep_seeds_config,
                 _cached(sweep_expectation, check_sweep_montecarlo), ("fringes.csv", "duality.csv")),
        Workload("switch_ref", "switch", switch_ref_config,
                 _cached(switch_expectation, check_switch), ("timeseries.csv",)),
        Workload("verify_ideal_dense", "eur-verify", verify_ideal_dense_config,
                 check_verify_ideal, ("fringes.csv", "duality.csv")),
    )
    return {w.name: w for w in workloads}
