"""Scenario orchestration and dataset emission.

Subcommands: ``sweep`` (phase sweeps at every (phi_s, block) setting),
``switch`` (dynamic wave/particle toggling time series) and ``eur-verify``
(sweep plus a strict check of the entropic bound and the duality trade-off on
every produced point).

Artifacts are written with pinned formats so goldens diff exactly: CSV with a
header row, LF line endings, '.' decimal separator, floats serialized with
shortest round-trip precision (``repr``), whole values as integers, each
distinct value of a table formatted once (the bytes of formatting every cell);
report.json mirrors every CSV quantity plus provenance (seed, config hash).

Exit codes: 0 success; 1 bad configuration, or count data too degenerate to
estimate from; 2 a physically generated run violated the entropic bound or
the duality trade-off beyond tolerance, which signals a simulator bug; 3 I/O
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entropy import duality_columns
from .errors import ConfigError, ContractViolation, EstimationError
from .estimators import MIN_FRINGE_POINTS, covers_fringe_period, duality_report
from .montecarlo import (
    IDEAL_MODE,
    MODES,
    MONTECARLO_MODE,
    DetectorConfig,
    RunPlan,
    SourceConfig,
    SwitchPlan,
    run_dynamic_switch,
    run_sweep,
)
from .optics import BLOCKS

SCENARIOS = ("sweep", "switch", "eur-verify")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VIOLATION = 2
EXIT_IO = 3

DEFAULT_PHI_S = tuple(float(x) for x in np.linspace(0.0, math.pi / 2.0, 9))
DEFAULT_SEED = 2
FRINGE_BLOCK_CELLS = 2**16  # fringes.csv cells formatted at once: bounds the text held in memory

_PI_LITERAL = re.compile(r"^\s*(-?\d*\.?\d*)\s*\*?\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$", re.IGNORECASE)


def parse_angle(value) -> float:
    """Angles are radians; strings may use pi fractions like 'pi/4' or '3pi/2'."""
    try:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        text = str(value).strip()
        m = _PI_LITERAL.match(text)
        if not m:
            return float(text)
        num = m.group(1)
        factor = float(num) if num not in ("", "-") else (-1.0 if num == "-" else 1.0)
        denom = float(m.group(2)) if m.group(2) else 1.0
        return factor * math.pi / denom
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ConfigError(f"cannot parse angle {value!r} (use radians or pi fractions)") from None


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    plan: RunPlan
    source: SourceConfig
    detector: DetectorConfig
    switch: SwitchPlan
    mode: str = MONTECARLO_MODE
    output_dir: str = "out"

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario: must be one of {SCENARIOS}, got {self.scenario!r}")
        if self.mode not in MODES:
            raise ConfigError(f"mode: must be one of {MODES}, got {self.mode!r}")
        if not isinstance(self.output_dir, str):
            raise ConfigError(f"output_dir: expected a path string, got {self.output_dir!r}")
        if self.scenario in ("sweep", "eur-verify"):
            missing = [b for b in BLOCKS if b not in self.plan.blocks]
            if missing:
                raise ConfigError(f"plan.blocks: scenario {self.scenario!r} needs all block settings, missing {missing}")
            if self.plan.pulses_per_point == 0:
                raise ConfigError(f"plan.pulses_per_point: scenario {self.scenario!r} needs at least one pulse")
            if not covers_fringe_period(self.plan.phi_x_values()):
                raise ConfigError(f"plan.phi_x_grid: visibility needs {MIN_FRINGE_POINTS}+ steps over a 2pi period")
        if self.scenario == "switch":
            if self.mode == IDEAL_MODE:
                raise ConfigError("mode: the switch scenario is a sampled time series; use montecarlo")
            self.switch.pulses(self.source)


def _build(section: str, cls, kwargs):
    unknown = set(kwargs) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ConfigError(f"{section}: unknown fields {sorted(unknown)}")
    flags = sorted(name for name, value in kwargs.items() if isinstance(value, bool))
    if flags:
        raise ConfigError(f"{section}: fields {flags} hold booleans, which no setting takes")
    try:
        return cls(**kwargs)
    except (TypeError, OverflowError, ContractViolation, ConfigError) as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _section(raw: dict, name: str) -> dict:
    """A copy of the config section ``name`` (empty when absent), which must be a JSON object."""
    value = raw.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a JSON object, got {type(value).__name__}")
    return dict(value)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """The config a JSON object describes; each level is built, and its fields checked, by its dataclass."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    plan = {"phi_s_values": DEFAULT_PHI_S, "seed": DEFAULT_SEED, **_section(raw, "plan")}
    if not isinstance(plan["phi_s_values"], (list, tuple)):
        raise ConfigError("plan.phi_s_values: expected a list of angles")
    plan["phi_s_values"] = tuple(parse_angle(v) for v in plan["phi_s_values"])
    if "phi_x_grid" in plan:
        grid = plan["phi_x_grid"]
        if not (isinstance(grid, (list, tuple)) and len(grid) == 3):
            raise ConfigError("plan.phi_x_grid: expected [start, stop, steps]")
        plan["phi_x_grid"] = (parse_angle(grid[0]), parse_angle(grid[1]), grid[2])
    return _build("config", ExperimentConfig, {
        "scenario": "sweep",
        **raw,
        "plan": _build("plan", RunPlan, plan),
        "source": _build("source", SourceConfig, _section(raw, "source")),
        "detector": _build("detector", DetectorConfig, _section(raw, "detector")),
        "switch": _build("switch", SwitchPlan, _section(raw, "switch")),
    })


def _read_config(path):
    """The JSON value in the config file at ``path``; a file that cannot be read or parsed is a ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, or an integer past the digit limit
        raise ConfigError(f"cannot read config {path}: {exc}") from None


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config, applying defaults."""
    return config_from_dict(_read_config(path))


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _column(values) -> list:
    """CSV fields of float values of any shape, in C order: whole values as integers, the rest as ``repr``."""
    # Each distinct value is formatted once; np.unique merges only NaNs, and -0.0 with 0.0, which print alike.
    distinct, inverse = np.unique(np.asarray(values, dtype=np.float64).ravel(), return_inverse=True)
    fields = np.array([str(int(v)) if v.is_integer() else repr(v) for v in distinct.tolist()], dtype=object)
    return fields[inverse].tolist()


def _columns(table: np.ndarray) -> list:
    """Field columns of a 2-D float array holding one row per column, formatted in one ``_column`` call."""
    fields, n = _column(table), table.shape[1]
    return [fields[i * n:(i + 1) * n] for i in range(len(table))]


def _write_csv(path: Path, header: str, blocks) -> None:
    """Write ``header``, then each block (a list of equal-length field columns) row by row, one block at a time."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            rows = list(map(",".join, zip(*columns)))
            fh.write("\n".join(rows) + "\n" if rows else "")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True) + "\n", newline="\n")


def _fringe_blocks(plan: RunPlan, counts: np.ndarray):
    """fringes.csv columns from a sweep's counts, a block of whole scans (up to FRINGE_BLOCK_CELLS cells) at a time."""
    phi_x, phi_s = _column(plan.phi_x_values()), _column(plan.phi_s_values)
    scans = counts.reshape(-1, 2, len(phi_x))  # one (n1, n2) pair of rows per (phi_s, block), in plan order
    settings = [(s, block) for s in phi_s for block in plan.blocks]
    per_block = max(1, FRINGE_BLOCK_CELLS // len(phi_x))
    for i in range(0, len(scans), per_block):
        group = settings[i:i + per_block]
        n1, n2 = _columns(scans[i:i + per_block].transpose(1, 0, 2).reshape(2, -1))
        yield [[s for s, _ in group for _ in phi_x], phi_x * len(group), [block for _, block in group for _ in phi_x],
               n1, n2, [str(plan.pulses_per_point)] * len(n1)]


DUALITY_HEADER = (
    "phi_s,V,V_sigma,D,D_sigma,hmin_formula,hmax_formula,eur_formula,"
    "hmin_defn,hmax_defn,eur_defn,wpdr,"
    "hmin_formula_sigma,hmax_formula_sigma,eur_formula_sigma,"
    "hmin_defn_sigma,hmax_defn_sigma,eur_defn_sigma"
)


def _duality_columns(card: dict) -> list:
    f, d = card["formula"], card["definition"]
    return _columns(np.array([
        card["phi_s"],
        card["V"], card["V_sigma"],
        card["D"], card["D_sigma"],
        f["h_min_z"], f["h_max_w"], f["eur_sum"],
        d["h_min_z"], d["h_max_w"], d["eur_sum"],
        f["wpdr_value"],
        f["h_min_sigma"], f["h_max_sigma"], f["eur_sigma"],
        d["h_min_sigma"], d["h_max_sigma"], d["eur_sigma"],
    ]))


def _points(columns: dict) -> list:
    """One report.json point per entry of the scorecard's columns, nested dicts of columns becoming nested dicts."""
    values = (_points(c) if isinstance(c, dict) else c.tolist() for c in columns.values())
    return [dict(zip(columns, row)) for row in zip(*values)]


def _violations(card: dict, mode: str) -> list:
    """Bound failures beyond tolerance (a genuine one signals a simulator bug).

    The compatibility test relaxes the V and D estimates by 3 sigma toward
    the bound-satisfying region and re-evaluates both bounds there, for every
    phi_s in one pass over arrays.  Working in (V, D) space keeps the test
    meaningful at the estimator boundaries (V = 1 or D = 1), where the
    entropy closed forms have divergent slope and first-order entropy sigmas
    collapse.  Ideal mode allows no statistical slack.  Failures come in plan
    order, the eur bound before the wpdr bound at each phi_s.
    """
    n_sigma = 3.0 if mode == MONTECARLO_MODE else 0.0
    relaxed = duality_columns(*(np.maximum(np.minimum(card[x], 1.0) - n_sigma * card[f"{x}_sigma"], 0.0)
                                for x in ("V", "D")))
    bad = []
    for i, phi_s in enumerate(card["phi_s"].tolist()):
        for bound, satisfied, value in (("eur", "eur_satisfied", "eur_sum"), ("wpdr", "wpdr_satisfied", "wpdr_value")):
            if not relaxed[satisfied][i]:
                bad.append({"phi_s": phi_s, "bound": bound, "relaxed_value": float(relaxed[value][i]),
                            "observed": float(card["formula"][value][i])})
    return bad


def run(cfg: ExperimentConfig) -> int:
    """Execute a validated config and write its artifacts; returns the exit code."""
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir {out}: {exc}", file=sys.stderr)
        return EXIT_IO

    provenance = {
        "scenario": cfg.scenario,
        "mode": cfg.mode,
        "seed": cfg.plan.seed,
        "coherence": cfg.plan.resolved_coherence(cfg.mode),
        "config_sha256": config_hash(cfg),
        "config": dataclasses.asdict(cfg),
    }

    try:
        if cfg.scenario == "switch":
            counts = run_dynamic_switch(cfg.switch, cfg.source, cfg.detector, cfg.plan.seed,
                                        coherence=cfg.plan.resolved_coherence(cfg.mode))
            columns = _columns(np.vstack((*cfg.switch.bin_axes(), counts)))
            _write_csv(out / "timeseries.csv", "t,phi_s,phi_x,n1,n2", [columns])
            bins, pulses_per_bin = cfg.switch.pulses(cfg.source)
            _write_json(out / "report.json", dict(provenance, bins=bins, pulses_per_bin=pulses_per_bin))
            return EXIT_OK

        counts = run_sweep(cfg.plan, cfg.source, cfg.detector, mode=cfg.mode)
        card = duality_report(cfg.plan, counts)
        violations = _violations(card, cfg.mode)
        _write_csv(out / "fringes.csv", "phi_s,phi_x,block,n1,n2,pulses", _fringe_blocks(cfg.plan, counts))
        _write_csv(out / "duality.csv", DUALITY_HEADER, [_duality_columns(card)])
        # report.json states the k of the route equivalence's flags, |a - b| <= k (sigma_a + sigma_b): 1
        equivalence = dict(card["equivalence"], k=np.ones(len(card["phi_s"])))
        _write_json(out / "report.json", dict(
            provenance,
            points=_points(dict(card, equivalence=equivalence)),
            violations=violations,
            dropped_points=int(card["formula"]["dropped_points"].sum()),
        ))
        if cfg.scenario == "eur-verify":
            f = card["formula"]
            for phi_s, eur, eur_defn, wpdr, ok in zip(card["phi_s"], f["eur_sum"], card["definition"]["eur_sum"],
                                                      f["wpdr_value"], f["eur_satisfied"] & f["wpdr_satisfied"]):
                print(f"phi_s={phi_s:.6f}  eur_formula={eur:.6f}  eur_defn={eur_defn:.6f}  "
                      f"wpdr={wpdr:.6f}  {'OK' if ok else 'CHECK'}")
        if violations:
            print(f"error: {len(violations)} physically generated point(s) violate the bounds", file=sys.stderr)
            return EXIT_VIOLATION
        return EXIT_OK
    except EstimationError as exc:
        print(f"error: cannot estimate from the simulated counts: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on bad flags; 2 is reserved for bound
    # violations here, so surface usage problems as config errors instead.
    def error(self, message):
        raise ConfigError(message)


@functools.lru_cache(maxsize=1)  # parse_args leaves the parser unchanged
def _build_parser() -> _Parser:
    parser = _Parser(prog="dualitysim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name in SCENARIOS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override the plan seed (u64)")
        p.add_argument("--mode", choices=list(MODES), default=None, help="override the run mode")
        p.add_argument("--out", type=str, default=None, help="override the output directory")
        if name != "switch":
            p.add_argument("--phi-s", type=str, default=None,
                           help="comma-separated phi_s values (radians or pi fractions)")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        raw = {} if args.config is None else _read_config(args.config)
        if not isinstance(raw, dict):
            raise ConfigError("top level: expected a JSON object")
        raw.setdefault("scenario", args.scenario)
        if raw["scenario"] != args.scenario:
            raise ConfigError(f"scenario: config says {raw['scenario']!r} but subcommand is {args.scenario!r}")
        if args.mode is not None:
            raw["mode"] = args.mode
        if args.out is not None:
            raw["output_dir"] = args.out
        plan = _section(raw, "plan")
        if args.seed is not None:
            plan["seed"] = args.seed
        if getattr(args, "phi_s", None):
            plan["phi_s_values"] = [s for s in args.phi_s.split(",") if s.strip()]
        if plan:
            raw["plan"] = plan
        cfg = config_from_dict(raw)
    except (ConfigError, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
