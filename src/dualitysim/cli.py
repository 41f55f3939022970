"""Scenario orchestration and dataset emission.

Subcommands: ``sweep`` (phase sweeps at every (phi_s, block) setting),
``switch`` (dynamic wave/particle toggling time series) and ``eur-verify``
(sweep plus a strict check of the entropic bound and the duality trade-off on
every produced point).

Artifacts are written with pinned formats so goldens diff exactly: CSV with a
header row, LF line endings, '.' decimal separator, floats serialized with
shortest round-trip precision (17 significant digits); report.json mirrors
every CSV quantity plus provenance (seed, config hash).

Exit codes: 0 success; 1 bad configuration, or count data too degenerate to
estimate from; 2 a physically generated run violated the entropic bound or
the duality trade-off beyond tolerance, which signals a simulator bug; 3 I/O
failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .entropy import duality_from_v_d
from .errors import ConfigError, ContractViolation, EstimationError
from .estimators import MIN_FRINGE_POINTS, DualityReport, duality_report
from .montecarlo import (
    IDEAL_MODE,
    MODES,
    MONTECARLO_MODE,
    DetectorConfig,
    RunPlan,
    SourceConfig,
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
MAX_SWITCH_BINS = 10**7  # caps the memory of a switch run's binned counts
MAX_SWITCH_PULSES = 10**9  # caps the sampling time of a switch run (the reference run is 1.08e7)

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
class SwitchPlan:
    """Timing of the dynamic switching scenario."""

    duration_s: float = 72.0
    toggle_period_s: float = 18.0
    triangle_period_s: float = 6.0
    bin_seconds: float = 0.2

    def __post_init__(self):
        if not all(math.isfinite(x) and x > 0 for x in dataclasses.astuple(self)):
            raise ConfigError("all durations and periods must be finite and positive")
        if self.duration_s / self.bin_seconds > MAX_SWITCH_BINS:
            raise ConfigError(f"duration_s / bin_seconds asks for more than {MAX_SWITCH_BINS} bins")


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
            start, stop, steps = self.plan.phi_x_grid
            if steps < MIN_FRINGE_POINTS or stop - start < 2.0 * math.pi - 1e-9:
                raise ConfigError(f"plan.phi_x_grid: visibility needs {MIN_FRINGE_POINTS}+ steps over a 2pi period")
        if self.scenario == "switch" and self.mode == IDEAL_MODE:
            raise ConfigError("mode: the switch scenario is a sampled time series; use montecarlo")
        if self.scenario == "switch" and self.switch.duration_s * self.source.rep_rate > MAX_SWITCH_PULSES:
            raise ConfigError(f"switch.duration_s * source.rep_rate asks for more than {MAX_SWITCH_PULSES} pulses")


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
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    known = {"scenario", "mode", "output_dir", "plan", "source", "detector", "switch"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown top-level fields: {sorted(unknown)}")

    plan_raw = _section(raw, "plan")
    phi_s = plan_raw.pop("phi_s_values", DEFAULT_PHI_S)
    if not isinstance(phi_s, (list, tuple)):
        raise ConfigError("plan.phi_s_values: expected a list of angles")
    plan_kwargs = {
        "phi_s_values": tuple(parse_angle(v) for v in phi_s),
        "seed": plan_raw.pop("seed", DEFAULT_SEED),
    }
    if "phi_x_grid" in plan_raw:
        grid = plan_raw.pop("phi_x_grid")
        if not (isinstance(grid, (list, tuple)) and len(grid) == 3):
            raise ConfigError("plan.phi_x_grid: expected [start, stop, steps]")
        plan_kwargs["phi_x_grid"] = (parse_angle(grid[0]), parse_angle(grid[1]), grid[2])
    for key in ("blocks", "pulses_per_point", "coherence"):
        if key in plan_raw:
            plan_kwargs[key] = plan_raw.pop(key)
    if plan_raw:
        raise ConfigError(f"plan: unknown fields {sorted(plan_raw)}")

    return _build(
        "config",
        ExperimentConfig,
        {
            "scenario": raw.get("scenario", "sweep"),
            "mode": raw.get("mode", MONTECARLO_MODE),
            "output_dir": raw.get("output_dir", "out"),
            "plan": _build("plan", RunPlan, plan_kwargs),
            "source": _build("source", SourceConfig, _section(raw, "source")),
            "detector": _build("detector", DetectorConfig, _section(raw, "detector")),
            "switch": _build("switch", SwitchPlan, _section(raw, "switch")),
        },
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config, applying defaults."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} line {exc.lineno} col {exc.colno}: {exc.msg}") from None
    return config_from_dict(raw)


def config_hash(cfg: ExperimentConfig) -> str:
    blob = json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    return str(int(f)) if f.is_integer() else repr(f)


def _write_fringes_csv(path: Path, scans) -> None:
    lines = ["phi_s,phi_x,block,n1,n2,pulses"]
    for scan in scans:
        for phi_x, n1, n2 in scan.points():
            lines.append(
                f"{_fmt(scan.phi_s)},{_fmt(phi_x)},{scan.block},{_fmt(n1)},{_fmt(n2)},{scan.pulses_per_point}"
            )
    path.write_text("\n".join(lines) + "\n", newline="\n")


DUALITY_HEADER = (
    "phi_s,V,V_sigma,D,D_sigma,hmin_formula,hmax_formula,eur_formula,"
    "hmin_defn,hmax_defn,eur_defn,wpdr,"
    "hmin_formula_sigma,hmax_formula_sigma,eur_formula_sigma,"
    "hmin_defn_sigma,hmax_defn_sigma,eur_defn_sigma"
)


def _write_duality_csv(path: Path, reports) -> None:
    lines = [DUALITY_HEADER]
    for r in reports:
        f, d = r.formula, r.definition
        cells = [
            r.phi_s,
            r.visibility.value, r.visibility.sigma,
            r.distinguishability.value, r.distinguishability.sigma,
            f.quantities.h_min_z, f.quantities.h_max_w, f.quantities.eur_sum,
            d.quantities.h_min_z, d.quantities.h_max_w, d.quantities.eur_sum,
            f.quantities.wpdr_value,
            f.h_min_sigma, f.h_max_sigma, f.eur_sigma,
            d.h_min_sigma, d.h_max_sigma, d.eur_sigma,
        ]
        lines.append(",".join(_fmt(c) for c in cells))
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _write_timeseries_csv(path: Path, trace) -> None:
    lines = ["t,phi_s,phi_x,n1,n2"]
    for t, ps, px, n1, n2 in zip(trace.t, trace.phi_s, trace.phi_x, trace.n1, trace.n2):
        lines.append(f"{_fmt(t)},{_fmt(ps)},{_fmt(px)},{_fmt(n1)},{_fmt(n2)}")
    path.write_text("\n".join(lines) + "\n", newline="\n")


def _route_dict(route) -> dict:
    q = route.quantities
    return {
        "v": q.v, "d": q.d,
        "h_min_z": q.h_min_z, "h_max_w": q.h_max_w,
        "eur_sum": q.eur_sum, "wpdr_value": q.wpdr_value,
        "eur_satisfied": q.eur_satisfied, "wpdr_satisfied": q.wpdr_satisfied,
        "h_min_sigma": route.h_min_sigma, "h_max_sigma": route.h_max_sigma,
        "eur_sigma": route.eur_sigma, "wpdr_sigma": route.wpdr_sigma,
        "clamped_v": route.clamped_v, "clamped_d": route.clamped_d,
        "dropped_points": route.dropped_points,
    }


def _report_dict(r: DualityReport) -> dict:
    eq = r.equivalence
    return {
        "phi_s": r.phi_s,
        "V": r.visibility.value, "V_sigma": r.visibility.sigma,
        "D": r.distinguishability.value, "D_sigma": r.distinguishability.sigma,
        "formula": _route_dict(r.formula),
        "definition": _route_dict(r.definition),
        "equivalence": {
            "d_h_min": eq.d_h_min, "d_h_max": eq.d_h_max, "d_eur": eq.d_eur,
            "within_h_min": eq.within_h_min, "within_h_max": eq.within_h_max,
            "within_eur": eq.within_eur, "k": eq.k,
        },
    }


def _violations(reports, mode: str) -> list:
    """Bound failures beyond tolerance (a genuine one signals a simulator bug).

    The compatibility test relaxes the V and D estimates by 3 sigma toward
    the bound-satisfying region and re-evaluates both bounds there.  Working
    in (V, D) space keeps the test meaningful at the estimator boundaries
    (V = 1 or D = 1), where the entropy closed forms have divergent slope and
    first-order entropy sigmas collapse.  Ideal mode allows no statistical
    slack.
    """
    bad = []
    n_sigma = 3.0 if mode == MONTECARLO_MODE else 0.0
    for r in reports:
        v = max(min(r.visibility.value, 1.0) - n_sigma * r.visibility.sigma, 0.0)
        d = max(min(r.distinguishability.value, 1.0) - n_sigma * r.distinguishability.sigma, 0.0)
        relaxed = duality_from_v_d(v, d)
        if not relaxed.eur_satisfied:
            bad.append({"phi_s": r.phi_s, "bound": "eur", "relaxed_value": relaxed.eur_sum,
                        "observed": r.formula.quantities.eur_sum})
        if not relaxed.wpdr_satisfied:
            bad.append({"phi_s": r.phi_s, "bound": "wpdr", "relaxed_value": relaxed.wpdr_value,
                        "observed": r.formula.quantities.wpdr_value})
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
            trace = run_dynamic_switch(
                cfg.switch.duration_s,
                cfg.switch.toggle_period_s,
                cfg.switch.triangle_period_s,
                cfg.source,
                cfg.detector,
                cfg.plan.seed,
                coherence=cfg.plan.resolved_coherence(cfg.mode),
                bin_seconds=cfg.switch.bin_seconds,
            )
            _write_timeseries_csv(out / "timeseries.csv", trace)
            report = dict(provenance, bins=int(trace.t.size), pulses_per_bin=trace.pulses_per_bin)
            (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", newline="\n")
            return EXIT_OK

        scans = run_sweep(cfg.plan, cfg.source, cfg.detector, mode=cfg.mode)
        by_key = {(s.phi_s, s.block): s for s in scans}
        reports = [
            duality_report(by_key[(phi_s, "none")], by_key[(phi_s, "path0")], by_key[(phi_s, "path1")])
            for phi_s in cfg.plan.phi_s_values
        ]
        violations = _violations(reports, cfg.mode)
        _write_fringes_csv(out / "fringes.csv", scans)
        _write_duality_csv(out / "duality.csv", reports)
        report = dict(
            provenance,
            points=[_report_dict(r) for r in reports],
            violations=violations,
            dropped_points=sum(r.formula.dropped_points for r in reports),
        )
        (out / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", newline="\n")
        if cfg.scenario == "eur-verify":
            for r in reports:
                f = r.formula.quantities
                print(
                    f"phi_s={r.phi_s:.6f}  eur_formula={f.eur_sum:.6f}  eur_defn={r.definition.quantities.eur_sum:.6f}  "
                    f"wpdr={f.wpdr_value:.6f}  {'OK' if f.eur_satisfied and f.wpdr_satisfied else 'CHECK'}"
                )
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
        raw = {} if args.config is None else json.loads(Path(args.config).read_text())
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
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
