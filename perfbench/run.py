#!/usr/bin/env python3
"""Benchmark of the dualitysim CLI, driven in process from the root of a checkout.

    python3 perfbench/run.py --workload sweep_seeds --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

One operation is one ``dualitysim.cli.main`` call on a config generated from
the workload seed, writing into a fresh output directory; stdout and stderr
are captured in memory.  Operations run back to back (a closed loop with one
client) until their summed time reaches ``--seconds``.  Operation 0 is run
once untimed first, to warm caches and to hold its CSVs for the re-run
byte-identity check.  Every operation's outputs are checked outside the timed
region (see ``workloads.py``); an operation fails when it raises, exits 1 or
3, or fails a check.  Exit code 2 (a bound crossed beyond tolerance) is
counted as ``cli.violation_ops``, not as a failure.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

    setup_s       median over fresh interpreters, started at even intervals
                  between the operations, of importing dualitysim.cli and
                  validating the first config (after one discarded warm-up)
    op_s_p90      90th percentile of the operation times
    peak_rss_mb   peak resident memory of this process

and the lines above it also give, unbounded:

    op_s_p50      median of the operation times
    cells_per_s   output grid rows per second of operation time: fringe
                  cells for the sweeps, time bins for the switch
    pulses_per_s  nominal pulses per second of operation time: cells times
                  pulses_per_point on the sweep-shaped workloads (the ideal
                  route samples none), 10.8M per switching run.  On every
                  workload it is a fixed multiple of cells_per_s

The median and the mean rate are left out of the result because on a shared
2-core host they do not repeat.  The time of a short operation is bimodal
(about 0.045 s and 0.07 s for verify_ideal_dense, switching within a second
as the host's other load comes and goes), and the share of fast operations
moves from 2% to 86% between 20 s windows.  The median jumps with that share
and the mean follows it: over ten 30 s runs their interquartile range
reached 0.2 of the median, against about half that for the 90th
percentile, which sits in the slow mode on every run.  A change to the
program's own speed moves both modes, so the 90th percentile still shows it.

With ``--trace 1`` the operations first run untraced for half of
``--seconds``, then the same operations run again with wrappers around the
calls into each module (``tracer.py``); the last line reports per-operation
means of the per-layer metrics and ``trace.wall_ratio``, the traced over the
untraced time of the same operations.  The spans are written to
``.perfbench_work/spans-<workload>-seed<n>.csv.gz``.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import build_workloads, op_rng  # noqa: E402

MIN_OPS = 3
SETUP_REPEATS = 9

# Fresh-interpreter set-up: argv = [src dir, config path]; prints seconds.
SETUP_SNIPPET = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dualitysim.cli
dualitysim.cli.load_config(sys.argv[2])
print(time.perf_counter() - start)
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p90": "s",
    "peak_rss_mb": "MB",
}
# Printed, but not in the result line: see the module docstring.
UNBOUNDED_UNITS = {
    "op_s_p50": "s",
    "cells_per_s": "cells/s",
    "pulses_per_s": "pulses/s",
}

PER_LAYER_UNITS = {
    "cli.main_s": "s/op",
    "cli.config_s": "s/op",
    "cli.run_self_s": "s/op",
    "cli.bytes_written": "B/op",
    "cli.violation_ops": "count",
    "montecarlo.run_sweep_s": "s/op",
    "montecarlo.run_sweep_self_s": "s/op",
    "montecarlo.cell_rng_s": "s/op",
    "montecarlo.cell_rng_calls": "calls/op",
    "montecarlo.simulate_point_self_s": "s/op",
    "montecarlo.simulate_point_calls": "calls/op",
    "montecarlo.click_probabilities_s": "s/op",
    "montecarlo.click_probabilities_calls": "calls/op",
    "montecarlo.run_dynamic_switch_s": "s/op",
    "montecarlo.pulses": "pulses/op",
    "montecarlo.clicks": "clicks/op",
    "montecarlo.clicks_per_pulse": "ratio",
    "optics.raw_detection_probs_s": "s/op",
    "optics.raw_detection_probs_calls": "calls/op",
    "estimators.duality_report_s": "s/op",
    "estimators.duality_report_calls": "calls/op",
    "estimators.dropped_points": "count/op",
    "estimators.clamped_points": "count/op",
    "entropy.s": "s/op",
    "entropy.calls": "calls/op",
    "trace.wall_ratio": "ratio",
    "trace.ops": "count",
    "trace.absent_sites": "count",
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to run, or set-up failed)."""


def load_program():
    """Import dualitysim from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "dualitysim" / "cli.py").is_file():
        raise BenchError(f"no dualitysim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dualitysim.cli

    if Path(dualitysim.cli.__file__).resolve().parent != SRC / "dualitysim":
        raise BenchError(f"dualitysim imported from {dualitysim.cli.__file__}, not from {SRC}")
    return dualitysim.cli


def call_main(main, scenario: str, config: Path, out: Path):
    """Time one CLI call; returns (seconds, exit code or None if it raised, captured text)."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = main([scenario, "--config", str(config), "--out", str(out)])
    except (Exception, SystemExit) as exc:  # an operation that raises is a failed operation
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, sink.getvalue()


class Session:
    """Runs and checks the operations of one workload, accumulating their counts."""

    def __init__(self, workload, seed: int, work: Path, main):
        self.workload, self.seed, self.work, self.main = workload, seed, work, main
        self.stats = Counter()
        self.op_s = []
        self.problems = []
        self.reference = {}
        self.config_path = work / "config.json"

    def _prepare(self, index: int):
        cfg = self.workload.make_config(op_rng(self.seed, index))
        self.config_path.write_text(json.dumps(cfg))
        out = self.work / f"out-{index}"
        shutil.rmtree(out, ignore_errors=True)
        return cfg, out

    def warm_up(self) -> None:
        """Run operation 0 untimed and keep its CSVs for the re-run check."""
        _, out = self._prepare(0)
        call_main(self.main, self.workload.scenario, self.config_path, out)
        for name in self.workload.artifacts:
            path = out / name
            self.reference[name] = path.read_bytes() if path.is_file() else None
        shutil.rmtree(out, ignore_errors=True)

    def run(self, index: int, main=None):
        """Run and check operation ``index``; returns (seconds, its counts)."""
        cfg, out = self._prepare(index)
        elapsed, code, text = call_main(main or self.main, self.workload.scenario, self.config_path, out)
        counts = Counter(attempted=1)
        problems = []
        if code is None:
            problems.append(text)
        elif code not in (0, 2):
            problems.append(f"exit code {code}: {text.strip()[-300:]}")
        else:
            counts["violation_ops"] += code == 2
            outcome = self.workload.check(cfg, out)
            problems += outcome.problems
            counts.update({key: value for key, value in vars(outcome).items() if key != "problems"})
            if index == 0:
                for name, want in self.reference.items():
                    path = out / name
                    if want is None or not path.is_file() or path.read_bytes() != want:
                        problems.append(f"{name} differs from the warm-up run of the same seed")
        if problems:
            counts["failed"] += 1
            self.problems.append(f"op {index}: " + "; ".join(problems))
        shutil.rmtree(out, ignore_errors=True)
        self.stats.update(counts)
        return elapsed, counts

    def run_for(self, seconds: float, between=None, times: int = 0) -> None:
        """Run operations 0, 1, ... until their summed time reaches ``seconds``.

        ``between`` is called ``times`` times between operations, spread evenly
        over the operation time, so its samples see the same machine load as
        the operations do.
        """
        index, calls, busy = 0, 0, 0.0
        while busy < seconds or index < MIN_OPS:
            if calls < times and busy >= calls * seconds / times:
                between()
                calls += 1
            self.op_s.append(self.run(index)[0])
            busy += self.op_s[-1]
            index += 1
        for _ in range(calls, times):
            between()

    def run_traced(self, seconds: float, tracer: Tracer, main) -> tuple:
        """Run each operation untraced, then traced, until the untraced time reaches ``seconds``.

        Pairing the two runs of an operation keeps drift in machine load out
        of the overhead ratio.  Returns (traced counts, traced / untraced time).
        """
        traced_counts, traced_s, busy, index = Counter(), 0.0, 0.0, 0
        root = tracer.wrap("cli.main", main)
        while busy < seconds or index < MIN_OPS:
            self.op_s.append(self.run(index)[0])
            busy += self.op_s[-1]
            with tracer.installed():
                elapsed, counts = self.run(index, main=root)
            traced_s += elapsed
            traced_counts.update(counts)
            index += 1
        return traced_counts, traced_s / busy


def setup_once(config: Path) -> float:
    """Seconds a fresh interpreter takes to import dualitysim.cli and validate ``config``."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {done.stderr.strip()[-500:]}")
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(session: Session, setup_s: float) -> dict:
    op_s, busy = session.op_s, sum(session.op_s)
    return {
        "setup_s": setup_s,
        "op_s_p90": statistics.quantiles(op_s, n=10, method="inclusive")[8],
        "op_s_p50": statistics.median(op_s),
        "cells_per_s": session.stats["cells"] / busy,
        "pulses_per_s": session.stats["pulses"] / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer: Tracer, stats: Counter, wall_ratio: float) -> dict:
    """Per-operation means of the traced spans and the checked output counts.

    ``montecarlo.pulses`` and ``montecarlo.clicks`` count what the program
    sampled, so they are 0 on the ideal route.
    """
    ops = max(stats["attempted"], 1)
    pulses = stats["simulated_pulses"]
    spans = tracer.totals()

    def calls(name):
        return spans.get(name, (0, 0, 0))[0] / ops

    def total_s(name):
        return spans.get(name, (0, 0, 0))[1] / ops / 1e9

    def self_s(name):
        return spans.get(name, (0, 0, 0))[2] / ops / 1e9

    entropy = [row for name, row in spans.items() if name.startswith("entropy.")]
    return {
        "cli.main_s": total_s("cli.main"),
        "cli.config_s": total_s("cli.config"),
        "cli.run_self_s": self_s("cli.run"),
        "cli.bytes_written": stats["bytes_written"] / ops,
        "cli.violation_ops": stats["violation_ops"],
        "montecarlo.run_sweep_s": total_s("montecarlo.run_sweep"),
        "montecarlo.run_sweep_self_s": self_s("montecarlo.run_sweep"),
        "montecarlo.cell_rng_s": total_s("montecarlo.cell_rng"),
        "montecarlo.cell_rng_calls": calls("montecarlo.cell_rng"),
        "montecarlo.simulate_point_self_s": self_s("montecarlo.simulate_point"),
        "montecarlo.simulate_point_calls": calls("montecarlo.simulate_point"),
        "montecarlo.click_probabilities_s": total_s("montecarlo.click_probabilities"),
        "montecarlo.click_probabilities_calls": calls("montecarlo.click_probabilities"),
        "montecarlo.run_dynamic_switch_s": total_s("montecarlo.run_dynamic_switch"),
        "montecarlo.pulses": pulses / ops,
        "montecarlo.clicks": stats["clicks"] / ops,
        "montecarlo.clicks_per_pulse": stats["clicks"] / pulses if pulses else 0.0,
        "optics.raw_detection_probs_s": total_s("optics.raw_detection_probs"),
        "optics.raw_detection_probs_calls": calls("optics.raw_detection_probs"),
        "estimators.duality_report_s": total_s("estimators.duality_report"),
        "estimators.duality_report_calls": calls("estimators.duality_report"),
        "estimators.dropped_points": stats["dropped_points"] / ops,
        "estimators.clamped_points": stats["clamped_points"] / ops,
        "entropy.s": sum(row[1] for row in entropy) / ops / 1e9,
        "entropy.calls": sum(row[0] for row in entropy) / ops,
        "trace.wall_ratio": wall_ratio,
        "trace.ops": stats["attempted"],
        "trace.absent_sites": len(tracer.absent),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    cli = load_program()
    work = WORK / f"{workload.name}-{seed}-{'trace' if trace else 'e2e'}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        session = Session(workload, seed, work, cli.main)
        session.warm_up()
        if not trace:
            setup_config = work / "setup-config.json"
            shutil.copyfile(session.config_path, setup_config)
            setup_once(setup_config)  # discarded: writes bytecode caches, fills the file cache
            setup = []
            session.run_for(seconds, lambda: setup.append(setup_once(setup_config)), SETUP_REPEATS)
            values, units = end_to_end(session, statistics.median(setup)), END_TO_END_UNITS
        else:
            tracer = Tracer()
            traced_counts, wall_ratio = session.run_traced(seconds / 2.0, tracer, cli.main)
            tracer.write(WORK / f"spans-{workload.name}-seed{seed}.csv.gz")
            values, units = per_layer(tracer, traced_counts, wall_ratio), PER_LAYER_UNITS
            if tracer.absent:
                print(f"absent call sites (reported as zero): {', '.join(tracer.absent)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    stats = session.stats
    print(f"workload {workload.name}  seed {seed}  operations {stats['attempted']}  failed {stats['failed']}")
    for problem in session.problems[:10]:
        print(f"  FAILED {problem}")
    print(f"  failed_frac {stats['failed'] / stats['attempted']:.6g} ratio")
    if "cli.violation_ops" not in values:
        print(f"  cli.violation_ops {stats['violation_ops']} count")
    for name, value in values.items():
        bounded = name in units
        print(f"  {name} {value:.6g} {units[name] if bounded else UNBOUNDED_UNITS[name] + '  (not bounded)'}")
    return {
        "correct": stats["failed"] == 0,
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {name: {"value": float(value), "unit": units[name]} for name, value in values.items()
                    if name in units},
    }


def run_all(seed: int, seconds: float, trace: int) -> dict:
    """Each workload in its own interpreter, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in build_workloads():
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise BenchError(f"workload {name} failed: {done.stderr.strip()[-500:]}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None) -> int:
    workloads = build_workloads()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.trace)
        else:
            result = run_workload(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
