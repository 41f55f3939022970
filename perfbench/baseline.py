#!/usr/bin/env python3
"""Record the benchmark's baseline: repeated runs per workload, their medians and spreads.

    python3 perfbench/baseline.py [--out PATH]

Runs ``run.py`` for ``run_seconds`` of BENCHMARK.json once per seed on every
workload (seeds 1..10, one process at a time), repeats that set twice, then
runs seeds 1 and 2 once more with ``--trace 1``, and writes
``perfbench/baseline.json`` (or ``--out``): the environment,
the prediction map (which per-layer metric should move which end-to-end
metric on which workload), and per set, workload and metric the median and
the interquartile range over the runs as a share of the median (Python's
``statistics.quantiles(values, n=4)``).  It prints each end-to-end metric's
spread and the largest change of its median between sets, next to its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
SETS = 2
TRACED_SEEDS = range(1, 3)

PREDICTIONS = {
    "montecarlo.cell_rng_s": (["op_s_p90"], ["sweep_seeds"]),
    "montecarlo.cell_rng_calls": (["op_s_p90"], ["sweep_seeds"]),
    "montecarlo.simulate_point_self_s": (["op_s_p90"], ["sweep_seeds"]),
    "montecarlo.simulate_point_calls": (["op_s_p90"], ["sweep_seeds"]),
    "montecarlo.click_probabilities_s": (["op_s_p90"], ["sweep_seeds"]),
    "montecarlo.click_probabilities_calls": (["op_s_p90"], ["sweep_seeds"]),
    "montecarlo.run_sweep_s": (["op_s_p90"], ["sweep_seeds", "verify_ideal_dense"]),
    "montecarlo.run_sweep_self_s": (["op_s_p90"], ["sweep_seeds", "verify_ideal_dense"]),
    "montecarlo.run_dynamic_switch_s": (["op_s_p90", "peak_rss_mb"], ["switch_ref"]),
    "montecarlo.pulses": (["op_s_p90", "peak_rss_mb"], ["switch_ref"]),
    "montecarlo.clicks": (["op_s_p90", "peak_rss_mb"], ["switch_ref"]),
    "montecarlo.clicks_per_pulse": (["op_s_p90", "peak_rss_mb"], ["switch_ref"]),
    "optics.raw_detection_probs_s": (["op_s_p90"], ["sweep_seeds", "verify_ideal_dense"]),
    "optics.raw_detection_probs_calls": (["op_s_p90"], ["sweep_seeds", "verify_ideal_dense"]),
    "estimators.duality_report_s": (["op_s_p90"], ["verify_ideal_dense", "sweep_seeds"]),
    "estimators.duality_report_calls": (["op_s_p90"], ["verify_ideal_dense", "sweep_seeds"]),
    "entropy.s": (["op_s_p90"], ["verify_ideal_dense"]),
    "entropy.calls": (["op_s_p90"], ["verify_ideal_dense"]),
    "cli.config_s": (["setup_s", "op_s_p90"], ["sweep_seeds", "switch_ref", "verify_ideal_dense"]),
    "cli.run_self_s": (["op_s_p90"], ["verify_ideal_dense", "sweep_seeds"]),
}


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list) -> dict:
    out = {
        "runs": len(results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {},
    }
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        row = {"median": median, "unit": entry["unit"]}
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            row["iqr_share"] = (q3 - q1) / median
        out["metrics"][name] = row
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [summarize([run_once(workload, seed, seconds, 0) for seed in SEEDS]) for _ in range(SETS)]
        traced = [run_once(workload, seed, seconds, 1) for seed in TRACED_SEEDS]
        workloads[workload] = {"end_to_end": sets, "per_layer": summarize(traced)}
        for name, row in sets[0]["metrics"].items():
            spreads = " ".join(f"{s['metrics'][name].get('iqr_share', 0):.4f}" for s in sets)
            change = max(abs(s["metrics"][name]["median"] / row["median"] - 1.0) for s in sets)
            print(f"{workload} {name} {row['median']:.6g} {row['unit']}  iqr/median {spreads}"
                  f"  median change {change:.4f}  bound {bounds[name]}")

    record = {
        "environment": environment(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "traced_seeds": list(TRACED_SEEDS),
        "predictions": {
            layer: {"moves": metrics, "on": on} for layer, (metrics, on) in PREDICTIONS.items()
        },
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
