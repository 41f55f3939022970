#!/usr/bin/env python3
"""Photon-counting fringe scans at realistic telecom-fiber statistics.

Simulates the full sweep at desk scale (0.2 photons per gate, 10% detection
efficiency, 12 dB system loss, 120k pulses per point) and extracts visibility
and distinguishability per loop setting.  Pass --plot to draw the fringe
families if matplotlib is available.
"""
import math
import sys

import numpy as np

from dualitysim import BLOCKS, DetectorConfig, RunPlan, SourceConfig, duality_report, run_sweep

phi_s_values = tuple(np.linspace(0.0, math.pi / 2, 5))
plan = RunPlan(phi_s_values=phi_s_values, pulses_per_point=120_000, coherence=0.967, seed=2)
source, detector = SourceConfig(), DetectorConfig()

print(f"mean photons per gate {source.mu}, efficiency {detector.efficiency}, "
      f"loss {detector.system_loss_db} dB, {plan.pulses_per_point} pulses per point")
scans = run_sweep(plan, source, detector)  # each phi_s in turn: its open, path0 and path1 scans
reports = duality_report(scans)
open_scans = [s for s in scans if s.block == "none"]

print(f"\n{'phi_s':>8} {'V':>8} {'+-':>7} {'D':>8} {'+-':>7}   counts at fringe peak")
for rep, scan in zip(reports, open_scans):
    v, d = rep.visibility, rep.distinguishability
    print(f"{rep.phi_s:8.4f} {v.value:8.4f} {v.sigma:7.4f} {d.value:8.4f} {d.sigma:7.4f}   {int(scan.n1.max())}")

print("\nthe mirror setting shows no fringe; the balanced setting reaches the "
      "device contrast ~0.967; distinguishability runs the other way")

if "--plot" in sys.argv:
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the plot")
    else:
        fig, axes = plt.subplots(len(phi_s_values), 3, figsize=(11, 2.2 * len(phi_s_values)),
                                 sharex=True, sharey="row")
        for i, s in enumerate(scans):
            row, col = divmod(i, len(BLOCKS))
            axes[row][col].plot(s.phi_x, s.n1, "o-", ms=3, label="D1")
            axes[row][col].plot(s.phi_x, s.n2, "s--", ms=3, label="D2")
            if row == 0:
                axes[row][col].set_title({"none": "both open", "path0": "path 0 blocked",
                                          "path1": "path 1 blocked"}[s.block])
            axes[row][0].set_ylabel(f"phi_s={s.phi_s:.2f}")
        axes[0][0].legend()
        for ax in axes[-1]:
            ax.set_xlabel("phi_x (rad)")
        fig.tight_layout()
        plt.show()
