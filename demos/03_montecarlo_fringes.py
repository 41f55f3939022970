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

from dualitysim import DetectorConfig, RunPlan, SourceConfig, duality_report, run_sweep

phi_s_values = tuple(np.linspace(0.0, math.pi / 2, 5))
plan = RunPlan(phi_s_values=phi_s_values, pulses_per_point=120_000, coherence=0.967, seed=2)
source, detector = SourceConfig(), DetectorConfig()

print(f"mean photons per gate {source.mu}, efficiency {detector.efficiency}, "
      f"loss {detector.system_loss_db} dB, {plan.pulses_per_point} pulses per point")
counts = run_sweep(plan, source, detector)  # shape (phi_s, block, detector, phi_x), in plan order
card = duality_report(plan, counts)  # named columns, one entry per phi_s
open_n1 = counts[:, plan.blocks.index("none"), 0]  # D1 counts of each phi_s's open scan

print(f"\n{'phi_s':>8} {'V':>8} {'+-':>7} {'D':>8} {'+-':>7}   counts at fringe peak")
for phi_s, v, v_sigma, d, d_sigma, n1 in zip(*(card[name] for name in ("phi_s", "V", "V_sigma", "D", "D_sigma")),
                                             open_n1):
    print(f"{phi_s:8.4f} {v:8.4f} {v_sigma:7.4f} {d:8.4f} {d_sigma:7.4f}   {int(n1.max())}")

print("\nthe mirror setting shows no fringe; the balanced setting reaches the "
      "device contrast ~0.967; distinguishability runs the other way")

if "--plot" in sys.argv:
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the plot")
    else:
        fig, axes = plt.subplots(len(phi_s_values), len(plan.blocks), figsize=(11, 2.2 * len(phi_s_values)),
                                 sharex=True, sharey="row")
        phi_x = plan.phi_x_values()
        for row, phi_s in enumerate(plan.phi_s_values):
            for col, block in enumerate(plan.blocks):
                n1, n2 = counts[row, col]
                axes[row][col].plot(phi_x, n1, "o-", ms=3, label="D1")
                axes[row][col].plot(phi_x, n2, "s--", ms=3, label="D2")
                if row == 0:
                    axes[row][col].set_title({"none": "both open", "path0": "path 0 blocked",
                                              "path1": "path 1 blocked"}[block])
            axes[row][0].set_ylabel(f"phi_s={phi_s:.2f}")
        axes[0][0].legend()
        for ax in axes[-1]:
            ax.set_xlabel("phi_x (rad)")
        fig.tight_layout()
        plt.show()
