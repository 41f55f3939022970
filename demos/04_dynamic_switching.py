#!/usr/bin/env python3
"""Dynamic switching between wave and particle measurement, live.

The loop phase toggles between 0 (mirror: which-path measurement, flat
balanced rates) and pi/2 (balanced splitter: full-contrast fringes) every
18 s while the state phase sweeps a continuous triangle wave.  Pass --plot
to draw the recorded time series.
"""
import sys

import numpy as np

from dualitysim import DetectorConfig, SourceConfig, SwitchPlan, run_dynamic_switch

plan = SwitchPlan(duration_s=72.0, toggle_period_s=18.0, triangle_period_s=6.0, bin_seconds=0.6)
source = SourceConfig()
n1, n2 = run_dynamic_switch(plan, source, DetectorConfig(), seed=2, coherence=1.0)  # one row per detector
t, phi_s, _ = plan.bin_axes()  # each bin's centre time and phases

segments = np.floor(t / plan.toggle_period_s).astype(int)
bins, pulses_per_bin = plan.pulses(source)
print(f"{bins} bins of {plan.bin_seconds} s, {pulses_per_bin} pulses each\n")
print(f"{'segment':>8} {'mode':>10} {'mean p1':>9} {'min p1':>8} {'max p1':>8}")
for seg in range(segments.max() + 1):
    m = segments == seg
    total = n1[m] + n2[m]
    phat = n1[m][total > 0] / total[total > 0]
    mode = "particle" if phi_s[m][0] == 0.0 else "wave"
    print(f"{seg:>8} {mode:>10} {phat.mean():9.3f} {phat.min():8.3f} {phat.max():8.3f}")

print("\nparticle segments sit at the balanced level; wave segments swing "
      "across the full fringe as the triangle wave sweeps the state phase")

if "--plot" in sys.argv:
    try:
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping the plot")
    else:
        fig, ax = plt.subplots(figsize=(10, 4))
        ax.plot(t, n1, label="D1")
        ax.plot(t, n2, label="D2")
        for seg in range(1, segments.max() + 1):
            ax.axvline(seg * plan.toggle_period_s, color="k", ls=":", lw=1)
        ax.set_xlabel("time (s)")
        ax.set_ylabel("counts per bin")
        ax.legend()
        fig.tight_layout()
        plt.show()
