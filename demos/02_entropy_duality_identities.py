#!/usr/bin/env python3
"""The entropic side of wave-particle duality, in closed form.

Demonstrates the binary identities linking the min/max-entropy definitions to
the distinguishability/visibility closed forms, the exact saturation of the
uncertainty bound for the ideal device, and the n-path generalization.
"""
import math

import numpy as np

from dualitysim import (
    GuessingInput,
    h_max,
    h_max_from_visibility,
    h_max_guessing_bound,
    h_min,
    h_min_from_distinguishability,
    visibility_from_guessing,
)

print("binary identities: entropy definitions vs duality closed forms")
rng = np.random.default_rng(0)
worst = 0.0
for p in rng.uniform(0, 1, size=5000):
    dist = np.array([p, 1 - p])
    c = abs(2 * p - 1)
    worst = max(
        worst,
        abs(h_min(dist) - h_min_from_distinguishability(c)),
        abs(h_max(dist) - h_max_from_visibility(c)),
    )
print(f"  5000 random binary distributions, max mismatch = {worst:.2e}")

print("\nideal device: H_min(D=cos phi_s) + H_max(V=sin phi_s) = 1 exactly")
print(f"{'phi_s':>8} {'D':>7} {'V':>7} {'H_min':>8} {'H_max':>8} {'sum':>18}")
for phi_s in np.linspace(0, math.pi / 2, 9):
    d, v = math.cos(phi_s), math.sin(phi_s)
    hz, hw = h_min_from_distinguishability(d), h_max_from_visibility(v)
    print(f"{phi_s:8.4f} {d:7.4f} {v:7.4f} {hz:8.5f} {hw:8.5f} {hz + hw:18.15f}")

print("\nn-path guessing games: the max-entropy bound vs guessing success")
for n in (2, 3, 5):
    row = []
    for p in np.linspace(1 / n, 1, 5):
        g = GuessingInput(float(p), n)
        row.append(f"p={p:.2f}: V={visibility_from_guessing(g):.3f}, bound={h_max_guessing_bound(g):.4f}")
    print(f"  n={n}: " + " | ".join(row))
print("  (bound falls from log2(n) to 0 as the game becomes winnable)")
