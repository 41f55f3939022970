#!/usr/bin/env python3
"""Walk through the interferometer circuit element by element.

Shows the element matrices, how the Sagnac loop phase tunes the recombiner
from a mirror to a balanced splitter, and that the matrix route reproduces
the closed-form detection probabilities at any setting and any coherence.
"""
import math

import numpy as np

from dualitysim import matrix_probs, raw_probs, sagnac_effective, standard_elements

np.set_printoptions(precision=4, suppress=True)

bs1, bs2, pm1, pm2 = standard_elements(phi_x=math.pi / 3, phi_s=math.pi / 5)
print("input splitter BS1 =\n", bs1)
print("loop splitter BS2 =\n", bs2)
print("phase modulator PM1(pi/3) =\n", pm1)

print("\nSagnac recombiner T(phi_s) = BS2 . PM2 . BS2")
for phi_s, label in ((0.0, "mirror"), (math.pi / 4, "intermediate"), (math.pi / 2, "balanced")):
    t = sagnac_effective(phi_s)
    print(f"  phi_s = {phi_s:.3f} ({label}): |T| =\n", np.abs(t))

phi_x = np.linspace(0.0, 2 * math.pi, 9)
for gamma in (1.0, 0.967):
    print(f"\nmatrix route vs closed form, phi_x swept at phi_s = pi/2, coherence {gamma}:")
    print(f"{'phi_x':>8} {'p1 matrix':>10} {'p1 closed':>10}")
    matrix, closed = matrix_probs(phi_x, math.pi / 2, coherence=gamma), raw_probs(phi_x, math.pi / 2, coherence=gamma)
    for x, p_matrix, p_closed in zip(phi_x, matrix[0], closed[0]):
        print(f"{x:8.3f} {p_matrix:10.6f} {p_closed:10.6f}")

print("\nblocking a path kills the phi_x dependence:")
for block in ("path0", "path1"):
    p1, p2 = 2.0 * raw_probs(0.0, math.pi / 3, block)  # the raw pair is half the conditional one
    print(f"  {block} blocked at phi_s = pi/3: conditional (p1, p2) = ({p1:.4f}, {p2:.4f})")
