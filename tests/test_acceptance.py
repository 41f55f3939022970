"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line with its measured figures (visible with
``pytest -s``); a failed assertion marks the criterion failed.  Statistical
criteria run on fixed seeds, so the whole suite is deterministic.
"""
import itertools
import math
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from dualitysim import (
    BLOCK_NONE,
    BLOCKS,
    RunPlan,
    duality_report,
    flatness_check,
    h_max_from_visibility,
    h_max_guessing_bound,
    h_min_from_distinguishability,
    matrix_probs,
    multi_photon_fraction,
    raw_probs,
    run_sweep,
    visibility_from_guessing,
    wpdr_check,
)
from dualitysim.cli import DEFAULT_PHI_S, config_from_dict, load_config, run
from dualitysim.entropy import GuessingInput, h_max, h_min
from dualitysim.montecarlo import cell_rng

REPO = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = REPO / "configs" / "reference_sweep.json"

NINE_PHI_S = DEFAULT_PHI_S


def test_criterion_1_route_equivalence_identity():
    """Formula and definition routes agree on 1e6 random binary distributions."""
    t0 = time.time()
    rng = np.random.default_rng(20240101)
    p = rng.uniform(0.0, 1.0, size=1_000_000)
    contrast = np.abs(2.0 * p - 1.0)

    pairs = np.stack((p, 1.0 - p), axis=-1)  # the definition route's rows (p, 1 - p)
    d_hmin = np.abs(h_min(pairs) - h_min_from_distinguishability(contrast))
    d_hmax = np.abs(h_max(pairs) - h_max_from_visibility(contrast))

    # spot-check the scalar definition path end to end as well
    for q in p[:200]:
        dist = np.array([q, 1.0 - q])
        c = abs(2.0 * q - 1.0)
        assert abs(h_min(dist) - h_min_from_distinguishability(c)) < 1e-12
        assert abs(h_max(dist) - h_max_from_visibility(c)) < 1e-12

    elapsed = time.time() - t0
    assert d_hmin.max() < 1e-12
    assert d_hmax.max() < 1e-12
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 1 route-equivalence identity: PASS "
        f"(1e6 dists, max|dHmin|={d_hmin.max():.2e}, max|dHmax|={d_hmax.max():.2e}, {elapsed:.2f}s)"
    )


def test_criterion_2_ideal_saturation():
    """Closed-form D = cos, V = sin saturate both bounds at the nine settings."""
    t0 = time.time()
    worst_eur, worst_wpdr = 0.0, 0.0
    for phi_s in NINE_PHI_S:
        d, v = math.cos(phi_s), math.sin(phi_s)
        total = h_min_from_distinguishability(d) + h_max_from_visibility(v)
        worst_eur = max(worst_eur, abs(total - 1.0))
        value, ok = wpdr_check(d, v)
        assert ok
        worst_wpdr = max(worst_wpdr, abs(value - 1.0))
    elapsed = time.time() - t0
    assert worst_eur < 1e-9
    assert worst_wpdr < 1e-12
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 2 ideal saturation: PASS "
        f"(9 settings, max|eur-1|={worst_eur:.2e}, max|wpdr-1|={worst_wpdr:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_3_matrix_vs_closed_form():
    """Matrix-product probabilities match the closed forms at any coherence.

    Over a 32x32 (phi_s, phi_x) grid, one plane per call, for every block
    setting and coherence 1, 0.967 (the device's), 0.5 and 0, and on 2,000
    seeded random settings.
    """
    t0 = time.time()
    grid = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    worst = 0.0
    for coherence, block in itertools.product((1.0, 0.967, 0.5, 0.0), BLOCKS):
        got = matrix_probs(grid, grid[:, None], block, coherence)
        worst = max(worst, np.abs(got - raw_probs(grid, grid[:, None], block, coherence)).max())
    rng = np.random.default_rng(20240103)
    draws = zip(rng.uniform(-10.0, 10.0, (2000, 2)).tolist(), rng.integers(0, 3, 2000), rng.uniform(0.0, 1.0, 2000))
    for (phi_x, phi_s), b, coherence in draws:
        got = matrix_probs(phi_x, phi_s, BLOCKS[b], coherence)
        worst = max(worst, np.abs(got - raw_probs(phi_x, phi_s, BLOCKS[b], coherence)).max())
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 3 matrix vs closed form: PASS "
        f"(32x32 grid, 3 block settings, 4 coherences, 2000 random settings, max err={worst:.2e}, {elapsed:.2f}s)"
    )


def test_criterion_4_multi_photon_statistics():
    """Sampled multi-photon fraction at mu=0.2 matches 1 - e^-mu (1 + mu)."""
    t0 = time.time()
    pulses = 10_000_000
    expect = 1.0 - math.exp(-0.2) * 1.2
    frac = multi_photon_fraction(0.2, pulses, cell_rng(20240104, 0, 0, 0))
    sigma = math.sqrt(expect * (1.0 - expect) / pulses)
    elapsed = time.time() - t0
    assert expect < 0.02  # the working point itself
    assert abs(frac - expect) <= 3.0 * sigma
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 4 multi-photon statistics: PASS "
        f"(1e7 pulses, frac={frac:.6f}, expect={expect:.6f}, |z|={abs(frac - expect) / sigma:.2f}, {elapsed:.2f}s)"
    )


def test_criterion_5_fringe_reproduction_at_desk_scale():
    """Default Monte Carlo run reproduces the fringe families."""
    t0 = time.time()
    plan = RunPlan(phi_s_values=NINE_PHI_S, pulses_per_point=120_000, coherence=0.967, seed=2)
    counts = run_sweep(plan)
    card = duality_report(plan, counts)
    assert card["phi_s"][0] == 0.0 and card["phi_s"][-1] == math.pi / 2

    # full-contrast setting: visibility inside the device's measured band
    v_top, v_top_sigma = card["V"][-1], card["V_sigma"][-1]
    band_tol = 3.0 * math.sqrt(0.023**2 + v_top_sigma**2)
    assert abs(v_top - 0.967) <= band_tol

    # mirror setting: no fringe beyond noise
    v_zero, v_zero_sigma = card["V"][0], card["V_sigma"][0]
    assert v_zero <= 3.0 * v_zero_sigma

    # every blocked scan flat in phi_x (exactly one-sided scans are trivially flat)
    blocked = [b for b, block in enumerate(plan.blocks) if block != BLOCK_NONE]
    check = flatness_check(counts[:, blocked])  # (phi_s, blocked block)
    bent = [(plan.phi_s_values[s], plan.blocks[blocked[b]]) for s, b in np.argwhere(~check["flat"])]
    assert not bent, (bent, check)
    allowed = check["allowance"] > 0
    worst_flat = ((check["allowance"] - check["spread"])[allowed] / check["allowance"][allowed]).min()
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 5 fringe families at desk scale: PASS "
        f"(V(pi/2)={v_top:.4f} within {band_tol:.4f} of 0.967, "
        f"V(0)={v_zero:.4f}<={3 * v_zero_sigma:.4f}, "
        f"worst blocked-flat rel slack={worst_flat:.2f}, {elapsed:.1f}s)"
    )


def test_criterion_6_eur_statistics_over_seeds():
    """EUR holds and both routes agree across 100 seeded Monte Carlo runs.

    Desk-scale pulse counts leave the no-fit grid-extremum visibility with a
    selection bias comparable to its sigma, so this asymptotic property suite
    runs at 2e8 pulses per point, where the inequality margins dominate it.
    """
    t0 = time.time()
    eur_failures = 0
    agreement_ok_seeds = 0
    worst_agreement = 9
    for seed in range(100):
        plan = RunPlan(
            phi_s_values=NINE_PHI_S, pulses_per_point=200_000_000,
            coherence=0.967, seed=seed,
        )
        card = duality_report(plan, run_sweep(plan))
        f, d = card["formula"], card["definition"]
        eur_failures += int((f["eur_sum"] < 1.0 - 3.0 * f["eur_sigma"]).sum())
        agree = int((np.abs(f["eur_sum"] - d["eur_sum"]) <= 3.0 * (f["eur_sigma"] + d["eur_sigma"])).sum())
        worst_agreement = min(worst_agreement, agree)
        if agree >= 8:
            agreement_ok_seeds += 1
    elapsed = time.time() - t0
    assert eur_failures == 0, f"{eur_failures} of 900 points broke eur >= 1 - 3 sigma"
    assert agreement_ok_seeds == 100
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 6 EUR statistics over seeds: PASS "
        f"(900 points, eur failures=0, route agreement >= {worst_agreement}/9 on all 100 seeds, {elapsed:.1f}s)"
    )


def test_criterion_7_n_path_reductions():
    """Generalized guessing-game quantities reduce to the binary forms."""
    t0 = time.time()
    rng = np.random.default_rng(20240107)
    worst = 0.0
    for p in rng.uniform(0.5, 1.0, size=10_000):
        g = GuessingInput(float(p), 2)
        binary_v = 2.0 * p - 1.0
        worst = max(
            worst,
            abs(visibility_from_guessing(g) - binary_v),
            abs(h_max_guessing_bound(g) - h_max_from_visibility(binary_v)),
        )
    assert worst < 1e-12

    for n in (2, 3, 5):
        grid = np.linspace(1.0 / n, 1.0, 2000)
        vals = [h_max_guessing_bound(GuessingInput(float(p), n)) for p in grid]
        assert np.all(np.diff(vals) < 1e-12), f"bound not monotone at n={n}"
    elapsed = time.time() - t0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 7 n-path reductions: PASS "
        f"(1e4 samples, max n=2 mismatch={worst:.2e}, bound monotone for n in (2,3,5), {elapsed:.2f}s)"
    )


def test_criterion_8_determinism_golden(tmp_path):
    """Reference config reproduces byte-identical CSVs across runs."""
    t0 = time.time()
    base = asdict(load_config(REFERENCE_CONFIG))
    outputs = []
    for label in ("a", "b"):
        cfg = config_from_dict({**base, "output_dir": str(tmp_path / label)})
        assert run(cfg) == 0
        outputs.append(
            (
                (tmp_path / label / "fringes.csv").read_bytes(),
                (tmp_path / label / "duality.csv").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1], "re-run changed the golden CSVs"
    elapsed = time.time() - t0
    print(
        f"\nACCEPTANCE 8 determinism golden: PASS "
        f"(fringes.csv {len(outputs[0][0])} bytes and duality.csv {len(outputs[0][1])} bytes "
        f"identical across 2 runs, {elapsed:.1f}s)"
    )
