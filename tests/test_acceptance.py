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
    CircuitConfig,
    FringeScan,
    RunPlan,
    circuit_output_state,
    detection_probs_blocked,
    detection_probs_closed_form,
    duality_report,
    h_max_binary,
    h_max_from_visibility,
    h_max_guessing_bound,
    h_min_binary,
    h_min_from_distinguishability,
    multi_photon_fraction,
    run_sweep,
    state_detection_probs,
    visibility_from_guessing,
    wpdr_check,
)
from dualitysim.cli import DEFAULT_PHI_S, config_from_dict, load_config, run
from dualitysim.entropy import GuessingInput, ProbDist, h_max, h_min
from dualitysim.estimators import flatness_check
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

    d_hmin = np.abs(h_min_binary(p) - h_min_from_distinguishability(contrast))
    d_hmax = np.abs(h_max_binary(p) - h_max_from_visibility(contrast))

    # spot-check the scalar definition path end to end as well
    for q in p[:200]:
        dist = ProbDist(np.array([q, 1.0 - q]))
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
    """Matrix-product probabilities match the closed forms on a 32x32 grid."""
    t0 = time.time()
    grid = np.linspace(0.0, 2.0 * math.pi, 32, endpoint=False)
    worst = 0.0
    for phi_x in grid:
        for phi_s in grid:
            cfg = CircuitConfig(float(phi_x), float(phi_s))
            got = state_detection_probs(circuit_output_state(cfg))
            want = detection_probs_closed_form(cfg)
            worst = max(worst, abs(got.p1 - want.p1), abs(got.p2 - want.p2))
            for block in ("path0", "path1"):
                cfgb = CircuitConfig(float(phi_x), float(phi_s), block=block)
                gotb = state_detection_probs(circuit_output_state(cfgb))
                wantb = detection_probs_blocked(cfgb)
                worst = max(worst, abs(gotb.p1 - wantb.p1), abs(gotb.p2 - wantb.p2))
    elapsed = time.time() - t0
    assert worst < 1e-12
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 3 matrix vs closed form: PASS "
        f"(32x32 grid, 3 block settings, max err={worst:.2e}, {elapsed:.2f}s)"
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
    reports = {rep.phi_s: rep for rep in duality_report(plan, counts)}

    # full-contrast setting: visibility inside the device's measured band
    v_top = reports[NINE_PHI_S[-1]].visibility
    band_tol = 3.0 * math.sqrt(0.023**2 + v_top.sigma**2)
    assert abs(v_top.value - 0.967) <= band_tol

    # mirror setting: no fringe beyond noise
    v_zero = reports[0.0].visibility
    assert v_zero.value <= 3.0 * v_zero.sigma

    # every blocked scan flat in phi_x (exactly one-sided scans are trivially flat)
    worst_flat = None
    for (s, phi_s), (b, block) in itertools.product(enumerate(plan.phi_s_values), enumerate(plan.blocks)):
        if block == BLOCK_NONE:
            continue
        check = flatness_check(FringeScan(plan.phi_x_values(), *counts[s, b]), n_sigma=3.0)
        assert check.flat, (phi_s, block, check)
        if check.allowance > 0:
            slack = (check.allowance - check.spread) / check.allowance
            if worst_flat is None or slack < worst_flat:
                worst_flat = slack
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(
        f"\nACCEPTANCE 5 fringe families at desk scale: PASS "
        f"(V(pi/2)={v_top.value:.4f} within {band_tol:.4f} of 0.967, "
        f"V(0)={v_zero.value:.4f}<={3 * v_zero.sigma:.4f}, "
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
        agree = 0
        for rep in duality_report(plan, run_sweep(plan)):
            f = rep.formula
            if f.quantities.eur_sum < 1.0 - 3.0 * f.eur_sigma:
                eur_failures += 1
            diff = abs(f.quantities.eur_sum - rep.definition.quantities.eur_sum)
            if diff <= 3.0 * (f.eur_sigma + rep.definition.eur_sigma):
                agree += 1
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
