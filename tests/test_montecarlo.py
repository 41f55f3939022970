import itertools
import math
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualitysim import (
    CircuitConfig,
    ContractViolation,
    DetectorConfig,
    RunPlan,
    SourceConfig,
    SwitchPlan,
    cell_rng,
    click_probabilities,
    click_probs,
    duality_report,
    effective_mean_photons,
    flatness_check,
    multi_photon_fraction,
    raw_probs,
    run_dynamic_switch,
    run_sweep,
    sample_photon_numbers,
    simulate_point,
)
from dualitysim import montecarlo
from dualitysim.montecarlo import (
    DEFAULT_COHERENCE_MC,
    IDEAL_MODE,
    MAX_PHI_X_STEPS,
    MAX_SWEEP_CELLS,
)
from dualitysim.optics import BLOCKS

SRC = SourceConfig()
DET = DetectorConfig()


class TestClickModel:
    def test_effective_mean_photons(self):
        # mu * eta * 10^(-L/10) with the default telecom parameters
        assert effective_mean_photons(SRC, DET) == pytest.approx(1.2619146889603868e-3, rel=1e-12)

    def test_click_probability_saturating_port(self):
        c1, c2 = click_probabilities(CircuitConfig(math.pi / 2, math.pi / 2), SRC, DET)
        mu_eff = effective_mean_photons(SRC, DET)
        assert c1 == pytest.approx(-math.expm1(-mu_eff), rel=1e-12)
        assert c2 == pytest.approx(0.0, abs=1e-15)

    def test_array_model_matches_scalar_formula(self):
        noisy = DetectorConfig(dark_prob=1e-3)
        mu_eff = effective_mean_photons(SRC, noisy)
        p = np.linspace(0.0, 1.0, 33).reshape(3, 11)
        c = click_probs(p, SRC, noisy)
        assert c.shape == p.shape
        for got, q in zip(c.ravel().tolist(), p.ravel().tolist()):
            assert got == pytest.approx(min(1.0, -math.expm1(-mu_eff * q) + 1e-3), rel=1e-15, abs=0.0)

    def test_dark_counts_add_and_cap(self):
        noisy = DetectorConfig(dark_prob=1.0)
        c1, c2 = click_probabilities(CircuitConfig(0.0, 0.0), SRC, noisy)
        assert c1 == 1.0 and c2 == 1.0

    def test_blocked_uses_half_amplitude(self):
        cfg = CircuitConfig(0.3, 0.0, block="path1")
        c1, _ = click_probabilities(cfg, SRC, DET)
        mu_eff = effective_mean_photons(SRC, DET)
        assert c1 == pytest.approx(-math.expm1(-mu_eff * 0.5), rel=1e-12)

    def test_expected_counts_monotone_in_loss(self):
        losses = (6.0, 9.0, 12.0, 15.0, 20.0)
        totals = [click_probs(raw_probs(0.7, 0.9), SRC, DetectorConfig(system_loss_db=loss)).sum() for loss in losses]
        assert all(a > b for a, b in zip(totals, totals[1:]))


class TestSimulatePoint:
    def test_zero_pulses(self):
        assert simulate_point(CircuitConfig(0.1, 0.2), SRC, DET, 0, cell_rng(0, 0, 0, 0)) == (0, 0)

    def test_negative_pulses_rejected(self):
        with pytest.raises(ContractViolation):
            simulate_point(CircuitConfig(0.1, 0.2), SRC, DET, -1, cell_rng(0, 0, 0, 0))

    def test_reproducible_from_substream(self):
        cfg = CircuitConfig(0.4, 1.1)
        a = simulate_point(cfg, SRC, DET, 120_000, cell_rng(99, 1, 2, 3))
        b = simulate_point(cfg, SRC, DET, 120_000, cell_rng(99, 1, 2, 3))
        assert a == b

    def test_statistics_track_click_probabilities(self):
        # 5-sigma binomial agreement on at least 99% of cells over 100 seeds
        checks, hits = 0, 0
        pulses = 200_000
        for seed in range(100):
            for i, phi_x in enumerate(np.linspace(0, 2 * math.pi, 3, endpoint=False)):
                for j, phi_s in enumerate((0.7, math.pi / 2)):
                    cfg = CircuitConfig(float(phi_x), phi_s, coherence=0.967)
                    n1, n2 = simulate_point(cfg, SRC, DET, pulses, cell_rng(seed, 0, j, i))
                    for n, c in zip((n1, n2), click_probabilities(cfg, SRC, DET)):
                        sigma = math.sqrt(pulses * c * (1 - c))
                        hits += abs(n - pulses * c) <= 5 * max(sigma, 1e-9)
                        checks += 1
        assert hits >= 0.99 * checks

    def test_saturating_port_rates(self):
        # fully constructive setting: one port clicks at the thinned-beam
        # rate, the dark-free other port stays silent
        pulses = 1_000_000
        cfg = CircuitConfig(math.pi / 2, math.pi / 2, coherence=1.0)
        n1, n2 = simulate_point(cfg, SRC, DET, pulses, cell_rng(21, 0, 0, 0))
        rate = -math.expm1(-effective_mean_photons(SRC, DET))
        sigma = math.sqrt(rate * (1 - rate) / pulses)
        assert abs(n1 / pulses - rate) <= 3 * sigma
        assert n2 == 0

    def test_sampled_counts_decrease_with_loss(self):
        cfg = CircuitConfig(0.7, 0.9)
        totals = []
        for loss in (6.0, 12.0, 18.0):
            rng = cell_rng(5, 0, 0, 0)
            n1, n2 = simulate_point(cfg, SRC, DetectorConfig(system_loss_db=loss), 2_000_000, rng)
            totals.append(n1 + n2)
        assert totals[0] > totals[1] > totals[2]


class TestPhotonStatistics:
    def test_multi_photon_fraction(self):
        pulses = 1_000_000
        expect = 1.0 - math.exp(-0.2) * 1.2
        frac = multi_photon_fraction(0.2, pulses, cell_rng(11, 0, 0, 0))
        sigma = math.sqrt(expect * (1 - expect) / pulses)
        assert abs(frac - expect) <= 3 * sigma

    def test_multi_photon_is_rare(self):
        # the working point keeps multi-photon emission below 2%
        assert 1.0 - math.exp(-0.2) * 1.2 == pytest.approx(0.017523096306421904, rel=1e-12)
        assert 1.0 - math.exp(-0.2) * 1.2 < 0.02

    def test_photon_numbers_mean(self):
        n = sample_photon_numbers(0.2, 500_000, cell_rng(13, 0, 0, 0))
        assert abs(n.mean() - 0.2) < 3 * math.sqrt(0.2 / n.size)

    def test_bad_mu_rejected(self):
        with pytest.raises(ContractViolation):
            sample_photon_numbers(0.0, 10, cell_rng(0, 0, 0, 0))


class TestRunSweep:
    def test_counts_in_plan_order(self):
        # one (n1, n2) row pair per (phi_s, block), in the plan's order of both axes
        plan = RunPlan(phi_s_values=(0.0, 1.0), blocks=("path1", "none"), seed=1)
        counts = run_sweep(plan, SRC, DET)
        assert counts.dtype == np.float64 and counts.shape == (2, 2, 2, 32)
        ideal = run_sweep(plan, SRC, DET, mode=IDEAL_MODE)
        phi_s = np.array(plan.phi_s_values)[:, None]
        for b, block in enumerate(plan.blocks):  # the sweep's rows, bit for bit one (phi_s, phi_x) plane per block
            want = plan.pulses_per_point * raw_probs(plan.phi_x_values(), phi_s, block, 1.0)
            assert ideal[:, b].tobytes() == np.moveaxis(want, 0, 1).tobytes()

    def test_deterministic_across_runs(self):
        plan = RunPlan(phi_s_values=(0.0, 0.9, math.pi / 2), seed=77, pulses_per_point=50_000)
        assert run_sweep(plan, SRC, DET).tobytes() == run_sweep(plan, SRC, DET).tobytes()

    def test_rows_match_per_cell_sampling(self):
        # the row evaluation keeps the per-cell contract: cell (b, s, x) is
        # simulate_point on numpy's own SeedSequence substream, D1 drawn before D2
        plan = RunPlan(phi_s_values=(0.0, 0.7, math.pi / 2), seed=31, pulses_per_point=40_000, coherence=0.9)
        noisy = DetectorConfig(dark_prob=1e-4)
        counts = run_sweep(plan, SRC, noisy)
        for (s_idx, phi_s), block in itertools.product(enumerate(plan.phi_s_values), plan.blocks):
            b_idx = BLOCKS.index(block)
            for x_idx, phi_x in enumerate(plan.phi_x_values().tolist()):
                cfg = CircuitConfig(phi_x, phi_s, block=block, coherence=0.9)
                ss = np.random.SeedSequence(plan.seed, spawn_key=(b_idx, s_idx, x_idx))
                rng = np.random.Generator(np.random.PCG64(ss))
                n1, n2 = counts[s_idx, plan.blocks.index(block), :, x_idx].tolist()
                assert (n1, n2) == simulate_point(cfg, SRC, noisy, plan.pulses_per_point, rng)

    def test_cell_counts_independent_of_plan_shape(self):
        # a sub-plan sharing the seed reproduces the same cells
        full = RunPlan(phi_s_values=(0.3, 0.8), seed=5, pulses_per_point=30_000)
        sub = RunPlan(phi_s_values=(0.3, 0.8), blocks=("path1",), seed=5, pulses_per_point=30_000)
        assert run_sweep(sub, SRC, DET)[:, 0].tobytes() == run_sweep(full, SRC, DET)[:, 2].tobytes()

    def test_ideal_mode_matches_raw_probabilities(self):
        plan = RunPlan(phi_s_values=(0.5,), pulses_per_point=1000, coherence=1.0, seed=0)
        counts = run_sweep(plan, mode=IDEAL_MODE)
        assert abs(counts[0, 0, 0, 0] - 500.0) < 1e-9  # open, phi_x = 0: balanced
        assert abs(counts[0, 1, :, 0].sum() - 500.0) < 1e-9  # path0: half the mass blocked

    def test_memory_stays_bounded(self):
        # 49,152 Monte Carlo cells: the cells become Python lists one phi_x row
        # at a time, so the peak is the plan's substream words and counts plus
        # one row; turning every cell into lists at once peaks about 3.5x higher
        plan = RunPlan(phi_s_values=tuple(np.linspace(0.0, math.pi / 2, 16)), phi_x_grid=(0.0, 2 * math.pi, 1024),
                       pulses_per_point=1000, seed=1)
        tracemalloc.start()
        try:
            counts = run_sweep(plan, SRC, DET)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.shape == (16, 3, 2, 1024)
        assert peak < 6.3e6  # 1.5x the 4.2 MB this plan peaked at before the sweep returned one array

    def test_mode_coherence_defaults(self):
        plan = RunPlan(phi_s_values=(0.5,))
        assert plan.resolved_coherence("ideal") == 1.0
        assert plan.resolved_coherence("montecarlo") == DEFAULT_COHERENCE_MC
        pinned = RunPlan(phi_s_values=(0.5,), coherence=0.5)
        assert pinned.resolved_coherence("ideal") == 0.5

    def test_unknown_mode_rejected(self):
        with pytest.raises(ContractViolation, match="mode"):
            run_sweep(RunPlan(phi_s_values=(0.5,)), SRC, DET, mode="bogus")

    def test_zero_pulse_plan(self):
        plan = RunPlan(phi_s_values=(0.5,), pulses_per_point=0, seed=0)
        assert not run_sweep(plan, SRC, DET).any()

    def test_sampled_visibility_tracks_loop_phase(self):
        # mirror setting shows no fringe beyond noise; balanced setting shows
        # full contrast within its error bar
        from dualitysim import duality_report

        plan = RunPlan(
            phi_s_values=(0.0, math.pi / 2), coherence=1.0, pulses_per_point=100_000, seed=5,
        )
        counts = run_sweep(plan, SRC, DET)
        # substreams are keyed by block, not by plan position: the blocked
        # settings leave the open counts as an open-only plan draws them
        open_only = run_sweep(replace(plan, blocks=("none",)), SRC, DET)
        assert open_only[:, 0].tobytes() == counts[:, 0].tobytes()
        card = duality_report(plan, counts)
        (flat, full), (flat_sigma, full_sigma) = card["V"], card["V_sigma"]
        assert flat < 3 * flat_sigma
        assert abs(full - 1.0) <= 3 * full_sigma

    def test_sampled_blocked_scan_is_flat(self):
        plan = RunPlan(
            phi_s_values=(math.pi / 2,), blocks=("path0",), coherence=1.0,
            pulses_per_point=100_000, seed=3,
        )
        [[blocked]] = run_sweep(plan, SRC, DET)
        assert flatness_check(blocked)["flat"]

    def test_plan_validation(self):
        with pytest.raises(ContractViolation):
            RunPlan(phi_s_values=())
        for bad in (math.nan, math.inf):
            with pytest.raises(ContractViolation):
                RunPlan(phi_s_values=(0.1, bad))
            with pytest.raises(ContractViolation):
                RunPlan(phi_s_values=(0.1,), phi_x_grid=(0.0, bad, 32))
        with pytest.raises(ContractViolation):
            RunPlan(phi_s_values=(0.1,), phi_x_grid=(0.0, 2 * math.pi, 32.5))
        with pytest.raises(ContractViolation):
            RunPlan(phi_s_values=(0.1,), phi_x_grid=(0.0, 2 * math.pi, 1))
        with pytest.raises(ContractViolation):
            RunPlan(phi_s_values=(0.1,), blocks=("nope",))
        with pytest.raises(ContractViolation):
            RunPlan(phi_s_values=(0.1,), seed=-1)
        for stop in (1.0, 0.5):
            with pytest.raises(ContractViolation, match="stop must exceed start"):
                RunPlan(phi_s_values=(0.1,), phi_x_grid=(1.0, stop, 32))
        # grids whose phi_x floats repeat, or overflow stop - start into NaN
        for grid in ((1e20, 1.0000000000000002e20, 32), (-1e308, 1e308, 32)):
            with pytest.raises(ContractViolation, match="strictly increasing"):
                RunPlan(phi_s_values=(0.1,), phi_x_grid=grid)

    def test_pulse_cap_keeps_float64_counts_exact(self):
        # 2^53 is the largest count up to which float64 holds every integer: 2^53 + 1 rounds to 2^53
        plan = RunPlan(phi_s_values=(math.pi / 2,), phi_x_grid=(0.0, 2 * math.pi, 8), pulses_per_point=2**53)
        counts = run_sweep(plan, detector=DetectorConfig(dark_prob=1.0))  # every gate clicks
        assert counts.max() == 2.0**53
        for pulses in (2**53 + 1, 2**63 - 1):
            with pytest.raises(ContractViolation, match=r"^pulses_per_point must lie in \[0, 2\^53\]$"):
                replace(plan, pulses_per_point=pulses)

    def test_sweep_cell_cap(self):
        grid = (0.0, 2 * math.pi, MAX_PHI_X_STEPS)
        RunPlan(phi_s_values=(0.1,) * 9, phi_x_grid=grid)  # 9 x 3 x 2^16 cells
        too_many = MAX_SWEEP_CELLS // (3 * MAX_PHI_X_STEPS) + 1
        with pytest.raises(ContractViolation, match="cells"):
            RunPlan(phi_s_values=(0.1,) * too_many, phi_x_grid=grid)

    @settings(max_examples=300, deadline=None, derandomize=True)  # the same examples on every run
    @given(
        seed=st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]) | st.integers(0, 2**64 - 1),
        key=st.tuples(st.integers(0, 2), st.integers(0, 10**4), st.integers(0, MAX_PHI_X_STEPS - 1)),
    )
    def test_cell_rng_is_numpy_seed_sequence_substream(self, seed, key):
        want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key))
        got = cell_rng(seed, *key)
        assert got.bit_generator.state == want.state
        reference = np.random.Generator(want)
        assert got.binomial(120_000, 0.0013) == reference.binomial(120_000, 0.0013)
        assert np.array_equal(got.random(3), reference.random(3))

    @pytest.mark.parametrize("seed", [2.7, 2.0, True, -1, 2**64])
    def test_cell_rng_refuses_non_integer_and_out_of_range_seeds(self, seed):
        with pytest.raises(ContractViolation, match="seed must be a 64-bit"):
            cell_rng(seed, 0, 0, 0)

    def test_substreams_differ_between_cells(self):
        a = cell_rng(3, 0, 0, 0).integers(0, 2**32, size=4)
        b = cell_rng(3, 0, 0, 1).integers(0, 2**32, size=4)
        c = cell_rng(3, 0, 0, 0).integers(0, 2**32, size=4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


def per_pulse_switch(plan, source, detector, seed, coherence):
    """Switch counts with the phase and click model evaluated on every pulse, the same draws in the same order."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    n_bins = round(plan.duration_s / plan.bin_seconds)
    n_pulses = n_bins * round(plan.bin_seconds * source.rep_rate)
    counts = np.zeros((2, n_bins), dtype=np.int64)
    for start in range(0, n_pulses, montecarlo.SWITCH_CHUNK_PULSES):
        idx = np.arange(start, min(start + montecarlo.SWITCH_CHUNK_PULSES, n_pulses))
        t = (idx + 0.5) / source.rep_rate
        phi_x = 2.0 * math.pi * (1.0 - np.abs(2.0 * np.mod(t / plan.triangle_period_s, 1.0) - 1.0))  # the triangle
        wave_segment = (np.floor(t / plan.toggle_period_s).astype(np.int64) % 2) == 1
        sin_s = np.where(wave_segment, 1.0, 0.0)  # sin(phi_s) for phi_s in {0, pi/2}
        p1 = 0.5 * (1.0 + coherence * np.sin(phi_x) * sin_s)
        c1 = click_probs(p1, source, detector)
        c2 = click_probs(1.0 - p1, source, detector)
        click1 = rng.random(idx.size) < c1
        click2 = rng.random(idx.size) < c2
        bins = np.minimum((t / plan.bin_seconds).astype(np.int64), n_bins - 1)
        counts[0] += np.bincount(bins[click1], minlength=n_bins)
        counts[1] += np.bincount(bins[click2], minlength=n_bins)
    return counts


# (SWITCH_CHUNK_PULSES, (plan, source, detector, seed, coherence)); the small chunks leave ragged last chunks,
# and the chunks of 1 to 3 pulses, on bins of one pulse each, put every stream offset under a count.
BRIGHT = (SourceConfig(mu=20.0, rep_rate=1e4), DetectorConfig(dark_prob=0.3))
SWITCH_CASES = {
    "reference": (1_000_000, (SwitchPlan(72.0, 18.0, 6.0, 0.6), SRC, DET, 2, 1.0)),
    "dark_prob_1": (1_000_000, (SwitchPlan(3.0, 1.0, 0.7, 0.2), SRC, DetectorConfig(dark_prob=1.0), 5, 0.967)),
    "coherence_0": (1_000_000, (SwitchPlan(10.0, 3.0, 2.0, 0.5), SRC, DET, 6, 0.0)),
    "mu_50": (1_000_000, (SwitchPlan(8.1, 2.5, 1.5, 0.3), SourceConfig(mu=50.0), DetectorConfig(dark_prob=1e-4), 7, 1.0)),
    "ragged_chunks": (1_013, (SwitchPlan(2.25, 0.9, 0.45, 0.25), SourceConfig(mu=2.0),
                              DetectorConfig(dark_prob=1e-3), 11, 0.8)),
    "chunk_1": (1, (SwitchPlan(0.03, 0.01, 0.004, 1e-4), *BRIGHT, 13, 0.9)),  # 300 pulses
    "chunk_2_ragged": (2, (SwitchPlan(0.0301, 0.01, 0.004, 1e-4), *BRIGHT, 14, 0.9)),  # 301: a last chunk of 1
    "chunk_3_ragged": (3, (SwitchPlan(0.0302, 0.01, 0.004, 1e-4), *BRIGHT, 15, 0.9)),  # 302: a last chunk of 2
}
REFERENCE_SWITCH = SwitchPlan(72.0, 18.0, 6.0, bin_seconds=0.6)


class TestDynamicSwitch:
    @pytest.mark.parametrize("name", sorted(SWITCH_CASES))
    def test_screened_sampler_matches_per_pulse_model(self, name, monkeypatch):
        chunk, case = SWITCH_CASES[name]
        monkeypatch.setattr(montecarlo, "SWITCH_CHUNK_PULSES", chunk)
        counts = run_dynamic_switch(*case)
        reference = per_pulse_switch(*case)
        assert counts.dtype == np.float64 and counts.shape == reference.shape
        assert np.array_equal(counts, reference)
        assert reference.sum() > 0

    @pytest.mark.parametrize("seed, coherence", [
        (-1, 1.0), (2**64, 1.0), (2**70, 1.0), (1.5, 1.0), (True, 1.0), (0, -0.1), (0, 2.0), (0, math.nan),
    ])
    def test_seed_and_coherence_checked(self, seed, coherence):
        plan = SwitchPlan(1.0, 0.5, 0.25, 0.5)
        message = "seed must be a 64-bit" if coherence == 1.0 else r"coherence must lie in \[0, 1\]"
        with pytest.raises(ContractViolation, match=message):
            run_dynamic_switch(plan, SRC, DET, seed=seed, coherence=coherence)

    @pytest.mark.parametrize("faulty_side", ["D1", "D2"])
    def test_fault_on_either_thread_surfaces(self, faulty_side, monkeypatch):
        screen, sides = montecarlo._screen, []

        def faulty(*args):
            side = "D1" if threading.current_thread() is threading.main_thread() else "D2"
            sides.append(side)
            if side == faulty_side:
                raise FloatingPointError(f"{side} fill failed")
            return screen(*args)

        monkeypatch.setattr(montecarlo, "_screen", faulty)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match=f"{faulty_side} fill failed"):
            run_dynamic_switch(SwitchPlan(1.0, 0.5, 0.25, 0.5), SRC, DET, seed=1)
        assert sorted(sides) == ["D1", "D2"]  # one chunk, one screen per half
        assert threading.active_count() == threads  # the second thread was joined

    def test_triangle_wave_shape(self):
        t = np.array([0.0, 1.5, 3.0, 4.5, 6.0])
        np.testing.assert_allclose(
            REFERENCE_SWITCH.phases(t)[1], [0.0, math.pi, 2 * math.pi, math.pi, 0.0], atol=1e-12
        )

    def test_alternating_segments(self):
        t, phi_s, phi_x = REFERENCE_SWITCH.bin_axes()
        assert t.size == phi_s.size == phi_x.size == 120
        segments = np.floor(t / 18.0).astype(int)
        assert segments.max() == 3  # four 18 s segments in 72 s
        for seg in range(4):
            expect = 0.0 if seg % 2 == 0 else math.pi / 2
            assert np.all(phi_s[segments == seg] == expect)
            seg_phi_s, seg_phi_x = REFERENCE_SWITCH.phases(t[segments == seg])  # the rule bin_axes applies
            assert np.all(seg_phi_s == expect) and np.array_equal(seg_phi_x, phi_x[segments == seg])
        # any time, not only bin centres: phi_s turns to pi/2 at 18 s and back to 0 at 36 s
        edges_s, edges_x = REFERENCE_SWITCH.phases(np.array([0.0, 17.99, 18.0, 35.99, 36.0, 54.0]))
        assert np.array_equal(edges_s, [0.0, 0.0, math.pi / 2, math.pi / 2, 0.0, math.pi / 2])
        np.testing.assert_allclose(edges_x[[0, 2, 4, 5]], 0.0, atol=1e-12)  # 18 s is three triangle periods

    def test_particle_segments_flat_wave_segments_fringe(self):
        n1, n2 = run_dynamic_switch(REFERENCE_SWITCH, SRC, DET, seed=2, coherence=1.0)
        t, phi_s, _ = REFERENCE_SWITCH.bin_axes()
        total = n1 + n2
        keep = total > 0
        phat = n1[keep] / total[keep]
        wave = phi_s[keep] > 0
        # mirror segments: every bucket consistent with the balanced level
        z = np.abs(phat[~wave] - 0.5) / np.sqrt(0.25 / total[keep][~wave])
        assert z.max() <= 3.0
        # splitter segments: the triangle sweep traces high-contrast fringes
        for seg in (1, 3):
            m = (np.floor(t[keep] / 18.0).astype(int) == seg)
            assert phat[m].max() - phat[m].min() > 0.8

    def test_zero_coherence_kills_interference(self):
        plan = SwitchPlan(36.0, 18.0, 6.0, bin_seconds=1.0)
        counts = run_dynamic_switch(plan, SRC, DET, seed=4, coherence=0.0)
        segments = np.floor(plan.bin_axes()[0] / 18.0).astype(int)
        for seg in range(2):
            m = segments == seg
            n1, tot = counts[0, m].sum(), counts[:, m].sum()
            z = abs(n1 / tot - 0.5) / math.sqrt(0.25 / tot)
            assert z <= 3.0

    def test_validation(self):
        with pytest.raises(ContractViolation):
            SwitchPlan(0.0, 18.0, 6.0)

    @pytest.mark.parametrize("duration_s, bin_seconds, rep_rate", [
        (1.0, 0.3, 150e3),  # 3.33 bins
        (0.001, 1e-5, 150e3),  # 1.5 pulses per bin
    ])
    def test_fractional_bins_or_pulses_rejected(self, duration_s, bin_seconds, rep_rate):
        with pytest.raises(ContractViolation, match="whole number"):
            SwitchPlan(duration_s, 1.0, 0.5, bin_seconds).pulses(SourceConfig(rep_rate=rep_rate))

    @pytest.mark.parametrize("duration_s, bin_seconds, rep_rate, bins, per_bin", [
        (0.009, 0.001, 1e5, 9, 100),  # int(duration * rep_rate) would sample 899 pulses
        (0.035, 0.005, 1e4, 7, 50),  # duration / bin is 7.000000000000001, whose ceil is 8
        (2.4, 0.05, 150e3, 48, 7_500),  # duration / bin is 47.99999999999999
    ])
    def test_every_bin_holds_pulses_per_bin(self, duration_s, bin_seconds, rep_rate, bins, per_bin):
        # with dark_prob 1 every pulse clicks at both detectors, so each bin counts its pulses
        plan, source = SwitchPlan(duration_s, 0.01, 0.004, bin_seconds), SourceConfig(rep_rate=rep_rate)
        counts = run_dynamic_switch(plan, source, DetectorConfig(dark_prob=1.0), seed=1)
        t = plan.bin_axes()[0]
        assert plan.pulses(source) == (bins, per_bin)
        assert counts.shape == (2, bins) and t.size == bins
        assert np.all(counts == per_bin)
        assert t[-1] < duration_s

    def test_deterministic_for_seed(self):
        a, b = (run_dynamic_switch(SwitchPlan(10.0, 5.0, 2.0, 0.5), SRC, DET, seed=8) for _ in range(2))
        assert np.array_equal(a, b)


class TestDeviceConfig:
    def test_config_validation(self):
        with pytest.raises(ContractViolation):
            SourceConfig(mu=-1.0)
        with pytest.raises(ContractViolation):
            SourceConfig(rep_rate=math.nan)
        with pytest.raises(ContractViolation):
            DetectorConfig(efficiency=0.0)
        with pytest.raises(ContractViolation):
            DetectorConfig(dark_prob=1.5)
        with pytest.raises(ContractViolation):
            DetectorConfig(system_loss_db=math.nan)
