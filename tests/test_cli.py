import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from dualitysim import (
    ConfigError,
    ContractViolation,
    SourceConfig,
    duality_report,
    run_sweep,
)
from dualitysim.cli import (
    DEFAULT_PHI_S,
    DEFAULT_SEED,
    DUALITY_HEADER,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_VIOLATION,
    SCENARIOS,
    ExperimentConfig,
    config_from_dict,
    config_hash,
    load_config,
    main,
    parse_angle,
    run,
    _column,
    _duality_columns,
    _write_csv,
)
from dualitysim.entropy import duality_columns

REPO = Path(__file__).resolve().parents[1]
REFERENCE_CONFIG = REPO / "configs" / "reference_sweep.json"


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


class TestParseAngle:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", math.pi),
            ("pi/4", math.pi / 4),
            ("3pi/16", 3 * math.pi / 16),
            ("2pi", 2 * math.pi),
            ("-pi/2", -math.pi / 2),
            ("3*pi/2", 3 * math.pi / 2),
            ("0", 0.0),
            ("1.25", 1.25),
            (0.5, 0.5),
            (2, 2.0),
        ],
    )
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, rel=1e-15)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_angle("two pi")


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, {"scenario": "sweep"}))
        assert cfg.source.mu == 0.2
        assert cfg.detector.efficiency == 0.10
        assert cfg.detector.system_loss_db == 12.0
        assert cfg.plan.pulses_per_point == 120_000
        assert cfg.plan.seed == DEFAULT_SEED
        assert cfg.plan.phi_s_values == DEFAULT_PHI_S
        assert len(cfg.plan.phi_s_values) == 9
        assert cfg.plan.phi_s_values[0] == 0.0
        assert cfg.plan.phi_s_values[-1] == pytest.approx(math.pi / 2)
        # evenly spaced over [0, pi/2]
        diffs = np.diff(cfg.plan.phi_s_values)
        assert np.allclose(diffs, math.pi / 16, atol=1e-12)

    def test_negative_mu_rejected_with_field(self, tmp_path):
        with pytest.raises(ConfigError, match="source"):
            load_config(write_config(tmp_path, {"scenario": "sweep", "source": {"mu": -1}}))

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="scenario"):
            load_config(write_config(tmp_path, {"scenario": "warp"}))

    def test_unknown_field_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"^config: unknown fields \['extra'\]$"):
            load_config(write_config(tmp_path, {"scenario": "sweep", "extra": 1}))

    def test_every_field_named_gives_the_default_config(self):
        # the dataclasses' own fields are exactly the names a config may hold, at every level
        default = config_from_dict({})
        raw = {f.name: getattr(default, f.name) for f in fields(ExperimentConfig)}
        for name, section in raw.items():
            if is_dataclass(section):
                raw[name] = {f.name: getattr(section, f.name) for f in fields(section)}
        assert all(isinstance(raw[name], dict) for name in ("plan", "source", "detector", "switch"))
        assert config_from_dict(raw) == default

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"scenario": "sweep",}')
        with pytest.raises(ConfigError, match="line"):
            load_config(path)

    def test_pi_literals_in_plan(self, tmp_path):
        payload = {"scenario": "sweep", "plan": {"phi_s_values": ["0", "pi/4", "pi/2"]}}
        cfg = load_config(write_config(tmp_path, payload))
        assert cfg.plan.phi_s_values == pytest.approx((0.0, math.pi / 4, math.pi / 2))

    def test_sweep_requires_all_blocks(self, tmp_path):
        payload = {"scenario": "sweep", "plan": {"blocks": ["none"]}}
        with pytest.raises(ConfigError, match="blocks"):
            load_config(write_config(tmp_path, payload))

    def test_switch_rejects_ideal_mode(self, tmp_path):
        payload = {"scenario": "switch", "mode": "ideal"}
        with pytest.raises(ConfigError, match="switch"):
            load_config(write_config(tmp_path, payload))

    def test_round_trip(self, tmp_path):
        cfg = load_config(REFERENCE_CONFIG)
        again = config_from_dict(asdict(cfg))
        assert again == cfg
        # and through an actual file
        path = write_config(tmp_path, asdict(cfg))
        assert load_config(path) == cfg

    def test_round_trip_other_scenarios(self, tmp_path):
        for payload in (
            {"scenario": "switch", "switch": {"duration_s": 7.5, "bin_seconds": 0.25}},
            {"scenario": "eur-verify", "mode": "ideal", "plan": {"pulses_per_point": 777}},
        ):
            cfg = load_config(write_config(tmp_path, payload))
            assert config_from_dict(asdict(cfg)) == cfg

    def test_config_hash_stable(self):
        cfg = load_config(REFERENCE_CONFIG)
        assert config_hash(cfg) == config_hash(config_from_dict(asdict(cfg)))
        assert len(config_hash(cfg)) == 64


class TestRunArtifacts:
    def test_ideal_sweep_writes_everything(self, tmp_path):
        cfg = config_from_dict(
            {
                "scenario": "sweep",
                "mode": "ideal",
                "output_dir": str(tmp_path / "out"),
                "plan": {"phi_s_values": ["0", "pi/4", "pi/2"], "pulses_per_point": 10_000},
            }
        )
        assert run(cfg) == EXIT_OK
        out = tmp_path / "out"
        fringes = (out / "fringes.csv").read_text().splitlines()
        assert fringes[0] == "phi_s,phi_x,block,n1,n2,pulses"
        assert len(fringes) == 1 + 3 * 3 * 32
        duality = (out / "duality.csv").read_text().splitlines()
        assert duality[0] == DUALITY_HEADER
        assert len(duality) == 4
        for line in duality[1:]:
            cells = dict(zip(DUALITY_HEADER.split(","), line.split(",")))
            assert abs(float(cells["eur_formula"]) - 1.0) <= 1e-9
            assert abs(float(cells["wpdr"]) - 1.0) <= 1e-9
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == DEFAULT_SEED
        assert report["violations"] == []
        assert len(report["points"]) == 3
        assert report["config_sha256"] == config_hash(cfg)
        route_fields = {"v", "d", "h_min_z", "h_max_w", "eur_sum", "wpdr_value", "eur_satisfied", "wpdr_satisfied",
                        "h_min_sigma", "h_max_sigma", "eur_sigma", "wpdr_sigma", "clamped_v", "clamped_d",
                        "dropped_points"}
        for point in report["points"]:
            assert set(point) == {"phi_s", "V", "V_sigma", "D", "D_sigma", "formula", "definition", "equivalence"}
            assert set(point["formula"]) == set(point["definition"]) == route_fields
            assert set(point["equivalence"]) == {"d_h_min", "d_h_max", "d_eur", "within_h_min", "within_h_max",
                                                 "within_eur", "k"}

    def test_switch_writes_timeseries(self, tmp_path):
        cfg = config_from_dict(
            {
                "scenario": "switch",
                "output_dir": str(tmp_path / "out"),
                "switch": {"duration_s": 4.0, "toggle_period_s": 1.0, "triangle_period_s": 0.5, "bin_seconds": 0.5},
            }
        )
        assert run(cfg) == EXIT_OK
        lines = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "t,phi_s,phi_x,n1,n2"
        assert len(lines) == 1 + 8

    def test_montecarlo_reference_run(self, tmp_path):
        cfg = load_config(REFERENCE_CONFIG)
        cfg = config_from_dict({**asdict(cfg), "output_dir": str(tmp_path / "ref")})
        assert run(cfg) == EXIT_OK
        report = json.loads((tmp_path / "ref" / "report.json").read_text())
        assert report["coherence"] == 0.967
        top = report["points"][-1]
        assert abs(top["V"] - 0.967) < 0.1

    def test_io_failure_exit_code(self, tmp_path):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        cfg = config_from_dict(
            {"scenario": "sweep", "mode": "ideal", "output_dir": str(blocker / "sub")}
        )
        assert run(cfg) == EXIT_IO

    @staticmethod
    def _unphysical(card, forced):
        """``card`` with the rows in ``forced`` (row -> (v, d)) put outside both bounds: V = v and D = d, zero sigma.

        Only the formula route takes the forced values, so a violation that reports the definition route's sums fails.
        """
        card = {name: {k: c.copy() for k, c in col.items()} if isinstance(col, dict) else col.copy()
                for name, col in card.items()}
        for i, (v, d) in forced.items():
            card["V"][i], card["D"][i], card["V_sigma"][i], card["D_sigma"][i] = v, d, 0.0, 0.0
            for name, value in duality_columns(v, d).items():
                card["formula"][name][i] = value
        return card

    def test_violation_exit_code(self, tmp_path, monkeypatch):
        import dualitysim.cli as cli_mod

        real = cli_mod.duality_report

        # force an unphysical scorecard (V = D = 1) through the pipeline
        def fake_report(plan, counts):
            return self._unphysical(real(plan, counts), {0: (1.0, 1.0)})

        monkeypatch.setattr(cli_mod, "duality_report", fake_report)
        cfg = config_from_dict(
            {
                "scenario": "sweep",
                "mode": "ideal",
                "output_dir": str(tmp_path / "out"),
                "plan": {"phi_s_values": ["pi/4"]},
            }
        )
        assert run(cfg) == EXIT_VIOLATION

    @pytest.mark.parametrize("forced", [{1: (1.0, 1.0)}, {0: (1.0, 0.8), 2: (1.0, 1.0)}])
    def test_violations_listed_in_plan_order(self, tmp_path, monkeypatch, forced):
        import dualitysim.cli as cli_mod

        real = cli_mod.duality_report

        # the real scorecard, with the settings in ``forced`` replaced by unphysical ones
        def fake_report(plan, counts):
            return self._unphysical(real(plan, counts), forced)

        monkeypatch.setattr(cli_mod, "duality_report", fake_report)
        phi_s = [0.0, math.pi / 4, math.pi / 2]
        cfg = config_from_dict({"scenario": "sweep", "mode": "ideal", "output_dir": str(tmp_path / "out"),
                                "plan": {"phi_s_values": phi_s}})
        assert run(cfg) == EXIT_VIOLATION
        expected = []
        for i in sorted(forced):
            q = duality_columns(*forced[i])
            for bound, value in (("eur", "eur_sum"), ("wpdr", "wpdr_value")):
                expected.append({"phi_s": phi_s[i], "bound": bound, "relaxed_value": float(q[value]),
                                 "observed": float(q[value])})
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["violations"] == expected

    def test_repeated_phi_s_scores_each_repeat_on_its_own_scans(self, tmp_path):
        cfg = config_from_dict({"scenario": "sweep", "output_dir": str(tmp_path / "out"),
                                "plan": {"phi_s_values": [0.5, 0.5], "pulses_per_point": 4000, "seed": 1}})
        assert run(cfg) == EXIT_OK
        rows = (tmp_path / "out" / "duality.csv").read_text().splitlines()[1:]
        counts = run_sweep(cfg.plan, cfg.source, cfg.detector, mode=cfg.mode)
        one = replace(cfg.plan, phi_s_values=(0.5,))
        want = [",".join(row) for i in (0, 1) for row in zip(*_duality_columns(duality_report(one, counts[i:i + 1])))]
        assert rows == want and rows[0] != rows[1]


def _per_value_fmt(x) -> str:
    """The per-value CSV formatter that _column replaced, kept as its reference."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    f = float(x)
    return str(int(f)) if f.is_integer() else repr(f)


class TestCsvWriter:
    VALUES = [0.0, -0.0, 1.0, -2.5, 0.1, 1 / 3, 2.0**53, 2.0**60, 1e300, 5e-324, math.nan, math.inf, -math.inf]

    def test_column_matches_per_value_formatter(self):
        assert _column(self.VALUES) == [_per_value_fmt(v) for v in self.VALUES]
        assert _column(np.array(self.VALUES)) == [_per_value_fmt(v) for v in self.VALUES]

    # Specials, subnormals and any float; drawn from a small pool per array, so values repeat.
    FLOATS = st.sampled_from([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -2.2e-308, 1e-310]) | st.floats()

    @settings(max_examples=300, deadline=None, derandomize=True)  # the same examples on every run
    @given(data=st.data())
    def test_any_array_matches_per_value_formatter_in_c_order(self, data):
        pool = data.draw(st.lists(self.FLOATS, min_size=1, max_size=6))
        shape = data.draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5))
        arr = data.draw(hnp.arrays(np.float64, shape, elements=st.sampled_from(pool)))
        for values in (arr, arr.T):  # a transposed view is read in its own C order too
            assert _column(values) == [_per_value_fmt(v) for v in np.ravel(values).tolist()]

    def test_zero_rows_write_only_the_header(self, tmp_path):
        for blocks in ([], [[[], []]]):
            _write_csv(tmp_path / "empty.csv", "a,b", blocks)
            assert (tmp_path / "empty.csv").read_bytes() == b"a,b\n"


class TestMain:
    def test_minimal_subcommand(self, tmp_path):
        code = main(
            ["sweep", "--mode", "ideal", "--out", str(tmp_path / "o"), "--phi-s", "0,pi/4,pi/2"]
        )
        assert code == EXIT_OK
        assert (tmp_path / "o" / "duality.csv").exists()

    def test_seed_override_changes_counts(self, tmp_path):
        base = {
            "scenario": "sweep",
            "plan": {"phi_s_values": ["pi/2"], "pulses_per_point": 50_000},
        }
        cfg_path = write_config(tmp_path, base)
        assert main(["sweep", "--config", str(cfg_path), "--seed", "1", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["sweep", "--config", str(cfg_path), "--seed", "9", "--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "fringes.csv").read_text() != (tmp_path / "b" / "fringes.csv").read_text()

    def test_bad_config_exit(self, tmp_path):
        cfg_path = write_config(tmp_path, {"scenario": "sweep", "source": {"mu": -3}})
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_scenario_mismatch_rejected(self, tmp_path):
        cfg_path = write_config(tmp_path, {"scenario": "sweep"})
        assert main(["switch", "--config", str(cfg_path)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["sweep", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [["sweep", "--bogus"], ["sweep", "--seed", "abc"], []])
    def test_usage_errors_exit_1_with_one_line(self, argv, capsys):
        # argparse's own exit code 2 is the violation code here
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_unknown_plan_field_exits_1_naming_plan(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, {"plan": {"bogus": 1}})
        assert main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: plan: unknown fields ['bogus']\n"

    def test_unwritable_artifact_exits_3_with_one_line(self, tmp_path, capsys):
        (tmp_path / "o" / "fringes.csv").mkdir(parents=True)  # the output dir exists; an artifact cannot be opened
        assert main(["sweep", "--mode", "ideal", "--out", str(tmp_path / "o"), "--phi-s", "pi/2"]) == EXIT_IO
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: I/O failure: ")

    def test_eur_verify_prints_lines(self, tmp_path, capsys):
        code = main(
            ["eur-verify", "--mode", "ideal", "--out", str(tmp_path / "v"), "--phi-s", "0,pi/2"]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("eur_formula=") == 2
        assert "OK" in out


UNUSABLE_INPUTS = {
    "phi_s_nan": ("sweep", {"plan": {"phi_s_values": ["nan"]}}),
    "phi_s_inf": ("sweep", {"plan": {"phi_s_values": ["0", "inf"]}}),
    "phi_s_string": ("sweep", {"plan": {"phi_s_values": "pi/4"}}),
    "steps_not_a_number": ("sweep", {"plan": {"phi_x_grid": [0, "2pi", "abc"]}}),
    "steps_fractional": ("sweep", {"plan": {"phi_x_grid": [0, "2pi", 32.5]}}),
    "seed_fractional": ("sweep", {"plan": {"seed": 1.5}}),
    "pulses_fractional": ("sweep", {"plan": {"pulses_per_point": 1.5}}),
    "pulses_beyond_int64": ("sweep", {"plan": {"pulses_per_point": 2**64}}),
    "blocks_string": ("sweep", {"plan": {"blocks": "none"}}),
    "too_few_steps": ("sweep", {"plan": {"phi_x_grid": [0, "2pi", 4]}}),
    "less_than_a_period": ("eur-verify", {"mode": "ideal", "plan": {"phi_x_grid": [0, "pi", 32]}}),
    # Nominally 2pi - 1e-9 wide, or 2pi at an offset of 1e12: the realized grids fall short of one period.
    "phi_x_grid_just_short_of_a_period": ("sweep", {"plan": {"phi_x_grid": [0, 6.283185306179586, 89]}}),
    "phi_x_grid_short_at_offset_1e12": ("sweep", {"plan": {"phi_x_grid": [1e12, 1000000000006.2832, 100]}}),
    "zero_pulses_sweep": ("sweep", {"plan": {"pulses_per_point": 0}}),
    "zero_pulses_verify": ("eur-verify", {"mode": "ideal", "plan": {"pulses_per_point": 0}}),
    "rep_rate_nan": ("switch", {"source": {"rep_rate": math.nan}}),
    "duration_inf": ("switch", {"switch": {"duration_s": math.inf}}),
    "removed_field_pulse_width": ("sweep", {"source": {"mu": 0.2, "pulse_width": 4e-08}}),
    "removed_field_gate_width": ("sweep", {"detector": {"gate_width": 3e-09}}),
    "no_counts_to_estimate": ("sweep", {"plan": {"pulses_per_point": 10}, "source": {"mu": 1e-9}}),
    "zero_counts_at_grid_edges": (
        "sweep", {"plan": {"phi_s_values": ["0"], "pulses_per_point": 200, "seed": 4}, "source": {"mu": 0.05}},
    ),
    "steps_beyond_cap": ("sweep", {"plan": {"phi_x_grid": [0, "2pi", 10**14]}}),
    "switch_bins_beyond_cap": ("switch", {"switch": {"duration_s": 1e6, "bin_seconds": 1e-9}}),
    "plan_string": ("sweep", {"plan": "abc"}),
    "plan_list": ("sweep", {"plan": [1, 2]}),
    "source_list": ("sweep", {"source": [1]}),
    "angle_over_zero": ("sweep", {"plan": {"phi_s_values": ["pi/0"]}}),
    "angle_bare_point": ("sweep", {"plan": {"phi_s_values": [".pi"]}}),
    "mu_beyond_float": ("sweep", {"source": {"mu": 10**400}}),
    "coherence_bool": ("sweep", {"plan": {"coherence": True}}),
    "mu_bool": ("sweep", {"source": {"mu": True}}),
    "efficiency_bool": ("sweep", {"detector": {"efficiency": True}}),
    "duration_bool": ("switch", {"switch": {"duration_s": True}}),
    "phi_s_bool": ("sweep", {"plan": {"phi_s_values": [True]}}),
    "switch_pulses_beyond_cap": ("switch", {"switch": {"duration_s": 1e6, "bin_seconds": 1.0}}),
    "rep_rate_beyond_pulse_cap": ("switch", {"source": {"rep_rate": 1e15}}),
    "switch_bin_beyond_duration": ("switch", {"switch": {"duration_s": 1, "bin_seconds": 5}}),
    "switch_partial_last_bin": ("switch", {"switch": {"duration_s": 1.0, "bin_seconds": 0.3}}),
    "switch_zero_pulses": ("switch", {"switch": {"duration_s": 1e-9}}),
    "switch_bin_under_one_pulse": ("switch", {"switch": {"duration_s": 1e-6, "bin_seconds": 1e-6}}),
    "switch_fractional_pulses_per_bin": ("switch", {"switch": {"duration_s": 0.001, "bin_seconds": 1e-5}}),
    "phi_x_grid_repeats_floats": ("sweep", {"plan": {"phi_x_grid": [1e20, 1.0000000000000002e20, 32]}}),
    "phi_x_grid_overflows": ("sweep", {"plan": {"phi_x_grid": [-1e308, 1e308, 32]}}),
    # A period under one pulse interval, 1 / rep_rate (rep_rate 1.5e5), would overflow the segment index.
    **{f"switch_{name}_{label}": ("switch", {"switch": {name: period}})
       for name in ("toggle_period_s", "triangle_period_s")
       for label, period in (("1e-300", 1e-300), ("half_a_pulse", 0.5 / 150e3))},
    "sweep_cells_beyond_cap": ("sweep", {"plan": {"phi_s_values": [0.1] * 33, "phi_x_grid": [0, "2pi", 2**16]}}),
    # 2^63 - 1 pulses count 2^63 once stored as float64 counts: at p1 = 1, and with every gate a dark count.
    "pulses_rounding_to_2_to_the_63_ideal": (
        "eur-verify", {"mode": "ideal", "plan": {"phi_s_values": ["pi/2"], "pulses_per_point": 2**63 - 1}},
    ),
    # 2^53 + 1 pulses, every gate a dark count: float64 counts round to 2^53.
    "pulses_beyond_2_to_the_53": (
        "sweep", {"plan": {"phi_x_grid": [0, "2pi", 8], "pulses_per_point": 2**53 + 1}, "detector": {"dark_prob": 1}},
    ),
    "pulses_rounding_to_2_to_the_63_dark": (
        "sweep", {"plan": {"phi_x_grid": [0, "2pi", 8], "pulses_per_point": 2**63 - 1}, "detector": {"dark_prob": 1}},
    ),
}


@pytest.mark.parametrize("name", sorted(UNUSABLE_INPUTS))
def test_unusable_inputs_exit_1_with_one_line(name, tmp_path, capsys):
    scenario, payload = UNUSABLE_INPUTS[name]
    cfg_path = write_config(tmp_path, {"scenario": scenario, **payload})
    code = main([scenario, "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_cli_import_leaves_slow_stdlib_modules_unloaded():
    # concurrent.futures and logging alone cost about 9-10 ms of a fresh interpreter's start-up
    unwanted = ("concurrent.futures", "logging", "multiprocessing", "asyncio")
    code = f"import sys, dualitysim.cli; print(*[m for m in {unwanted!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "\n"


def test_switch_period_of_one_pulse_runs(tmp_path, capsys):
    one_pulse = 1.0 / SourceConfig().rep_rate  # the shortest period SwitchPlan.pulses accepts
    for name in ("toggle_period_s", "triangle_period_s"):
        payload = {"scenario": "switch", "switch": {"duration_s": 0.4, "bin_seconds": 0.2, name: one_pulse}}
        out = tmp_path / name
        assert main(["switch", "--config", str(write_config(tmp_path, payload)), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert len((out / "timeseries.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize("grid", [[-368957161.5728853, -368957155.2897, 18], [134400008.8750875, 134400015.1582728, 141]])
def test_grid_short_of_a_period_only_as_written_runs(grid, tmp_path, capsys):
    # stop - start is under 2pi - 1e-9, but the realized phi_x floats cover one period, which is what V needs
    assert grid[1] - grid[0] < 2.0 * math.pi - 1e-9
    cfg_path = write_config(tmp_path, {"scenario": "sweep", "plan": {"phi_x_grid": grid}})
    assert main(["sweep", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_output_dir_must_be_a_path_string():
    with pytest.raises(ConfigError, match="output_dir"):
        config_from_dict({"output_dir": 5})


# Any JSON value: scalars (with pi-fraction angle strings among the texts) and nested lists and objects.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6) | st.sampled_from(["pi/4", "2pi", "-pi", "pi/0", ".pi", "sweep", "ideal", "none"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
CONFIG_FIELDS = [
    (), ("scenario",), ("mode",), ("output_dir",), ("plan",), ("source",), ("detector",), ("switch",),
    *[("plan", k) for k in ("phi_s_values", "phi_x_grid", "blocks", "pulses_per_point", "coherence", "seed")],
    ("source", "mu"), ("source", "rep_rate"),
    ("detector", "efficiency"), ("detector", "system_loss_db"), ("detector", "dark_prob"),
    *[("switch", k) for k in ("duration_s", "toggle_period_s", "triangle_period_s", "bin_seconds")],
]


@st.composite
def json_configs(draw):
    """A valid small config with up to three fields (or whole sections, or all of it) replaced by any JSON value."""
    raw = {"scenario": "sweep", "plan": {"phi_s_values": [0.5], "pulses_per_point": 1000}}
    for path, value in draw(st.lists(st.tuples(st.sampled_from(CONFIG_FIELDS), JSON_VALUES), min_size=1, max_size=3)):
        if not path:
            raw = value
            continue
        if not isinstance(raw, dict):
            raw = {}
        if len(path) == 2 and not isinstance(raw.get(path[0]), dict):
            raw[path[0]] = {}
        target = raw if len(path) == 1 else raw[path[0]]
        target[path[-1]] = value
    return raw


@settings(max_examples=300, deadline=None, derandomize=True)  # the same examples on every run
@given(raw=json_configs())
def test_any_json_config_is_built_or_exits_1_with_one_line(raw, tmp_path_factory):
    try:
        cfg = config_from_dict(raw)
    except (ConfigError, ContractViolation):
        cfg = None
    if cfg is not None:
        assert isinstance(cfg, ExperimentConfig)
        return
    cfg_path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    scenario = raw.get("scenario") if isinstance(raw, dict) else None
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([scenario if scenario in SCENARIOS else "sweep", "--config", str(cfg_path)])
    assert code == EXIT_CONFIG
    assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


# A valid small config of each scenario, the base of the one-byte mutations below.
VALID_CONFIG_FILES = {
    "sweep": {"scenario": "sweep", "plan": {"phi_s_values": [0.5], "pulses_per_point": 1000}},
    "eur-verify": {"scenario": "eur-verify", "mode": "ideal", "plan": {"phi_s_values": ["0", "pi/2"]}},
    "switch": {"scenario": "switch", "switch": {"duration_s": 1.0, "toggle_period_s": 0.5, "bin_seconds": 0.1}},
}


@st.composite
def config_files(draw):
    """A scenario and config-file bytes: any bytes, or a valid config of that scenario with one byte changed."""
    scenario = draw(st.sampled_from(SCENARIOS))
    valid = json.dumps(VALID_CONFIG_FILES[scenario]).encode()
    digits = [i for i, byte in enumerate(valid) if chr(byte).isdigit()]
    # any byte anywhere, or a digit over a digit, which often keeps the config valid
    i, byte = draw(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255))
                   | st.tuples(st.sampled_from(digits), st.sampled_from(b"0123456789")))
    mutated = valid[:i] + bytes([byte]) + valid[i + 1:]
    return scenario, draw(st.just(mutated) | st.binary(max_size=32))


@settings(max_examples=150, deadline=None, derandomize=True)  # the same examples on every run
@given(case=config_files())
def test_any_config_file_bytes_exit_0_1_or_2_with_one_error_line(case, tmp_path_factory):
    scenario, data = case
    tmp = tmp_path_factory.mktemp("bytes")
    (tmp / "cfg.json").write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([scenario, "--config", str(tmp / "cfg.json"), "--out", str(tmp / "out")])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_VIOLATION)
    if code == EXIT_CONFIG:
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")


@pytest.mark.parametrize("seed", range(20))
def test_random_ideal_eur_verify_saturates_and_repeats(seed, tmp_path):
    # 33 sorted phi_s uniform in [0, pi/2] on a 32-step grid: noiseless counts
    # at coherence 1 sit on both bounds, and a second run in the same process
    # writes the same CSV bytes
    phi_s = sorted(np.random.default_rng(seed).uniform(0.0, math.pi / 2, 33).tolist())
    cfg_path = write_config(tmp_path, {"scenario": "eur-verify", "mode": "ideal", "plan": {
        "phi_s_values": phi_s, "phi_x_grid": [0.0, 2.0 * math.pi, 32], "pulses_per_point": 120_000,
        "coherence": 1.0}})
    runs = [tmp_path / "a", tmp_path / "b"]
    for out in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["eur-verify", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    rows = list(csv.DictReader(io.StringIO((runs[0] / "duality.csv").read_text())))
    assert len(rows) == len(phi_s)
    for row in rows:
        for column in ("eur_formula", "eur_defn", "wpdr"):
            assert abs(float(row[column]) - 1.0) <= 1e-9, (row["phi_s"], column, row[column])
    first, second = (sorted(out.glob("*.csv")) for out in runs)
    assert [p.name for p in first] == [p.name for p in second] and first
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes(), a.name
