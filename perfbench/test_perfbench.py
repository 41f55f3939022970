"""Fast checks of the benchmark itself: seeded inputs, output checks, tracing, metric names."""
from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from perfbench import run as bench
from perfbench import tracer as tracing
from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def cli():
    return bench.load_program()


def _run_op(cli, cfg, tmp_path):
    config, out = tmp_path / "config.json", tmp_path / "out"
    config.write_text(json.dumps(cfg))
    _, code, text = bench.call_main(cli.main, cfg["scenario"], config, out)
    return code, text, out


def test_inputs_depend_only_on_seed_and_index():
    for workload in wl.build_workloads().values():
        first = workload.make_config(wl.op_rng(7, 3))
        assert first == workload.make_config(wl.op_rng(7, 3))
        assert first != workload.make_config(wl.op_rng(7, 4)) != workload.make_config(wl.op_rng(8, 3))
        text = json.dumps(first)
        for knob in ("pulse_width", "gate_width", "multiplex_delay", "workers"):
            assert knob not in text
    dense = wl.verify_ideal_dense_config(wl.op_rng(1, 0))["plan"]["phi_s_values"]
    assert len(dense) == 33 and all(0.0 <= p <= math.pi / 2 for p in dense)


def _rewrite_csv(path, edit):
    """Rewrite each data row of a CSV through ``edit(row dict) -> row dict``."""
    head, *rows = path.read_text().splitlines()
    keys = head.split(",")
    edited = [",".join(edit(dict(zip(keys, line.split(",")))).values()) for line in rows]
    path.write_text("\n".join([head, *edited]) + "\n")


def _swap_detectors(row):
    return dict(row, n1=row["n2"], n2=row["n1"])


def test_sweep_checks_pass_and_catch_shifted_counts(cli, tmp_path):
    cfg = wl.sweep_seeds_config(wl.op_rng(1, 0))
    code, _, out = _run_op(cli, cfg, tmp_path)
    assert code in (0, 2)
    expected = wl.sweep_expectation(cfg)
    outcome = wl.check_sweep_montecarlo(cfg, out, expected)
    assert outcome.problems == []
    assert outcome.cells == 864 and outcome.simulated_pulses == outcome.pulses == 864 * 120_000
    assert outcome.clicks > 0

    fringes = out / "fringes.csv"
    _rewrite_csv(fringes, lambda r: dict(r, n1=str(int(float(r["n1"]) * 1.2) + 5)) if r["block"] == "path0" else r)
    fringes.write_text("".join(fringes.read_text().splitlines(keepends=True)[:-1]))
    problems = wl.check_sweep_montecarlo(cfg, out, expected).problems
    assert any(p.startswith("block path0 phi_x half 0 D1:") for p in problems)
    assert any("fringes.csv has 863 rows" in p for p in problems)


def test_sweep_checks_catch_lost_or_flipped_fringe(cli, tmp_path):
    cfg = wl.sweep_seeds_config(wl.op_rng(1, 0))
    expected = wl.sweep_expectation(cfg)
    incoherent = json.loads(json.dumps(cfg))
    incoherent["plan"]["coherence"] = 0.0
    _, _, out = _run_op(cli, incoherent, tmp_path)
    problems = wl.check_sweep_montecarlo(cfg, out, expected).problems
    assert problems and all(p.startswith("block none ") for p in problems)

    _, _, out = _run_op(cli, cfg, tmp_path)
    _rewrite_csv(out / "fringes.csv", lambda r: _swap_detectors(r) if r["block"] == "none" else r)
    problems = wl.check_sweep_montecarlo(cfg, out, expected).problems
    assert problems and all(p.startswith("block none ") for p in problems)


def test_ideal_checks_catch_unsaturated_bound(cli, tmp_path):
    cfg = wl.verify_ideal_dense_config(wl.op_rng(1, 0))
    code, text, out = _run_op(cli, cfg, tmp_path)
    assert code == 0
    assert text.count("phi_s=") == 33
    assert wl.check_verify_ideal(cfg, out).problems == []

    duality = out / "duality.csv"
    header, first, *rest = duality.read_text().splitlines()
    cells = first.split(",")
    cells[header.split(",").index("wpdr")] = "0.99"
    duality.write_text("\n".join([header, ",".join(cells), *rest]) + "\n")
    assert any("wpdr=0.99" in p for p in wl.check_verify_ideal(cfg, out).problems)


def test_switch_checks_pass_and_catch_flipped_or_misbinned_clicks(cli, tmp_path):
    cfg = wl.switch_ref_config(wl.op_rng(1, 0))
    cfg["switch"] = {"duration_s": 2.4, "toggle_period_s": 0.6, "triangle_period_s": 0.4, "bin_seconds": 0.05}
    cfg["source"]["mu"] = 20.0  # enough clicks in 2.4 s for the sigma test to bite
    code, _, out = _run_op(cli, cfg, tmp_path)
    assert code == 0
    expected = wl.switch_expectation(cfg)  # 360k pulses: crosses a SWITCH_CHUNK boundary
    outcome = wl.check_switch(cfg, out, expected)
    assert outcome.problems == []
    assert outcome.cells == 48 and outcome.simulated_pulses == outcome.pulses == 360_000

    series = out / "timeseries.csv"
    original = series.read_text()
    _rewrite_csv(series, lambda r: _swap_detectors(r) if float(r["phi_s"]) > 0.0 else r)
    problems = wl.check_switch(cfg, out, expected).problems
    assert problems and all(p.startswith("phi_s=pi/2 ") for p in problems)

    head, *rows = original.splitlines()
    counts = [row.split(",")[3:] for row in rows]
    shifted = [",".join(row.split(",")[:3] + counts[i - 1]) for i, row in enumerate(rows)]
    series.write_text("\n".join([head, *shifted]) + "\n")
    assert wl.check_switch(cfg, out, expected).problems


def test_session_counts_exit_2_as_violation_and_errors_as_failures(cli, tmp_path):
    workload = wl.build_workloads()["verify_ideal_dense"]

    def exits_2(argv):
        cli.main(argv)
        return 2

    def exits_1(argv):
        return 1

    def raises(argv):
        raise RuntimeError("boom")

    session = bench.Session(workload, 3, tmp_path, exits_2)
    session.warm_up()
    session.run(0)
    assert session.stats["violation_ops"] == 1 and session.stats["failed"] == 0

    for main in (exits_1, raises):
        session = bench.Session(workload, 3, tmp_path, main)
        session.run(1)
        assert session.stats["failed"] == 1 and session.stats["attempted"] == 1


def test_rerun_of_first_operation_must_match_bytes(cli, tmp_path):
    workload = wl.build_workloads()["verify_ideal_dense"]
    session = bench.Session(workload, 3, tmp_path, cli.main)
    session.warm_up()
    session.reference["duality.csv"] = b"stale"
    session.run(0)
    assert session.stats["failed"] == 1
    assert "duality.csv differs" in session.problems[0]


def test_tracer_self_time_nesting_and_absent_sites(cli, monkeypatch):
    import dualitysim.montecarlo as mc

    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: None)

    def outer_fn():
        inner()
        inner()

    outer = tracer.wrap("outer", outer_fn)
    outer()
    outer()
    totals = tracer.totals()
    assert totals["outer"][0] == 2 and totals["inner"][0] == 4
    assert totals["outer"][2] == totals["outer"][1] - totals["inner"][1]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, -1, 3, 3]

    original = mc.cell_rng
    sites = tracing.CALL_SITES + (("montecarlo.gone", "dualitysim.montecarlo", "no_such_function"),)
    monkeypatch.setattr(tracing, "CALL_SITES", sites)
    with tracer.installed():
        assert mc.cell_rng is not original
    assert mc.cell_rng is original
    assert tracer.absent == ["dualitysim.montecarlo.no_such_function"]


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(wl.build_workloads())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
