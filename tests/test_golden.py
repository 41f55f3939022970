"""Stored SHA-256 digests of the artifacts of the reference runs.

Run-to-run comparisons (acceptance criterion 8) cannot see a change that
alters every run the same way, such as a new order of RNG draws.  These
digests can: any change to the bytes of a reference artifact fails here, and
re-pinning them is a deliberate, recorded act.  The reference seed, 2, fills
only the first of a 64-bit seed's two 32-bit words, so the reference sweep's
fringes are pinned at seeds 0, 2^32 (second word only) and 2^64 - 1 (both
words full) too.

duality.csv does not carry every reported quantity (the WPDR sigma, the bound
and clamp flags, the dropped points, the route equivalence and the
violations), so report.json is pinned too: the digest covers its
``REPORT_KEYS``, and leaves out the provenance, whose ``config.output_dir``
and ``config_sha256`` change with ``--out``.  The switch's report.json holds no
points: its run size, ``bins`` and ``pulses_per_bin``, is pinned as literals.

The low-count sweep (4000 pulses per point, coherence 0) reaches the
scorecard's edge branches, which the reference runs do not: 14 zero-count
points dropped, and V = 1 with its slope-0 sigma at phi_s = 0 and pi/2.

The reference sweep at seed 6 exits 2: at phi_s = 0 its estimates cross both
bounds beyond tolerance, so its report pins the violations list and the exit
code and stderr line that go with it.  eur-verify prints one line per phi_s,
which is pinned for the ideal run and for the default Monte Carlo run, whose
raw estimates cross a bound at six settings (CHECK) but whose 3-sigma relaxed
ones do not, so it exits 0.
"""
import hashlib
import json
from pathlib import Path

import pytest

from dualitysim import cli
from dualitysim.cli import EXIT_OK, EXIT_VIOLATION, main

REPO = Path(__file__).resolve().parents[1]

GOLDENS = {
    "reference_sweep": (
        ["sweep", "--config", str(REPO / "configs" / "reference_sweep.json")],
        {
            "fringes.csv": "f4b4d6990b6f8ddf4b54123a1437d06c1dbfda95e3c090660ef6cd890f810591",
            "duality.csv": "76cf9f404ce733d50919ffafd305e41072f1d3dc342c8c0511b34f033d6416fa",
        },
    ),
    **{
        f"reference_sweep_seed_{seed}": (
            ["sweep", "--config", str(REPO / "configs" / "reference_sweep.json"), "--seed", str(seed)],
            {"fringes.csv": digest},
        )
        for seed, digest in (
            (0, "fd019951ccd5ed24443721e4d4adf05ba29de0d3b1aed33af0ac1cff986f885a"),
            (2**32, "4bd6b1afbdc7d0a7565e0adedae8e9d56152dc30d1dff268ee32da35a346825d"),
            (2**64 - 1, "e1997b32707db55c0d57213c2e0bed35aee679dd0201604c5e36877e682a8040"),
        )
    },
    "reference_sweep_seed_6": (
        ["sweep", "--config", str(REPO / "configs" / "reference_sweep.json"), "--seed", "6"],
        {
            "fringes.csv": "dc4e3bf369d74c5898efee44d1581626834d4ef9f240fd9079363744c3a9e481",
            "duality.csv": "193e76ca20de7111795e5037d4964cf7e31413d99d55d5b7b6c99230acea0458",
        },
    ),
    "low_count_sweep": (
        ["sweep", "--config", str(REPO / "configs" / "low_count_sweep.json")],
        {
            "fringes.csv": "0591d9972bd1f5e76e6a9789f42c8154ae18ebc10e7a3591ec5694d77816ba73",
            "duality.csv": "458a5895560287a79e4a3bb86371634dc02d3c60bd137e55d99a21bb8f54d263",
        },
    ),
    "reference_switch": (
        ["switch", "--config", str(REPO / "configs" / "reference_switch.json")],
        {
            "timeseries.csv": "e0b218460ef0bb2ef43949526020de5ca17d195f41cca858407047c88c0631d4",
        },
    ),
    "verify_ideal": (
        ["eur-verify", "--mode", "ideal", "--phi-s", "0,pi/8,pi/4,3pi/8,pi/2"],
        {
            "fringes.csv": "3528f41533bbc00ac00c9903589f62b746651b9b819d522882c8c9797e1ab9c1",
            "duality.csv": "030d4b16f2ebc67162a4baac123b15b78aee6ba53562445c6489186402f94ffa",
        },
    ),
}

# The default eur-verify run has the reference sweep's plan, so it writes the reference sweep's artifacts.
GOLDENS["verify_default"] = (["eur-verify"], GOLDENS["reference_sweep"][1])

# The exit code and stderr of the runs that do not exit EXIT_OK silently.
EXITS = {
    "reference_sweep_seed_6": (EXIT_VIOLATION, "error: 2 physically generated point(s) violate the bounds\n"),
}

STDOUT_DIGESTS = {
    "verify_default": "f8c34b4204bded1f943050466dd8d0b218b683091e787e448ae5e781a397b288",
    "verify_ideal": "835f258a35f4a0bc2bb47fd3ca5a219ea294ffd6e405529df4c57d7ca91a6177",
}

REPORT_KEYS = ("points", "violations", "dropped_points")

REPORT_DIGESTS = {
    "low_count_sweep": "44bb102c94671142e771906e1032a3a95e6d792f67be3823ecae47271c087bbb",
    "reference_sweep": "ffc3b60441b65451d665de2d40fb713197bb1ee4192b11a1e6416960393058f0",
    "reference_sweep_seed_6": "4c09adf082d47dc443c9e817b39887e74e1a0e6e7428c7b9b5e045870dc57d69",
    "verify_ideal": "ff63e2fd27e3a2b24f64b0c705bab9c57b12616a644488b697a0bb025176857d",
}

SWITCH_REPORTS = {
    "reference_switch": {"bins": 120, "pulses_per_bin": 90_000},
}


def run_golden(name, out, capsys) -> str:
    """Run golden ``name`` into ``out``, check its exit code and stderr, and return its stdout."""
    argv, _ = GOLDENS[name]
    code, stderr = EXITS.get(name, (EXIT_OK, ""))
    assert main(argv + ["--out", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err == stderr
    return captured.out


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_artifact_digests(name, tmp_path, capsys):
    stdout = run_golden(name, tmp_path, capsys)
    if name in STDOUT_DIGESTS:
        assert hashlib.sha256(stdout.encode()).hexdigest() == STDOUT_DIGESTS[name], f"{name}/stdout changed"
    for artifact, want in GOLDENS[name][1].items():
        got = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        assert got == want, f"{name}/{artifact} changed"


# Both goldens have 32 phi_x steps: 31 cells is under one scan, and 144 cells make blocks of 4 scans,
# which divides neither the reference sweep's 27 scans nor verify_ideal's 15.
@pytest.mark.parametrize("cells", [31, 144])
@pytest.mark.parametrize("name", ["reference_sweep", "verify_ideal"])
def test_fringe_block_seams_leave_bytes_unchanged(name, cells, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "FRINGE_BLOCK_CELLS", cells)
    run_golden(name, tmp_path, capsys)
    assert hashlib.sha256((tmp_path / "fringes.csv").read_bytes()).hexdigest() == GOLDENS[name][1]["fringes.csv"]


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_report_digests(name, tmp_path, capsys):
    run_golden(name, tmp_path, capsys)
    report = json.loads((tmp_path / "report.json").read_text())
    blob = json.dumps({k: report[k] for k in REPORT_KEYS}, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == REPORT_DIGESTS[name], f"{name}/report.json changed"


@pytest.mark.parametrize("name", sorted(SWITCH_REPORTS))
def test_switch_report_run_size(name, tmp_path, capsys):
    run_golden(name, tmp_path, capsys)
    report = json.loads((tmp_path / "report.json").read_text())
    got = {k: report[k] for k in SWITCH_REPORTS[name]}
    assert got == SWITCH_REPORTS[name] and all(type(v) is int for v in got.values())


# The reference sweep with its block axis reversed: fringes.csv lists each phi_s's scans in the new order, while
# the substreams (keyed by each block's index in BLOCKS) and so duality.csv and the scorecard stay those of the
# reference sweep.  Pinned before the counts became one (phi_s, block, detector, phi_x) array, this guards the plan
# order of the block axis through every reshape.
REVERSED_BLOCKS_DIGESTS = {
    "fringes.csv": "102160f33cac9472fa09f2be0f5e3d5faec052c2d7d0a40086e482be4241119e",
    "duality.csv": GOLDENS["reference_sweep"][1]["duality.csv"],
    "report.json": REPORT_DIGESTS["reference_sweep"],
}


def test_reversed_blocks_digests(tmp_path, capsys):
    raw = json.loads((REPO / "configs" / "reference_sweep.json").read_text())
    raw["plan"]["blocks"] = raw["plan"]["blocks"][::-1]
    config = tmp_path / "reversed.json"
    config.write_text(json.dumps(raw))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_OK
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    got = {artifact: hashlib.sha256((tmp_path / "out" / artifact).read_bytes()).hexdigest()
           for artifact in ("fringes.csv", "duality.csv")}
    got["report.json"] = hashlib.sha256(json.dumps({k: report[k] for k in REPORT_KEYS}, sort_keys=True).encode()).hexdigest()
    assert got == REVERSED_BLOCKS_DIGESTS
