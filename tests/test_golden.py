"""Stored SHA-256 digests of the artifacts of the reference runs.

Run-to-run comparisons (acceptance criterion 8) cannot see a change that
alters every run the same way, such as a new order of RNG draws.  These
digests can: any change to the bytes of a reference artifact fails here, and
re-pinning them is a deliberate, recorded act.
"""
import hashlib
from pathlib import Path

import pytest

from dualitysim.cli import EXIT_OK, main

REPO = Path(__file__).resolve().parents[1]

GOLDENS = {
    "reference_sweep": (
        ["sweep", "--config", str(REPO / "configs" / "reference_sweep.json")],
        {
            "fringes.csv": "f4b4d6990b6f8ddf4b54123a1437d06c1dbfda95e3c090660ef6cd890f810591",
            "duality.csv": "76cf9f404ce733d50919ffafd305e41072f1d3dc342c8c0511b34f033d6416fa",
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


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_artifact_digests(name, tmp_path, capsys):
    argv, digests = GOLDENS[name]
    assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
    capsys.readouterr()
    for artifact, want in digests.items():
        got = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        assert got == want, f"{name}/{artifact} changed"
