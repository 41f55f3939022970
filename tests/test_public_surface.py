"""The names ``import dualitysim`` makes public, pinned so that a change to the exports is deliberate.

The list is taken in a fresh interpreter: importing a submodule such as
``dualitysim.cli`` adds its name to the package, so the test process's own
imports would make the list depend on test order.
"""
import os
import subprocess
import sys
from pathlib import Path

PUBLIC_NAMES = [
    "BLOCKS", "BLOCK_NONE", "BLOCK_PATH0", "BLOCK_PATH1", "CircuitConfig", "ConfigError", "ContractViolation",
    "DetectorConfig", "EstimationError", "GuessingInput", "RunPlan", "SourceConfig", "SwitchPlan", "cell_rng",
    "click_probabilities", "click_probs", "distinguishability_from_guessing", "duality_report",
    "effective_mean_photons", "entropy", "errors", "estimators", "eur_check", "flatness_check", "h_max",
    "h_max_from_visibility", "h_max_guessing_bound", "h_min", "h_min_from_distinguishability", "matrix_probs",
    "montecarlo", "multi_photon_fraction", "optics", "path_blocker", "raw_detection_probs", "raw_probs",
    "run_dynamic_switch", "run_sweep", "sagnac_effective", "sample_photon_numbers", "simulate_point",
    "standard_elements", "tolerances", "visibility_from_guessing", "wpdr_check",
]


def test_public_names_are_pinned():
    code = 'import dualitysim; print(*sorted(n for n in vars(dualitysim) if not n.startswith("_")))'
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == PUBLIC_NAMES
