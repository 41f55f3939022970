"""Tunable-beamsplitter interferometer simulation and entropic-duality verification.

The library models a two-path fiber interferometer whose recombining splitter
is a Sagnac loop tunable between mirror and balanced operation, simulates its
photon-counting statistics for weak coherent pulses, and verifies that the
min/max-entropy uncertainty bound and the visibility/distinguishability
trade-off are two faces of the same constraint, both in closed form and on
sampled count data.
"""

from .entropy import (
    GuessingInput,
    eur_check,
    h_max,
    h_max_from_visibility,
    h_max_guessing_bound,
    h_min,
    h_min_from_distinguishability,
    visibility_from_guessing,
    distinguishability_from_guessing,
    wpdr_check,
)
from .errors import ConfigError, ContractViolation, EstimationError
from .estimators import duality_report, flatness_check
from .montecarlo import (
    DetectorConfig,
    RunPlan,
    SourceConfig,
    SwitchPlan,
    cell_rng,
    click_probabilities,
    click_probs,
    effective_mean_photons,
    multi_photon_fraction,
    run_dynamic_switch,
    run_sweep,
    sample_photon_numbers,
    simulate_point,
)
from .optics import (
    BLOCK_NONE,
    BLOCK_PATH0,
    BLOCK_PATH1,
    BLOCKS,
    CircuitConfig,
    matrix_probs,
    path_blocker,
    raw_detection_probs,
    raw_probs,
    sagnac_effective,
    standard_elements,
)

__version__ = "0.1.0"
