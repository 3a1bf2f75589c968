"""The paper's sensitivity analysis (§VII) and countermeasure ablations.

Each module exposes its grid through ``trial_units()``; run one by its
registered name with :func:`repro.campaign.run_experiment`.
"""

from repro.experiments.common import (
    InjectionTrial,
    TrialResult,
    run_trial_units,
)
from repro.experiments.hop_interval import HOP_INTERVALS
from repro.experiments.payload_size import PAYLOAD_SIZES
from repro.experiments.distance import DISTANCE_POSITIONS
from repro.experiments.wall import WALL_DISTANCES
from repro.experiments.dense import OCCUPANCY_LOAD_LEVELS, DenseTrial
from repro.experiments.defense import (
    TRAFFIC_KINDS,
    DefenseTrial,
    summarize_defense,
)

__all__ = [
    "DISTANCE_POSITIONS",
    "DefenseTrial",
    "DenseTrial",
    "HOP_INTERVALS",
    "InjectionTrial",
    "OCCUPANCY_LOAD_LEVELS",
    "PAYLOAD_SIZES",
    "TRAFFIC_KINDS",
    "TrialResult",
    "WALL_DISTANCES",
    "run_trial_units",
]
