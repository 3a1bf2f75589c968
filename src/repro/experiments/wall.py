"""Wall experiment: obstacles between attacker and victims (paper §VII-C).

Same setup as experiment 3, with the attacker behind a wall at 2 to 8 m
from the Peripheral.  Expected shape: more attempts than in free space and
variance growing with distance — but every tested connection still ends in
a successful injection.
"""

from __future__ import annotations

from repro.experiments.common import (
    CONNECTIONS_PER_CONFIG,
    InjectionTrial,
)

#: Attacker distances behind the wall (metres).
WALL_DISTANCES: tuple[float, ...] = (2.0, 4.0, 6.0, 8.0)

#: Interior-wall attenuation at 2.4 GHz (dB).
WALL_ATTENUATION_DB = 8.0

EXPERIMENT_HOP_INTERVAL = 36
EXPERIMENT_PDU_LEN = 14


def trial_units(
    base_seed: int = 4,
    n_connections: int = CONNECTIONS_PER_CONFIG,
    distances: tuple[float, ...] = WALL_DISTANCES,
    wall_attenuation_db: float = WALL_ATTENUATION_DB,
    collect_metrics: bool = False,
) -> list[tuple[float, InjectionTrial]]:
    """Expand the sweep into ``(distance, trial)`` units, grid-major.

    Seed derivation matches the historical panel (``base_seed + k*109``
    per distance, ``config_seed*10_000 + i`` per trial).
    """
    units = []
    for index, distance in enumerate(distances):
        config_seed = base_seed + index * 109
        for i in range(n_connections):
            units.append((distance, InjectionTrial(
                seed=config_seed * 10_000 + i,
                hop_interval=EXPERIMENT_HOP_INTERVAL,
                pdu_len=EXPERIMENT_PDU_LEN, attacker_distance_m=distance,
                wall_attenuation_db=wall_attenuation_db,
                collect_metrics=collect_metrics,
            )))
    return units
