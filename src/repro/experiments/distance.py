"""Experiment 3: impact of the attacker distance (paper §VII-C, Fig. 9).

The lightbulb and a smartphone Central (hop interval 36, the phone's
default) sit 2 m apart; the attacker tries six positions from 1 to 10 m
from the Peripheral (paper Fig. 8: closer than the Central at A, equal at
B, further at C-F).  Expected shape: every position still yields a
successful injection for every connection, with attempt variance growing
with distance.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.experiments.common import (
    CONNECTIONS_PER_CONFIG,
    InjectionTrial,
)

#: Position label → attacker distance from the Peripheral (paper Fig. 8).
DISTANCE_POSITIONS: dict[str, float] = {
    "A (1 m)": 1.0,
    "B (2 m)": 2.0,
    "C (4 m)": 4.0,
    "D (6 m)": 6.0,
    "E (8 m)": 8.0,
    "F (10 m)": 10.0,
}

#: The smartphone's default hop interval measured by the paper.
EXPERIMENT_HOP_INTERVAL = 36

#: 22-byte over-the-air Write Request, as in experiment 1.
EXPERIMENT_PDU_LEN = 14


def trial_units(
    base_seed: int = 3,
    n_connections: int = CONNECTIONS_PER_CONFIG,
    positions: Optional[Mapping[str, float]] = None,
    collect_metrics: bool = False,
) -> list[tuple[str, InjectionTrial]]:
    """Expand the sweep into ``(position label, trial)`` units, grid-major.

    Seed derivation matches the historical panel (``base_seed + k*107``
    per position, ``config_seed*10_000 + i`` per trial).
    """
    if positions is None:
        positions = DISTANCE_POSITIONS
    units = []
    for index, (label, distance) in enumerate(positions.items()):
        config_seed = base_seed + index * 107
        for i in range(n_connections):
            units.append((label, InjectionTrial(
                seed=config_seed * 10_000 + i,
                hop_interval=EXPERIMENT_HOP_INTERVAL,
                pdu_len=EXPERIMENT_PDU_LEN, attacker_distance_m=distance,
                collect_metrics=collect_metrics,
            )))
    return units
