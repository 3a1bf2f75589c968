"""Experiment 2: impact of the payload size (paper §VII-B, Fig. 9).

Four injected-PDU sizes — 4, 9, 14 and 16 bytes — at a fixed hop interval
of 75, 25 connections each.  Each size maps to a frame with an observable
effect on the target (disconnect, power toggle, power off, colour change),
which lets the experiment cross-check the success heuristic against the
device state.  Expected shape: reliability increases (attempt counts and
spread decrease) as the payload shrinks; medians stay at or below ~3.
"""

from __future__ import annotations

from repro.experiments.common import (
    CONNECTIONS_PER_CONFIG,
    InjectionTrial,
)

#: The paper's tested payload (PDU) sizes in bytes.
PAYLOAD_SIZES: tuple[int, ...] = (4, 9, 14, 16)

#: Fixed hop interval of experiment 2.
EXPERIMENT_HOP_INTERVAL = 75


def trial_units(
    base_seed: int = 2,
    n_connections: int = CONNECTIONS_PER_CONFIG,
    payload_sizes: tuple[int, ...] = PAYLOAD_SIZES,
    collect_metrics: bool = False,
) -> list[tuple[int, InjectionTrial]]:
    """Expand the sweep into ``(PDU length, trial)`` units, grid-major.

    Seed derivation matches the historical panel (``base_seed + k*103``
    per configuration, ``config_seed*10_000 + i`` per trial).
    """
    units = []
    for index, size in enumerate(payload_sizes):
        config_seed = base_seed + index * 103
        for i in range(n_connections):
            units.append((size, InjectionTrial(
                seed=config_seed * 10_000 + i,
                hop_interval=EXPERIMENT_HOP_INTERVAL, pdu_len=size,
                attacker_distance_m=2.0, collect_metrics=collect_metrics,
            )))
    return units
