"""Experiment 1: impact of the Hop Interval (paper §VII-A, Fig. 9).

Six hop intervals from 25 to 150 slots, 25 connections each, injecting the
22-byte over-the-air Write Request (14-byte PDU) turning the lightbulb off,
in the 2 m equilateral-triangle setup.  Expected shape: every connection is
eventually injected, the median attempt count stays below ~4, and the
variance decreases sharply between 25 and 100 then stabilises.
"""

from __future__ import annotations

from repro.experiments.common import (
    CONNECTIONS_PER_CONFIG,
    InjectionTrial,
)

#: The paper's tested hop intervals (1.25 ms slots).
HOP_INTERVALS: tuple[int, ...] = (25, 50, 75, 100, 125, 150)

#: PDU length of the experiment's injected frame (22 bytes over the air).
EXPERIMENT_PDU_LEN = 14


def trial_units(
    base_seed: int = 1,
    n_connections: int = CONNECTIONS_PER_CONFIG,
    hop_intervals: tuple[int, ...] = HOP_INTERVALS,
    collect_metrics: bool = False,
) -> list[tuple[int, InjectionTrial]]:
    """Expand the sweep into ``(hop interval, trial)`` units, grid-major.

    Seeds follow the historical panel derivation — configuration ``k``
    seeds at ``base_seed + k*101``, trial ``i`` at ``config_seed*10_000
    + i`` — so campaign runs and one-shot panels run the same trials and
    produce identical results.
    """
    units = []
    for index, hop in enumerate(hop_intervals):
        config_seed = base_seed + index * 101
        for i in range(n_connections):
            units.append((hop, InjectionTrial(
                seed=config_seed * 10_000 + i, hop_interval=hop,
                pdu_len=EXPERIMENT_PDU_LEN, attacker_distance_m=2.0,
                collect_metrics=collect_metrics,
            )))
    return units
