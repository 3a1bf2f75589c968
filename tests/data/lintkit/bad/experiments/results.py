"""Fixture: trial result capturing the world (result-capture)."""

from dataclasses import dataclass
from typing import Optional

from repro.sim.simulator import Simulator


@dataclass
class LeakyTrialResult:
    """Result that drags the whole simulated world through pickle."""

    success: bool
    sim: Optional[Simulator] = None
