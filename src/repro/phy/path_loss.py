"""Radio propagation: log-distance path loss, walls, shadowing.

The paper's distance and wall experiments (§VII-C) manipulate nothing but
the received power of the injected signal at the Slave's antenna.  We model
that with the standard log-distance path-loss law

    PL(d) = PL(d0) + 10 * n * log10(d / d0) + X_sigma + sum(wall losses)

with reference loss ``PL(d0)`` at 1 m, path-loss exponent ``n`` (≈2 in free
space, 2.5-4 indoors) and log-normal shadowing ``X_sigma``.  Walls crossed
by the direct path each add a fixed attenuation (≈6-10 dB for drywall and
brick at 2.4 GHz).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError


def dbm_to_mw(dbm: float) -> float:
    """Convert a power in dBm to milliwatts."""
    return 10.0 ** (dbm / 10.0)


def mw_to_dbm(mw: float) -> float:
    """Convert a power in milliwatts to dBm."""
    if mw <= 0:
        raise ConfigurationError(f"power must be positive, got {mw} mW")
    return 10.0 * math.log10(mw)


@dataclass(frozen=True)
class Wall:
    """A wall crossed by a radio path.

    Attributes:
        attenuation_db: power lost crossing the wall, in dB.  Typical
            interior walls at 2.4 GHz cost 6-10 dB.
    """

    attenuation_db: float = 8.0

    def __post_init__(self) -> None:
        if self.attenuation_db < 0:
            raise ConfigurationError(
                f"wall attenuation must be non-negative: {self.attenuation_db}"
            )


@dataclass
class PathLossModel:
    """Log-distance path-loss with optional log-normal shadowing.

    Attributes:
        reference_loss_db: path loss at the 1 m reference distance.  40 dB
            is a common value for 2.4 GHz.
        exponent: path-loss exponent ``n``; 2.0 free space, ~2.7 indoors.
        shadowing_sigma_db: standard deviation of the log-normal shadowing
            term.  0 disables shadowing.
        min_distance_m: distances below this are clamped to it, avoiding a
            singularity at 0.
    """

    reference_loss_db: float = 40.0
    exponent: float = 2.2
    shadowing_sigma_db: float = 2.0
    min_distance_m: float = 0.1

    def __post_init__(self) -> None:
        if self.exponent <= 0:
            raise ConfigurationError(f"path loss exponent must be > 0: {self.exponent}")
        if self.shadowing_sigma_db < 0:
            raise ConfigurationError(
                f"shadowing sigma must be >= 0: {self.shadowing_sigma_db}"
            )
        if self.min_distance_m <= 0:
            raise ConfigurationError(
                f"min distance must be > 0: {self.min_distance_m}"
            )

    def mean_loss_db(self, distance_m: float, walls: tuple[Wall, ...] = ()) -> float:
        """Deterministic part of the path loss over ``distance_m`` metres."""
        d = max(distance_m, self.min_distance_m)
        loss = self.reference_loss_db + 10.0 * self.exponent * math.log10(d)
        loss += sum(wall.attenuation_db for wall in walls)
        return loss

    def sample_loss_db(
        self,
        distance_m: float,
        rng: Optional[np.random.Generator] = None,
        walls: tuple[Wall, ...] = (),
    ) -> float:
        """Path loss with a shadowing draw from ``rng`` (if sigma > 0)."""
        loss = self.mean_loss_db(distance_m, walls)
        if self.shadowing_sigma_db > 0 and rng is not None:
            loss += float(rng.normal(0.0, self.shadowing_sigma_db))
        return loss

    def received_power_dbm(
        self,
        tx_power_dbm: float,
        distance_m: float,
        rng: Optional[np.random.Generator] = None,
        walls: tuple[Wall, ...] = (),
    ) -> float:
        """Received power for a transmitter at ``tx_power_dbm``."""
        return tx_power_dbm - self.sample_loss_db(distance_m, rng, walls)
