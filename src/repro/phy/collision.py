"""Collision and capture-effect model.

When the injected frame and the legitimate Master frame overlap at the
Slave's antenna (situation *b* of the paper's Fig. 5), the outcome depends
on the power ratio and on the instantaneous phase relation between the two
GFSK signals: a sufficiently stronger wanted signal keeps the demodulator
locked (the *capture effect*); nearer power parity the outcome is governed
by the phase difference, as the paper observes ("depending on the phase
difference between the injected and legitimate signals ... along with the
previously mentioned power difference").

FM/GFSK capture is largely all-or-nothing per collision, so the model
draws one survival decision per overlap:

    eff = SIR + phase ~ N(0, σ_phase) − α · overlap_duration
    P(survive) = logistic((eff − threshold) / steepness)

The duration penalty α reflects that a longer exposed region gives more
opportunities for a destructive phase epoch — reproducing the paper's
payload-size result (§VII-B) — while the SIR terms reproduce the distance
and wall results (§VII-C).  Default constants are calibrated so the
equal-distance setups of experiments 1-2 need a low single-digit median
number of attempts, as Figure 9 reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.phy.signal import RadioFrame


@dataclass(frozen=True)
class Overlap:
    """Temporal overlap between a wanted frame and an interferer.

    Attributes:
        start_us: start of the overlapped region.
        end_us: end of the overlapped region.
        sir_db: wanted-signal power minus interferer power at the receiver.
    """

    start_us: float
    end_us: float
    sir_db: float

    @property
    def duration_us(self) -> float:
        """Length of the overlapped region in µs."""
        return max(0.0, self.end_us - self.start_us)


@dataclass(frozen=True)
class CollisionOutcome:
    """Result of resolving one frame against its interferers.

    Attributes:
        survived: whether the frame demodulated correctly end to end.
        overlapped_bits: total number of bits exposed to interference.
        corrupted_bits: bits counted as damaged when the frame failed.
    """

    survived: bool
    overlapped_bits: int
    corrupted_bits: int


@dataclass
class CollisionModel:
    """Capture-effect collision resolution.

    Attributes:
        capture_threshold_db: effective SIR at which survival probability
            is 0.5.
        steepness_db: width of the logistic transition; wide (≈8 dB)
            because phase-dependent capture smears the power threshold.
        phase_sigma_db: standard deviation of the per-collision random
            phase contribution added to the SIR.
        duration_penalty_db_per_100us: capture penalty per 100 µs of
            overlapped signal (longer exposure, more chances to slip).
        floor_survival / ceiling_survival: probability clamps so extreme
            configurations keep a sliver of randomness.
    """

    capture_threshold_db: float = -9.0
    steepness_db: float = 11.0
    phase_sigma_db: float = 4.0
    duration_penalty_db_per_100us: float = 11.0
    floor_survival: float = 1e-3
    ceiling_survival: float = 0.999

    def __post_init__(self) -> None:
        if self.steepness_db <= 0:
            raise ConfigurationError(f"steepness must be > 0: {self.steepness_db}")
        if not 0 <= self.floor_survival <= self.ceiling_survival <= 1:
            raise ConfigurationError(
                "require 0 <= floor_survival <= ceiling_survival <= 1"
            )

    def survival_probability(self, sir_db: float, overlap_duration_us: float,
                             phase_db: float = 0.0) -> float:
        """P(the overlapped region demodulates) for given conditions."""
        effective = (
            sir_db + phase_db
            - self.duration_penalty_db_per_100us * overlap_duration_us / 100.0
        )
        z = (effective - self.capture_threshold_db) / self.steepness_db
        p = 1.0 / (1.0 + math.exp(-z))
        return min(self.ceiling_survival, max(self.floor_survival, p))

    def overlapped_bits(self, wanted: RadioFrame, overlap: Overlap) -> int:
        """Number of bits of ``wanted`` inside the overlapped region."""
        if overlap.duration_us <= 0:
            return 0
        bits_per_us = wanted.phy.bits_per_second / 1_000_000
        return int(math.ceil(overlap.duration_us * bits_per_us))

    def resolve(
        self,
        wanted: RadioFrame,
        overlaps: list[Overlap],
        rng: np.random.Generator,
    ) -> CollisionOutcome:
        """Decide whether ``wanted`` survives its interferers.

        Each overlap gets an independent phase draw and survival decision;
        the frame survives only if every overlapped region does.
        """
        total_bits = 0
        corrupted = 0
        survived = True
        for overlap in overlaps:
            n_bits = self.overlapped_bits(wanted, overlap)
            if n_bits == 0:
                continue
            total_bits += n_bits
            phase = (float(rng.normal(0.0, self.phase_sigma_db))
                     if self.phase_sigma_db > 0 else 0.0)
            p = self.survival_probability(overlap.sir_db, overlap.duration_us,
                                          phase)
            if float(rng.random()) >= p:
                survived = False
                corrupted += n_bits
        return CollisionOutcome(
            survived=survived,
            overlapped_bits=total_bits,
            corrupted_bits=corrupted,
        )
