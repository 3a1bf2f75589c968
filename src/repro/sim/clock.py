"""Sleep clocks with bounded drift.

Every BLE device schedules its radio activity off a low-power *sleep clock*
whose accuracy is declared as an SCA (Sleep Clock Accuracy) value in parts
per million.  The InjectaBLE race exists precisely because these clocks
drift: the Slave opens its receive window early/late by the window-widening
amount to compensate (paper §V-A/B).

The model: a device clock runs at a fixed rate error ``r`` (ppm), sampled
uniformly within ±SCA at construction, plus white per-reading jitter.  The
local time after true time ``t`` is ``t * (1 + r/1e6) + jitter``.  Devices
schedule *in local time*; the simulator converts to true time.

A clock is the only reader of its generator's jitter draws: it buffers
them in blocks, and the fast-forward kernel takes its share of the same
buffer (:meth:`SleepClock.take`) rather than drawing a copy of its own.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.units import PPM

#: Jitter draws a clock adds to its buffer at a time, at the least.  Only
#: the sequence of draws is observable, so this sizes numpy calls only.
_JITTER_BLOCK = 64

#: SCA values (ppm) allowed by the specification, by SCA field value (0-7).
SCA_FIELD_PPM = (500.0, 250.0, 150.0, 100.0, 75.0, 50.0, 30.0, 20.0)


def sca_field_to_ppm(field: int) -> float:
    """Map the 3-bit SCA field of CONNECT_REQ to its worst-case ppm."""
    if not 0 <= field <= 7:
        raise ConfigurationError(f"SCA field must be 0-7, got {field}")
    return SCA_FIELD_PPM[field]


def ppm_to_sca_field(ppm: float) -> int:
    """Smallest SCA field whose worst case covers ``ppm``."""
    for field in range(7, -1, -1):
        if SCA_FIELD_PPM[field] >= ppm:
            return field
    return 0


class SleepClock:
    """A drifting clock.

    Args:
        sca_ppm: *declared* worst-case accuracy; devices must guarantee
            this bound, so the actual rate error is drawn within
            ``±utilization * sca_ppm`` — real crystals are engineered with
            margin against their declared SCA class.
        rng: generator for the rate draw and the per-reading jitter.
        jitter_us: standard deviation of white scheduling jitter, modelling
            radio turn-around and timer granularity (the spec allows 2 µs of
            active-clock jitter; real stacks show a few µs).
        utilization: fraction of the declared budget the actual drift may
            use (0-1).  The default 0.6 keeps the paper's 20 ppm worst-case
            attacker assumption workable, as it is on real hardware.

    The conversion functions are exact inverses of each other, so a device
    that schedules an event at local time ``L`` wakes at the true time
    ``true_from_local(L)`` (plus jitter applied once, at scheduling).

    After the rate draw, ``rng`` carries only jitter, drawn in blocks into
    a buffer.  ``Generator.normal(0, s, n)`` yields exactly the ``n``
    values of ``n`` scalar ``normal(0, s)`` calls, so every reader —
    :meth:`sample_jitter` one value at a time, the fast-forward kernel a
    block at a time through :meth:`take` and :meth:`give_back` — sees the
    one sequence per-call draws would give.
    """

    def __init__(
        self,
        sca_ppm: float = 50.0,
        rng: Optional[np.random.Generator] = None,
        jitter_us: float = 1.0,
        utilization: float = 0.6,
    ):
        if sca_ppm < 0:
            raise ConfigurationError(f"SCA must be >= 0 ppm, got {sca_ppm}")
        if jitter_us < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {jitter_us}")
        if not 0.0 <= utilization <= 1.0:
            raise ConfigurationError(
                f"utilization must be in [0, 1], got {utilization}")
        self.sca_ppm = float(sca_ppm)
        self.jitter_us = float(jitter_us)
        self.utilization = float(utilization)
        self._rng = rng if rng is not None else np.random.default_rng()
        bound = sca_ppm * utilization
        self.rate_error_ppm = (
            float(self._rng.uniform(-bound, bound)) if bound > 0 else 0.0
        )
        #: Drawn jitter values; those before ``_pos`` are handed out.
        self._jitter = np.empty(0)
        self._pos = 0

    @property
    def rate(self) -> float:
        """Local seconds elapsed per true second (1 + error)."""
        return 1.0 + self.rate_error_ppm / PPM

    def local_from_true(self, true_us: float) -> float:
        """Local clock reading at true time ``true_us``."""
        return true_us * self.rate

    def true_from_local(self, local_us: float) -> float:
        """True time at which the local clock reads ``local_us``."""
        return local_us / self.rate

    def drift_over(self, interval_us: float) -> float:
        """Signed true-time error accumulated over a local interval.

        A device that waits ``interval_us`` on its own clock actually waits
        ``interval_us / rate``; the return value is that difference.
        """
        return interval_us / self.rate - interval_us

    def sample_jitter(self) -> float:
        """One draw of scheduling jitter in µs (true time)."""
        if self.jitter_us == 0:
            return 0.0
        pos = self._pos
        if pos == len(self._jitter):
            self._refill(1)
            pos = 0
        self._pos = pos + 1
        return float(self._jitter[pos])

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` jitter draws at once (zeros, drawing nothing,
        when jitter is off)."""
        if self.jitter_us == 0:
            return np.zeros(n)
        if self._pos + n > len(self._jitter):
            self._refill(n)
        pos = self._pos
        self._pos = pos + n
        return self._jitter[pos:pos + n]

    def give_back(self, n: int) -> None:
        """Return the last ``n`` draws of the last :meth:`take`; the next
        reader gets them again."""
        if self.jitter_us != 0:
            self._pos -= n

    def _refill(self, n: int) -> None:
        """Keep the values not yet handed out and draw more behind them,
        so that ``n`` lie at the front of the buffer."""
        rest = self._jitter[self._pos:]
        fresh = self._rng.normal(0.0, self.jitter_us,
                                 max(n - len(rest), _JITTER_BLOCK))
        self._jitter = np.concatenate((rest, fresh)) if len(rest) else fresh
        self._pos = 0

    def __repr__(self) -> str:
        return (
            f"SleepClock(sca={self.sca_ppm}ppm, "
            f"actual={self.rate_error_ppm:+.2f}ppm, jitter={self.jitter_us}us)"
        )
