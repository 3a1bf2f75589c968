"""The discrete-event simulation engine.

A :class:`Simulator` owns the virtual clock (true time, µs), the event
queue, the shared RNG stream family and the trace.  Components schedule
callbacks; :meth:`Simulator.run` drains the queue in time order.

Design notes
------------
* Time is *true* time.  Devices convert through their own
  :class:`~repro.sim.clock.SleepClock` when they schedule, so clock drift is
  visible as mis-timed radio activity, exactly the physical effect the
  InjectaBLE race exploits.
* Determinism: identical seeds and identical scheduling order give
  identical runs; ties in time fire in scheduling order.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import SchedulingError, SimulationError
from repro.sim.events import TIME_EPS_US, Event, EventQueue
from repro.sim.trace import Trace
from repro.utils.rand import RngStreams


class Simulator:
    """Discrete-event simulator with µs resolution.

    Args:
        seed: root seed for every RNG stream of the run.
        trace_enabled: whether to record a :class:`~repro.sim.trace.Trace`.
        metrics_enabled: whether the
            :class:`~repro.telemetry.metrics.MetricsRegistry` collects
            (the registry object always exists, so components can bind
            instruments unconditionally; disabled updates cost one
            attribute check at the call site).

    Example:
        >>> sim = Simulator(seed=1)
        >>> fired = []
        >>> _ = sim.schedule_at(100.0, lambda: fired.append(sim.now))
        >>> sim.run()
        >>> fired
        [100.0]
    """

    def __init__(self, seed: int = 0, trace_enabled: bool = True,
                 metrics_enabled: bool = False):
        from repro.telemetry.metrics import MetricsRegistry

        self._now = 0.0
        self._queue = EventQueue()
        self.streams = RngStreams(seed)
        self.trace = Trace(enabled=trace_enabled)
        self.metrics = MetricsRegistry(enabled=metrics_enabled)
        self._running = False
        self._stop_requested = False
        #: Optional analytic fast-forward engine (see
        #: :mod:`repro.sim.fastforward`); ``None`` = pure reference engine.
        self._fast_forward = None

    @property
    def now(self) -> float:
        """Current true time in µs."""
        return self._now

    def schedule_at(
        self, time_us: float, handler: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``handler`` at absolute true time ``time_us``."""
        if time_us < self._now - TIME_EPS_US:
            raise SchedulingError(
                f"cannot schedule at {time_us:.3f}us, now is {self._now:.3f}us"
            )
        return self._queue.push(max(time_us, self._now), handler, label)

    def schedule_in(
        self, delay_us: float, handler: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``handler`` after a relative delay."""
        if delay_us < 0:
            raise SchedulingError(f"negative delay: {delay_us}")
        return self._queue.push(self._now + delay_us, handler, label)

    def run(self, until_us: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Drain the queue in time order.

        Args:
            until_us: stop once the next event would fire after this time
                (the clock is left at ``until_us``).
            max_events: safety valve against runaway self-rescheduling.

        Returns:
            The number of events fired.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        self._stop_requested = False
        fast_forward = self._fast_forward
        fired = 0
        try:
            while True:
                if self._stop_requested:
                    break
                if fast_forward is not None:
                    # Jump over analytically computable quiet stretches;
                    # returns the number of events it accounted for (0 when
                    # the world is not in fast-forwardable shape).
                    fired += fast_forward.advance(until_us,
                                                  max_events - fired)
                event = self._queue.pop_due(until_us)
                if event is None:
                    if len(self._queue):
                        # Next event lies beyond the horizon.
                        self._now = until_us
                    break
                if event.time_us < self._now - TIME_EPS_US:
                    raise SimulationError(
                        f"time went backwards: {event.time_us} < {self._now}"
                    )
                self._now = max(self._now, event.time_us)
                event.handler()
                fired += 1
                if fired >= max_events:
                    raise SimulationError(f"exceeded {max_events} events; runaway?")
        finally:
            self._running = False
        return fired

    def install_fast_forward(self, engine) -> None:
        """Attach an analytic fast-forward engine (or ``None`` to detach).

        The engine's ``advance(until_us, budget)`` is consulted once per
        :meth:`run` iteration; whenever it recognises a closed-form-computable
        quiet stretch it jumps the clock, emits the trace/metrics records the
        event-by-event path would have produced, and returns the number of
        events it accounted for.
        """
        self._fast_forward = engine

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stop_requested = True

    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
