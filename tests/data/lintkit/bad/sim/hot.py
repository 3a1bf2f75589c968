"""Fixture: hot-path violations (set-iteration, float-time-eq,
telemetry-guard positives) plus one inline waiver and one waiver that
waives nothing."""


class HotPath:
    """Fixture hot path with deliberate telemetry violations."""

    def __init__(self, sim, metrics):
        self.sim = sim
        self._m_tx = metrics.counter("fixture.tx")

    def churn(self, frames):
        total = 0
        for channel in {37, 38, 39}:  # set-iteration: hash order
            total += channel
        for frame in frames:
            if frame.start_us == 5.0:  # float-time-eq: exact float compare
                total += 1
            self._m_tx.inc()  # telemetry-guard: unguarded instrument update
            self.sim.trace.record(frame.start_us, "fixture", "tx")
        return total

    def bind_late(self):
        # telemetry-guard: instrument bound outside __init__
        return self.sim.metrics.counter("fixture.late")

    def waived(self, frame):
        self.sim.trace.record(0.0, "fixture", "cold")  # lint-ok: telemetry-guard one-shot setup record

    def stale_waiver(self):
        return 0.0  # lint-ok: telemetry-guard the record it waived is gone
