"""The attacker façade: one radio, a sniffer and an injector.

Mirrors the paper's proof-of-concept dongle (§V-E): a single transceiver
that sniffs until synchronised, then switches into injection mode, checks
the success heuristic, and reports the number of attempts — plus the APIs
the four attack scenarios build on.

The attacker's clock is modelled as an *active* crystal (10 ppm, sub-µs
jitter): injection timing runs with the radio awake, unlike the victims'
sleep clocks.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.injection import InjectionConfig, InjectionReport, Injector
from repro.core.sniffer import ConnectionSniffer, SniffedEvent
from repro.core.state import SniffedConnection
from repro.errors import AttackError
from repro.ll.pdu.control import ControlPdu
from repro.ll.pdu.data import LLID
from repro.sim.clock import SleepClock
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.transceiver import Transceiver


class Attacker:
    """A radio attacker within range of a victim connection.

    Args:
        sim: owning simulator.
        medium: shared radio medium; ``name`` must be placed in its
            topology.
        name: attacker device name.
        tx_power_dbm: attacker transmit power.
        injection_config: strategy parameters for the injector.
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str = "attacker",
        tx_power_dbm: float = 0.0,
        injection_config: Optional[InjectionConfig] = None,
        use_csa2: bool = False,
    ):
        self.sim = sim
        self.medium = medium
        self.name = name
        self.radio = Transceiver(
            sim, medium, name,
            clock=SleepClock(10.0, rng=sim.streams.get(f"clock-{name}"),
                             jitter_us=0.5),
            tx_power_dbm=tx_power_dbm,
        )
        self.sniffer = ConnectionSniffer(sim, self.radio, use_csa2=use_csa2)
        self.injector = Injector(sim, self.radio, injection_config)
        self._queued_injection: Optional[tuple[bytes, LLID,
                                               Callable[[InjectionReport], None],
                                               int]] = None
        self._events_followed = 0
        self._m_sessions = sim.metrics.counter("attacker.inject_sessions")

    # ------------------------------------------------------------------
    # Synchronisation
    # ------------------------------------------------------------------

    def sniff_new_connections(self, adv_channel: int = 37) -> None:
        """Wait for a CONNECT_REQ on an advertising channel."""
        self.sniffer.sniff_new_connections(adv_channel)

    def recover_established(self, probe_channel: int = 0) -> None:
        """Recover an established connection's parameters, then follow it."""
        self.sniffer.recover_established(probe_channel)

    @property
    def connection(self) -> Optional[SniffedConnection]:
        """The connection currently synchronised to, if any."""
        return self.sniffer.connection

    @property
    def synchronized(self) -> bool:
        """Whether the attacker is following a live connection."""
        conn = self.connection
        return conn is not None and conn.alive and conn.last_anchor_us is not None

    # ------------------------------------------------------------------
    # Injection
    # ------------------------------------------------------------------

    def inject(
        self,
        payload: bytes,
        llid: LLID = LLID.DATA_START,
        on_done: Optional[Callable[[InjectionReport], None]] = None,
        after_events: int = 3,
    ) -> None:
        """Inject ``payload`` as soon as the attacker is ready.

        If the sniffer is still following, the injection starts once
        ``after_events`` further events have been observed (guaranteeing a
        fresh anchor and Slave bits, as §V-C requires); if the sniffer has
        already handed over, the injector starts immediately.  The sniffer's
        ``on_event`` hook is the attacker's only while an injection is
        queued; otherwise it is left ``None``, so a passively following
        attacker can be fast-forwarded (:mod:`repro.sim.fastforward`).

        Args:
            payload: raw LL payload (e.g. an L2CAP-framed ATT request, or
                a control PDU's opcode+CtrData with ``llid=LLID.CONTROL``).
            llid: LLID to stamp on the injected data PDU.
            on_done: completion callback receiving the report.
            after_events: events to keep sniffing before the first attempt.
        """
        conn = self.connection
        if conn is None:
            raise AttackError("not synchronised with any connection")
        if self.sim.metrics.enabled:
            self._m_sessions.inc()
        callback = on_done if on_done is not None else (lambda _report: None)
        stale = (
            not self.sniffer.following
            and conn.alive
            and conn.last_anchor_us is not None
            and self.sim.now - conn.last_anchor_us
            > 3 * conn.params.interval_us
        )
        if stale:
            # The radio sat idle: recover the elapsed event count from
            # wall-clock time, then resynchronise passively before racing.
            conn.fast_forward(self.sim.now)
            self.resume_sniffing()
        if self.sniffer.following:
            self._queued_injection = (payload, llid, callback, after_events)
            self._events_followed = 0
            self.sniffer.on_event = self._on_sniffed_event
        else:
            self.injector.start(conn, payload, llid, callback)

    def inject_control(
        self,
        control: ControlPdu,
        on_done: Optional[Callable[[InjectionReport], None]] = None,
        after_events: int = 3,
    ) -> None:
        """Inject an LL control PDU (terminate, connection update, ...)."""
        self.inject(control.to_payload(), LLID.CONTROL, on_done, after_events)

    def _on_sniffed_event(self, event: SniffedEvent) -> None:
        if self._queued_injection is None:
            return
        payload, llid, callback, after_events = self._queued_injection
        self._events_followed += 1
        conn = self.connection
        if (conn is None or not conn.alive):
            self._unqueue()
            return
        if self._events_followed < after_events or not conn.slave_bits.seen:
            return
        if conn.last_anchor_us is None:
            return
        self._unqueue()
        self.sniffer.cancel()
        self.injector.start(conn, payload, llid, callback)

    def _unqueue(self) -> None:
        """Drop the queued injection and, unless a chained hook replaced
        it, the sniffer callback that was counting events for it."""
        self._queued_injection = None
        if self.sniffer.on_event == self._on_sniffed_event:
            self.sniffer.on_event = None

    # ------------------------------------------------------------------
    # Post-injection
    # ------------------------------------------------------------------

    def resume_sniffing(self) -> None:
        """Return the radio to the sniffer after an injection session."""
        conn = self.connection
        if conn is None or not conn.alive or conn.last_anchor_us is None:
            raise AttackError("no live connection to resume following")
        self.injector.cancel()
        self.sniffer.following = True
        self.sniffer.paused = False
        self.radio.on_frame = self.sniffer._on_follow_frame
        self.sniffer.schedule_next_event()

    def release_radio(self) -> None:
        """Stop both sniffer and injector (scenario drivers take over)."""
        self.sniffer.cancel()
        self.injector.cancel()
        self.radio.stop_listening()
