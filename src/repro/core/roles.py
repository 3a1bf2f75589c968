"""The attacker's minimal BLE stack: fake Slave and fake Master roles.

The paper's dongle embeds "a minimal BLE stack ... to mimic the behaviour
of the different roles involved in the connection" (§V-E).  These classes
are that stack: they speak the connection from a sniffed state, with lazy
acknowledgement-bit initialisation so they can splice into a live ARQ
stream at any point.

* :class:`FakeSlave` — responds to the legitimate Master's polls
  (Scenario B after the real Slave was terminated; Scenario D's
  Master-facing half).
* :class:`FakeMaster` — polls the real Slave on the attacker-controlled
  schedule (Scenario C after the forged connection update; Scenario D's
  Slave-facing half).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.core.state import SniffedConnection
from repro.errors import HijackError
from repro.host.l2cap import CID_ATT, l2cap_encode
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.pdu.frame import compute_crc, verify_crc
from repro.ll.timing import window_widening_us
from repro.phy.signal import RadioFrame
from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.sim.transceiver import Transceiver
from repro.utils.units import T_IFS_US

#: Listening margin around predicted anchors for the fake roles, µs.
_ROLE_MARGIN_US = 250.0
#: Consecutive missed events before a fake role reports loss.
_ROLE_LOSS_THRESHOLD = 16


class _MiniArq:
    """The 1-bit ARQ state shared by both fake roles.

    Counters initialise lazily from the first frame heard from the peer,
    so the role can splice into an in-flight sequence-number stream.
    """

    def __init__(self) -> None:
        self.initialized = False
        self.transmit_seq = 0
        self.next_expected = 0
        self._last_sent: Optional[DataPdu] = None
        self._acked = True

    def init_from_peer(self, sn: int, nesn: int) -> None:
        """Adopt the counters the peer expects (lazy splice-in)."""
        if self.initialized:
            return
        self.transmit_seq = nesn
        self.next_expected = sn
        self.initialized = True

    def on_received(self, sn: int, nesn: int) -> bool:
        """Process peer bits; returns whether the payload is new data."""
        is_new = sn == self.next_expected
        if is_new:
            self.next_expected ^= 1
        if nesn != self.transmit_seq:
            self.transmit_seq ^= 1
            self._acked = True
        else:
            self._acked = False
        return is_new

    def next_pdu(self, queue: deque) -> DataPdu:
        """Select the next PDU to transmit under the retransmission rule."""
        if not self._acked and self._last_sent is not None:
            pdu = self._last_sent.with_bits(self.transmit_seq, self.next_expected)
        elif queue:
            pdu = queue.popleft().with_bits(self.transmit_seq, self.next_expected)
        else:
            pdu = DataPdu.empty(sn=self.transmit_seq, nesn=self.next_expected)
        self._last_sent = pdu
        self._acked = False
        return pdu


class FakeSlave:
    """Impersonates the Slave toward the legitimate Master.

    Args:
        sim: owning simulator.
        radio: attacker transceiver to use.
        conn: sniffed connection state (old schedule); its selector must
            be positioned on the current event.
        on_data: callback for L2CAP payloads the Master sends.
        name: label used in traces.
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Transceiver,
        conn: SniffedConnection,
        on_data: Optional[Callable[[bytes], None]] = None,
        name: str = "fake-slave",
    ):
        self.sim = sim
        self.radio = radio
        self.conn = conn
        self.name = name
        self.on_data = on_data
        self.on_lost: Optional[Callable[[str], None]] = None
        self.arq = _MiniArq()
        self.tx_queue: deque[DataPdu] = deque()
        self._events: list[Event] = []
        self._missed = 0
        self._running = False
        self.frames_answered = 0

    # ------------------------------------------------------------------
    # Host-side API
    # ------------------------------------------------------------------

    def queue_l2cap(self, payload: bytes) -> None:
        """Queue an L2CAP frame toward the Master."""
        self.tx_queue.append(DataPdu.make(LLID.DATA_START, payload))

    def queue_att(self, att_bytes: bytes) -> None:
        """Queue an ATT PDU toward the Master."""
        self.queue_l2cap(l2cap_encode(CID_ATT, att_bytes))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Begin answering the Master from the next connection event."""
        if self.conn.last_anchor_us is None:
            raise HijackError("fake slave needs a synchronised connection")
        self._running = True
        self.radio.on_frame = self._on_frame
        self._arm_next_event()

    def stop(self) -> None:
        """Stop impersonating."""
        self._running = False
        for event in self._events:
            event.cancel()
        self._events.clear()
        self.radio.stop_listening()

    def _schedule(self, time_us: float, handler, label: str) -> Event:
        event = self.sim.schedule_at(max(time_us, self.sim.now), handler, label)
        self._events.append(event)
        if len(self._events) > 64:
            # Amortised compaction: fired and cancelled handles are
            # inert (cancel() on them is a no-op), so dropping them
            # lazily keeps this O(1) per call instead of O(n).
            self._events = [e for e in self._events if e.pending]
        return event

    def _arm_next_event(self) -> None:
        if not self._running:
            return
        channel = self.conn.advance_event()
        predicted = self.conn.predicted_anchor_us()
        w = window_widening_us(self.conn.params.master_sca_ppm, 50.0,
                               predicted - (self.conn.last_anchor_us or predicted))
        open_us = predicted - w - _ROLE_MARGIN_US
        close_us = predicted + w + _ROLE_MARGIN_US
        self._schedule(open_us, lambda ch=channel: self._open(ch),
                       f"{self.name}-open")
        self._schedule(close_us, self._window_closed, f"{self.name}-close")

    def _open(self, channel: int) -> None:
        if self._running:
            self.radio.rx_phy = self.conn.phy
            self.radio.listen(channel)

    def _window_closed(self) -> None:
        if not self._running:
            return
        lock_end = self.radio.medium.lock_end_of(self.radio)
        if lock_end is not None:
            self._schedule(lock_end + 2.0, self._window_closed,
                           f"{self.name}-extend")
            return
        self.radio.stop_listening()
        self._missed += 1
        if self._missed >= _ROLE_LOSS_THRESHOLD:
            self._lost("master silent")
            return
        self._arm_next_event()

    def _on_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        if not self._running:
            return
        if frame.access_address != self.conn.params.access_address:
            return
        for event in self._events:
            event.cancel()
        self._events.clear()
        self._missed = 0
        self.conn.note_anchor(frame.start_us)
        self.radio.stop_listening()
        if verify_crc(frame, self.conn.params.crc_init):
            pdu = DataPdu.from_bytes(frame.pdu)
            self.arq.init_from_peer(pdu.header.sn, pdu.header.nesn)
            is_new = self.arq.on_received(pdu.header.sn, pdu.header.nesn)
            if is_new and len(pdu.payload) > 0 and not pdu.is_control:
                if self.on_data is not None:
                    self.on_data(pdu.payload)
        self._schedule(frame.end_us + T_IFS_US, self._respond,
                       f"{self.name}-respond")

    def _respond(self) -> None:
        if not self._running:
            return
        pdu = self.arq.next_pdu(self.tx_queue)
        pdu_bytes = pdu.to_bytes()
        crc = compute_crc(pdu_bytes, self.conn.params.crc_init)
        self.radio.transmit(self.conn.params.access_address, pdu_bytes, crc,
                            self.conn.current_channel or 0, phy=self.conn.phy)
        self.frames_answered += 1
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "fake-slave-response",
                                  event_count=self.conn.event_count)
        self._arm_next_event()

    def _lost(self, reason: str) -> None:
        self.stop()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "fake-slave-lost",
                                  reason=reason)
        if self.on_lost is not None:
            self.on_lost(reason)


class FakeMaster:
    """Polls the real Slave on the attacker's schedule.

    Args:
        sim: owning simulator.
        radio: attacker transceiver to use.
        conn: sniffed connection state positioned so that
            ``last_anchor_us`` is the time of the fake Master's first
            transmission (e.g. the forged update's window start).
        on_data: callback for L2CAP payloads the Slave sends.
        forged_bits: (SN, NESN) for the first poll, from
            :meth:`SniffedConnection.forged_bits`; ``None`` uses (0, 0).
    """

    def __init__(
        self,
        sim: Simulator,
        radio: Transceiver,
        conn: SniffedConnection,
        on_data: Optional[Callable[[bytes], None]] = None,
        forged_bits: Optional[tuple[int, int]] = None,
        name: str = "fake-master",
    ):
        self.sim = sim
        self.radio = radio
        self.conn = conn
        self.name = name
        self.on_data = on_data
        self.on_lost: Optional[Callable[[str], None]] = None
        self.arq = _MiniArq()
        if forged_bits is not None:
            sn, nesn = forged_bits
            self.arq.transmit_seq = sn
            self.arq.next_expected = nesn
            self.arq.initialized = True
        self.tx_queue: deque[DataPdu] = deque()
        self._events: list[Event] = []
        self._missed = 0
        self._running = False
        self._awaiting = False
        self.polls_sent = 0
        self.responses_heard = 0

    # ------------------------------------------------------------------
    # Host-side API
    # ------------------------------------------------------------------

    def queue_l2cap(self, payload: bytes) -> None:
        """Queue an L2CAP frame toward the Slave."""
        self.tx_queue.append(DataPdu.make(LLID.DATA_START, payload))

    def queue_att(self, att_bytes: bytes) -> None:
        """Queue an ATT PDU toward the Slave."""
        self.queue_l2cap(l2cap_encode(CID_ATT, att_bytes))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self, first_tx_us: Optional[float] = None) -> None:
        """Start polling; first frame at ``first_tx_us`` (default: the
        connection's ``last_anchor_us``)."""
        if self.conn.last_anchor_us is None and first_tx_us is None:
            raise HijackError("fake master needs a first transmit time")
        self._running = True
        self.radio.on_frame = self._on_frame
        t0 = first_tx_us if first_tx_us is not None else self.conn.last_anchor_us
        assert t0 is not None
        self.conn.note_anchor(t0)
        self._schedule(t0, self._poll, f"{self.name}-first-poll")

    def stop(self) -> None:
        """Stop polling."""
        self._running = False
        for event in self._events:
            event.cancel()
        self._events.clear()
        self.radio.stop_listening()

    def _schedule(self, time_us: float, handler, label: str) -> Event:
        event = self.sim.schedule_at(max(time_us, self.sim.now), handler, label)
        self._events.append(event)
        if len(self._events) > 64:
            # Amortised compaction: fired and cancelled handles are
            # inert (cancel() on them is a no-op), so dropping them
            # lazily keeps this O(1) per call instead of O(n).
            self._events = [e for e in self._events if e.pending]
        return event

    def _poll(self) -> None:
        if not self._running:
            return
        channel = self.conn.current_channel
        if channel is None:
            channel = self.conn.advance_event()
        pdu = self.arq.next_pdu(self.tx_queue)
        pdu_bytes = pdu.to_bytes()
        crc = compute_crc(pdu_bytes, self.conn.params.crc_init)
        frame = self.radio.transmit(self.conn.params.access_address, pdu_bytes,
                                    crc, channel, phy=self.conn.phy)
        self.conn.note_anchor(frame.start_us)
        self.polls_sent += 1
        self._awaiting = True
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "fake-master-poll",
                                  event_count=self.conn.event_count,
                                  channel=channel)
        self._schedule(frame.end_us + 0.5,
                       lambda ch=channel: self._tune_rx(ch),
                       f"{self.name}-rx-on")
        self._schedule(frame.end_us + T_IFS_US + 500.0, self._response_timeout,
                       f"{self.name}-deadline")

    def _tune_rx(self, channel: int) -> None:
        self.radio.rx_phy = self.conn.phy
        self.radio.listen(channel)

    def _response_timeout(self) -> None:
        if not self._running or not self._awaiting:
            return
        lock_end = self.radio.medium.lock_end_of(self.radio)
        if lock_end is not None:
            self._schedule(lock_end + 2.0, self._response_timeout,
                           f"{self.name}-extend")
            return
        self._awaiting = False
        self.radio.stop_listening()
        self._missed += 1
        if self._missed >= _ROLE_LOSS_THRESHOLD:
            self._lost("slave silent")
            return
        self._arm_next_poll()

    def _on_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        if not self._running or not self._awaiting:
            return
        if frame.access_address != self.conn.params.access_address:
            return
        self._awaiting = False
        for event in self._events:
            event.cancel()
        self._events.clear()
        self._missed = 0
        self.radio.stop_listening()
        if verify_crc(frame, self.conn.params.crc_init):
            pdu = DataPdu.from_bytes(frame.pdu)
            self.responses_heard += 1
            is_new = self.arq.on_received(pdu.header.sn, pdu.header.nesn)
            if is_new and len(pdu.payload) > 0 and not pdu.is_control:
                if self.on_data is not None:
                    self.on_data(pdu.payload)
        self._arm_next_poll()

    def _arm_next_poll(self) -> None:
        if not self._running:
            return
        self.conn.advance_event()
        next_tx = self.conn.predicted_anchor_us()
        self._schedule(next_tx, self._poll, f"{self.name}-poll")

    def _lost(self, reason: str) -> None:
        self.stop()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "fake-master-lost",
                                  reason=reason)
        if self.on_lost is not None:
            self.on_lost(reason)
