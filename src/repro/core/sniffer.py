"""Passive connection sniffing.

Two synchronisation paths, mirroring the related work the paper builds on
(§II, §V-C):

* **New connections** (Ryan 2013): camp on an advertising channel, capture
  CONNECT_REQ, and follow the hop sequence from its parameters.
* **Established connections** (Ryan 2013 / Cauquil 2017): detect a
  candidate access address on a data channel, recover CRCInit by running
  the CRC LFSR backwards over a captured frame, measure the hop interval
  from successive visits to one channel, and derive the hop increment from
  the inter-channel timing (CSA#1, full channel map).

Once synchronised the sniffer follows the connection event by event,
recording anchors and the Slave's SN/NESN — everything the injector needs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

from repro.errors import SnifferError
from repro.ll.access_address import ADVERTISING_ACCESS_ADDRESS
from repro.ll.connection import ConnectionParams
from repro.ll.csa1 import Csa1
from repro.ll.pdu.advertising import ConnectReq, decode_advertising_pdu
from repro.ll.pdu.control import (
    ChannelMapInd,
    ClockAccuracyReq,
    ConnectionUpdateInd,
    PhyUpdateInd,
    TerminateInd,
    decode_control_pdu,
)
from repro.ll.pdu.data import DataPdu
from repro.ll.pdu.frame import verify_crc
from repro.ll.timing import transmit_window
from repro.phy.crc import ADVERTISING_CRC_INIT, reverse_crc24_init
from repro.phy.signal import RadioFrame
from repro.sim.clock import SCA_FIELD_PPM
from repro.sim.events import Event
from repro.sim.simulator import Simulator
from repro.sim.transceiver import Transceiver
from repro.utils.units import SLOT_US

#: Extra listening margin around predicted anchors, µs.
_FOLLOW_MARGIN_US = 300.0
#: Gap separating two connection events in a single-channel capture, µs.
_EVENT_CLUSTER_GAP_US = 2_000.0
#: Consecutive silent events before we declare the connection lost.
_LOSS_THRESHOLD = 12


def modular_inverse(value: int, modulus: int = 37) -> int:
    """Multiplicative inverse modulo 37 (prime), for hop-increment recovery."""
    value %= modulus
    if value == 0:
        raise SnifferError("cannot invert 0 (same-channel revisit)")
    return pow(value, modulus - 2, modulus)


@dataclass
class SniffedEvent:
    """What the sniffer saw in one connection event."""

    event_count: int
    channel: int
    anchor_us: Optional[float] = None
    master_pdu: Optional[DataPdu] = None
    slave_pdu: Optional[DataPdu] = None
    master_frame_end_us: Optional[float] = None
    slave_start_us: Optional[float] = None


class _RecoveryStage(enum.Enum):
    AA_DETECTION = "aa-detection"
    CRC_RECOVERY = "crc-recovery"
    INTERVAL = "interval"
    INCREMENT = "increment"
    DONE = "done"


from repro.core.state import SniffedConnection  # noqa: E402  (cycle-free)


class ConnectionSniffer:
    """Follows BLE connections with a raw transceiver.

    Args:
        sim: owning simulator.
        radio: the attacker's transceiver (shared with the injector).
        assumed_master_sca_ppm: Master SCA assumed when recovering an
            established connection (CONNECT_REQ capture uses the real one).
    """

    def __init__(self, sim: Simulator, radio: Transceiver,
                 assumed_master_sca_ppm: float = 50.0,
                 use_csa2: bool = False):
        self.sim = sim
        self.radio = radio
        self.assumed_master_sca_ppm = assumed_master_sca_ppm
        #: Bumped when the sniffer starts or stops following, pauses or
        #: resumes, or gets or drops its per-event hook: the fast-forward
        #: audit re-derives its verdict on this follower then.
        self.audit_version = 0
        #: Track CSA#2 connections (BLE 5.0).  In reality the algorithm is
        #: negotiated in the feature exchange the sniffer also observes;
        #: here it is a configuration flag.  Parameter *recovery* of
        #: established connections supports CSA#1 only (as the cited
        #: related work does; Cauquil's CSA#2 defeat is event-counter
        #: recovery, out of scope).
        self.use_csa2 = use_csa2
        self.connection: Optional[SniffedConnection] = None
        #: Called when synchronisation completes.
        self.on_synchronized: Optional[Callable[[SniffedConnection], None]] = None
        self._on_event: Optional[Callable[[SniffedEvent], None]] = None
        #: Called when the followed connection is lost / terminated.
        self.on_lost: Optional[Callable[[str], None]] = None
        self._events: list[Event] = []
        self._current: Optional[SniffedEvent] = None
        self._silent_events = 0
        self._target_aa: Optional[int] = None
        # Established-connection recovery state.
        self._stage: Optional[_RecoveryStage] = None
        self._aa_counts: dict[int, int] = {}
        self._crc_candidate: Optional[int] = None
        self._probe_channel = 0
        self._visit_times: list[float] = []
        self._increment_first: Optional[tuple[int, float]] = None
        self._recovered_interval: Optional[int] = None
        self._following = False
        self._paused = False
        metrics = sim.metrics
        self._metrics = metrics
        self._m_events = metrics.counter("sniffer.events")
        self._m_missed = metrics.counter("sniffer.missed_events")
        self._m_anchors = metrics.counter("sniffer.anchors")
        #: Observed-minus-predicted anchor time: the drift the window
        #: widening has to absorb (paper eq. 5) — negative = frame early.
        self._m_drift = metrics.histogram(
            "sniffer.anchor_drift_us",
            buckets=(-200.0, -100.0, -50.0, -20.0, -10.0, -5.0, -2.0, 0.0,
                     2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0))

    @property
    def on_event(self) -> Optional[Callable[[SniffedEvent], None]]:
        """Called after each followed connection event."""
        return self._on_event

    @on_event.setter
    def on_event(self, hook: Optional[Callable[[SniffedEvent], None]]) -> None:
        self._on_event = hook
        self.audit_version += 1

    @property
    def following(self) -> bool:
        """Whether the sniffer is following its connection."""
        return self._following

    @following.setter
    def following(self, following: bool) -> None:
        self._following = following
        self.audit_version += 1
        engine = self.sim.fast_forward
        if following and engine is not None:
            # A follower joins the link it follows in the fast-forward
            # engine, and leaves with that link.
            engine.enrol(self, self.connection.params.access_address)

    @property
    def paused(self) -> bool:
        """Whether following is paused: the windows stay armed, but the
        sniffer neither tunes in nor takes frames."""
        return self._paused

    @paused.setter
    def paused(self, paused: bool) -> None:
        self._paused = paused
        self.audit_version += 1

    # ------------------------------------------------------------------
    # Scheduling helpers
    # ------------------------------------------------------------------

    def _schedule(self, time_us: float, handler, label: str) -> Event:
        event = self.sim.schedule_at(max(time_us, self.sim.now), handler, label)
        self._events.append(event)
        if len(self._events) > 64:
            # Amortised compaction: fired and cancelled handles are
            # inert (cancel() on them is a no-op), so dropping them
            # lazily keeps this O(1) per call instead of O(n).
            self._events = [e for e in self._events if e.pending]
        return event

    def cancel(self) -> None:
        """Stop all sniffer activity."""
        for event in self._events:
            event.cancel()
        self._events.clear()
        self.following = False

    # ------------------------------------------------------------------
    # Mode 1: capture CONNECT_REQ
    # ------------------------------------------------------------------

    def sniff_new_connections(self, adv_channel: int = 37) -> None:
        """Camp on an advertising channel waiting for a CONNECT_REQ."""
        self._stage = None
        self.radio.on_frame = self._on_adv_frame
        self.radio.listen(adv_channel)

    def _on_adv_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        if frame.access_address != ADVERTISING_ACCESS_ADDRESS:
            return
        if not verify_crc(frame, ADVERTISING_CRC_INIT):
            return
        try:
            pdu = decode_advertising_pdu(frame.pdu)
        except Exception:
            return
        if not isinstance(pdu, ConnectReq):
            return
        params = ConnectionParams.from_ll_data(pdu.ll_data,
                                               use_csa2=self.use_csa2)
        conn = SniffedConnection(params)
        conn.master_address = pdu.init_addr
        conn.slave_address = pdu.adv_addr
        self.connection = conn
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.radio.name, "sniff-connreq",
                                  aa=params.access_address,
                                  interval=params.interval)
        # First data channel and transmit window (paper eq. 1).
        conn.current_channel = self._first_channel(conn)
        window = transmit_window(frame.end_us, params.win_offset,
                                 params.win_size)
        self._start_following(window.start_us - _FOLLOW_MARGIN_US,
                              window.end_us + _FOLLOW_MARGIN_US)

    @staticmethod
    def _first_channel(conn: SniffedConnection) -> int:
        if isinstance(conn.selector, Csa1):
            return conn.selector.next_channel()
        return conn.selector.channel_for_event(0)

    # ------------------------------------------------------------------
    # Mode 2: recover an established connection
    # ------------------------------------------------------------------

    def recover_established(self, probe_channel: int = 0) -> None:
        """Start the AA/CRCInit/interval/increment recovery pipeline."""
        self._stage = _RecoveryStage.AA_DETECTION
        self._probe_channel = probe_channel
        self._aa_counts.clear()
        self._visit_times.clear()
        self._increment_first = None
        self.radio.on_frame = self._on_recovery_frame
        self.radio.listen(probe_channel)

    def _on_recovery_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        if frame.access_address == ADVERTISING_ACCESS_ADDRESS:
            return
        if self._stage is _RecoveryStage.AA_DETECTION:
            self._aa_counts[frame.access_address] = (
                self._aa_counts.get(frame.access_address, 0) + 1
            )
            if self._aa_counts[frame.access_address] >= 2:
                self._target_aa = frame.access_address
                self._stage = _RecoveryStage.CRC_RECOVERY
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.radio.name,
                                          "sniff-aa-found", aa=self._target_aa)
            return
        if frame.access_address != self._target_aa:
            return
        if self._stage is _RecoveryStage.CRC_RECOVERY:
            if frame.corrupted:
                return
            candidate = reverse_crc24_init(frame.pdu, frame.crc)
            if self._crc_candidate is None:
                self._crc_candidate = candidate
            elif candidate == self._crc_candidate:
                self._stage = _RecoveryStage.INTERVAL
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.radio.name,
                                          "sniff-crcinit", crc_init=candidate)
                self._note_visit(frame)
            else:
                self._crc_candidate = candidate
            return
        if self._stage is _RecoveryStage.INTERVAL:
            self._note_visit(frame)
            if len(self._visit_times) >= 2:
                delta = self._visit_times[-1] - self._visit_times[-2]
                interval = max(6, round(delta / (37 * SLOT_US)))
                self._recovered_interval = interval
                self._stage = _RecoveryStage.INCREMENT
                self._increment_first = (self._probe_channel, self._visit_times[-1])
                next_channel = (self._probe_channel + 1) % 37
                self.radio.listen(next_channel)
                if self.sim.trace.enabled:
                    self.sim.trace.record(self.sim.now, self.radio.name,
                                          "sniff-interval", interval=interval)
            return
        if self._stage is _RecoveryStage.INCREMENT:
            if self._is_new_event_start(frame):
                assert self._increment_first is not None
                assert self._recovered_interval is not None
                _, t_first = self._increment_first
                delta_events = round(
                    (frame.start_us - t_first)
                    / (self._recovered_interval * SLOT_US)
                )
                try:
                    hop = modular_inverse(delta_events % 37)
                except SnifferError:
                    return  # pathological timing; wait for the next visit
                if not 5 <= hop <= 16:
                    return
                self._finish_recovery(frame, hop)

    def _note_visit(self, frame: RadioFrame) -> None:
        if self._is_new_event_start(frame):
            self._visit_times.append(frame.start_us)

    def _is_new_event_start(self, frame: RadioFrame) -> bool:
        # A Master frame opens each event; cluster by time gap so the
        # Slave's response 150 µs later is not counted as a new visit.
        last = self._visit_times[-1] if self._visit_times else None
        if self._stage is _RecoveryStage.INCREMENT:
            last = (self._increment_first[1]
                    if self._increment_first is not None else None)
            if last is not None and frame.start_us - last < _EVENT_CLUSTER_GAP_US:
                return False
            return True
        return last is None or frame.start_us - last > _EVENT_CLUSTER_GAP_US

    def _finish_recovery(self, frame: RadioFrame, hop: int) -> None:
        assert self._target_aa is not None
        assert self._crc_candidate is not None
        assert self._recovered_interval is not None
        channel = frame.channel
        params = ConnectionParams(
            access_address=self._target_aa,
            crc_init=self._crc_candidate,
            win_size=1,
            win_offset=0,
            interval=self._recovered_interval,
            latency=0,
            timeout=600,
            channel_map=(1 << 37) - 1,
            hop_increment=hop,
            master_sca_ppm=self.assumed_master_sca_ppm,
        )
        conn = SniffedConnection(params)
        # Position the selector on the channel we just heard (full map:
        # mapped == unmapped).
        conn.selector = Csa1(hop, params.channel_map, last_unmapped=channel)
        conn.current_channel = channel
        conn.note_anchor(frame.start_us)
        self.connection = conn
        self._stage = _RecoveryStage.DONE
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.radio.name, "sniff-recovered",
                                  aa=self._target_aa, hop=hop,
                                  interval=self._recovered_interval)
        # The current event is in progress; follow from the next one.
        self._current = SniffedEvent(conn.event_count, channel,
                                     anchor_us=frame.start_us)
        self.radio.on_frame = self._on_follow_frame
        self.following = True
        self._schedule(frame.end_us + 600.0, self._event_window_closed,
                       "sniff-first-close")

    # ------------------------------------------------------------------
    # Following
    # ------------------------------------------------------------------

    def _start_following(self, open_us: float, close_us: float) -> None:
        conn = self.connection
        assert conn is not None
        self.following = True
        self._silent_events = 0
        self.radio.on_frame = self._on_follow_frame
        self._current = SniffedEvent(conn.event_count, conn.current_channel or 0)
        self._schedule(open_us,
                       lambda: self._listen_if_following(conn.current_channel or 0),
                       "sniff-open")
        self._schedule(close_us, self._event_window_closed, "sniff-close")
        if self.on_synchronized is not None:
            self.on_synchronized(conn)

    def _listen_if_following(self, channel: int) -> None:
        if self._following and not self._paused:
            if self.connection is not None:
                self.radio.rx_phy = self.connection.phy
            self.radio.listen(channel)

    def _on_follow_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        conn = self.connection
        if conn is None or not self._following or self._paused:
            return
        if frame.access_address != conn.params.access_address:
            return
        current = self._current
        if current is None:
            return
        if current.anchor_us is None:
            if self._metrics.enabled:
                self._m_anchors.inc()
                try:
                    self._m_drift.observe(
                        frame.start_us - conn.predicted_anchor_us())
                except SnifferError:
                    pass  # first anchor: nothing predicted yet
            current.anchor_us = frame.start_us
            current.master_frame_end_us = frame.end_us
            conn.note_anchor(frame.start_us)
            if verify_crc(frame, conn.params.crc_init):
                pdu = DataPdu.from_bytes(frame.pdu)
                current.master_pdu = pdu
                conn.master_bits.sn = pdu.header.sn
                conn.master_bits.nesn = pdu.header.nesn
                conn.master_bits.seen = True
                self._observe_master_payload(pdu)
        else:
            current.slave_start_us = frame.start_us
            if verify_crc(frame, conn.params.crc_init):
                pdu = DataPdu.from_bytes(frame.pdu)
                current.slave_pdu = pdu
                conn.slave_bits.sn = pdu.header.sn
                conn.slave_bits.nesn = pdu.header.nesn
                conn.slave_bits.seen = True

    def _observe_master_payload(self, pdu: DataPdu) -> None:
        conn = self.connection
        assert conn is not None
        if not pdu.is_control or len(pdu.payload) == 0:
            return
        try:
            control = decode_control_pdu(pdu.payload)
        except Exception:
            return
        if isinstance(control, ConnectionUpdateInd):
            conn.observe_update(control)
        elif isinstance(control, ChannelMapInd):
            conn.observe_channel_map(control)
        elif isinstance(control, ClockAccuracyReq):
            # The Master just leaked its SCA (paper §V-C).
            conn.params = replace(conn.params,
                                  master_sca_ppm=SCA_FIELD_PPM[control.sca & 7])
        elif isinstance(control, PhyUpdateInd):
            conn.observe_phy_update(control)
        elif isinstance(control, TerminateInd):
            self._lost("terminated")

    def _event_window_closed(self) -> None:
        conn = self.connection
        if conn is None or not self._following:
            return
        current = self._current
        if current is not None:
            if self._metrics.enabled:
                self._m_events.inc()
                if current.anchor_us is None:
                    self._m_missed.inc()
            if current.anchor_us is None:
                self._silent_events += 1
            else:
                self._silent_events = 0
            if self._on_event is not None:
                self._on_event(current)
        if not self._following:
            return  # a callback handed the radio over (e.g. to the injector)
        if self._silent_events >= _LOSS_THRESHOLD:
            self._lost("signal lost")
            return
        self.schedule_next_event()

    def schedule_next_event(self) -> None:
        """Advance to the next event and arm the listening window."""
        conn = self.connection
        assert conn is not None
        channel = conn.advance_event()
        self._current = SniffedEvent(conn.event_count, channel)
        try:
            predicted = conn.predicted_anchor_us()
            widen = conn.estimated_widening_us()
        except SnifferError:
            self._lost("never synchronised")
            return
        self._arm(channel, *self.follow_window(predicted, widen))

    @staticmethod
    def follow_window(predicted_us, widening_us):
        """The listening window ``(open, close)`` around a predicted anchor.

        Works elementwise on numpy arrays too: the fast-forward engine
        derives a block of windows with the very same float operations.
        """
        return (predicted_us - widening_us - _FOLLOW_MARGIN_US,
                predicted_us + widening_us + _FOLLOW_MARGIN_US + 700.0)

    def _arm(self, channel: int, open_us: float, close_us: float) -> None:
        """Schedule one event's listening window on ``channel``."""
        self._schedule(open_us, partial(self._listen_if_following, channel),
                       "sniff-open")
        self._schedule(close_us, self._event_window_closed, "sniff-close")

    def _lost(self, reason: str) -> None:
        self.following = False
        if self.connection is not None:
            self.connection.alive = False
        self.cancel()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.radio.name, "sniff-lost",
                                  reason=reason)
        if self.on_lost is not None:
            self.on_lost(reason)
