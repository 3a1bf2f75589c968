"""Common Link-Layer device machinery shared by Master and Slave roles.

A :class:`LinkLayerDevice` owns a transceiver and a drifting sleep clock,
provides local-clock scheduling (so every timing decision a real stack
makes on its own crystal is made on the simulated one), the transmit queue
with the 1-bit ARQ retransmission rule, and the optional encryption hook.
Role-specific event scheduling lives in :mod:`repro.ll.slave` and
:mod:`repro.ll.master`.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional

from repro.crypto.session import LinkEncryption, MicError
from repro.errors import ConnectionStateError
from repro.ll.connection import ConnectionState
from repro.ll.pdu.address import BdAddress
from repro.ll.pdu.control import ControlPdu
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.pdu.frame import compute_crc
from repro.phy.modulation import PhyMode
from repro.phy.signal import RadioFrame
from repro.sim.clock import SleepClock
from repro.sim.events import Event
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator


class LinkLayerDevice:
    """Base class for simulated BLE Link-Layer devices.

    Args:
        sim: owning simulator.
        medium: shared radio medium; the device name must be placed in the
            medium's topology before any transmission.
        name: device name (also the topology key).
        address: the device's BD_ADDR.
        sca_ppm: declared sleep-clock accuracy; the actual rate error is
            drawn within ±sca_ppm.
        tx_power_dbm: transmit power.
        phy: physical layer for all traffic (LE 1M by default, as in the
            paper's experiments).
    """

    def __init__(
        self,
        sim: Simulator,
        medium: Medium,
        name: str,
        address: BdAddress,
        sca_ppm: float = 50.0,
        tx_power_dbm: float = 0.0,
        phy: PhyMode = PhyMode.LE_1M,
    ):
        self.sim = sim
        self.medium = medium
        self.name = name
        self.address = address
        self.phy = phy
        self.clock = SleepClock(
            sca_ppm, rng=sim.streams.get(f"clock-{name}"), jitter_us=1.0
        )
        self.radio = self._make_radio(tx_power_dbm)
        self.conn: Optional[ConnectionState] = None
        self.peer_address: Optional[BdAddress] = None
        self.encryption: Optional[LinkEncryption] = None
        self._tx_queue: deque[DataPdu] = deque()
        #: Bumped when encryption or a termination is set up on the
        #: connection: the fast-forward audit re-derives its verdict on the
        #: link then (or when the connection itself is a new one).
        self.audit_version = 0
        # Host-facing callbacks.
        self.on_connected: Optional[Callable[[], None]] = None
        self.on_disconnected: Optional[Callable[[str], None]] = None
        self.on_data: Optional[Callable[[bytes], None]] = None
        self.on_control: Optional[Callable[[ControlPdu], None]] = None

    def _make_radio(self, tx_power_dbm: float):
        from repro.sim.transceiver import Transceiver

        radio = Transceiver(
            self.sim, self.medium, self.name, clock=self.clock,
            tx_power_dbm=tx_power_dbm,
        )
        radio.on_frame = self._on_frame
        return radio

    # ------------------------------------------------------------------
    # Local-clock scheduling
    # ------------------------------------------------------------------

    @property
    def local_now(self) -> float:
        """This device's clock reading at the current true time."""
        return self.clock.local_from_true(self.sim.now)

    def schedule_local(
        self, local_time_us: float, handler: Callable[[], None], label: str = ""
    ) -> Event:
        """Schedule ``handler`` at a *local-clock* time, with jitter.

        The conversion to true time is where clock drift becomes physically
        observable: two devices scheduling "the same" local instant wake at
        different true times.
        """
        true_time = self.clock.true_from_local(local_time_us)
        true_time += self.clock.sample_jitter()
        true_time = max(true_time, self.sim.now)
        return self.sim.schedule_at(true_time, handler, label or f"{self.name}-local")

    # ------------------------------------------------------------------
    # Transmit queue / ARQ
    # ------------------------------------------------------------------

    def send_data(self, payload: bytes) -> None:
        """Queue an upper-layer (L2CAP) payload for transmission."""
        if len(payload) == 0:
            raise ConnectionStateError("refusing to queue an empty payload")
        self._tx_queue.append(DataPdu.make(LLID.DATA_START, payload))

    def send_control(self, control: ControlPdu) -> None:
        """Queue an LL control PDU for transmission."""
        self._tx_queue.append(DataPdu.make(LLID.CONTROL, control.to_payload()))

    def queued_pdus(self) -> int:
        """Number of PDUs waiting in the transmit queue."""
        return len(self._tx_queue)

    def clear_queue(self) -> None:
        """Drop all queued PDUs (used when a connection ends)."""
        self._tx_queue.clear()

    def next_pdu_to_send(self) -> DataPdu:
        """Choose the PDU for the current transmit opportunity.

        Applies the ARQ rule of paper §III-B6: retransmit the last PDU
        until acknowledged, then pull new data from the queue, otherwise
        send the empty PDU.  Encryption (when active) is applied at this
        point so retransmissions reuse the already-encrypted bytes.
        """
        conn = self._require_conn()
        sn, nesn = conn.bits_for_transmit()
        if conn.must_retransmit:
            last = conn.last_sent
            assert last is not None
            pdu = last.with_bits(sn, nesn)
        elif self._tx_queue:
            pdu = self._tx_queue.popleft()
            if self.encryption is not None:
                pdu = self.encryption.encrypt_pdu(pdu)
            pdu = pdu.with_bits(sn, nesn)
        else:
            pdu = DataPdu.empty(sn=sn, nesn=nesn)
        conn.note_sent(pdu)
        return pdu

    # ------------------------------------------------------------------
    # Frame transmission
    # ------------------------------------------------------------------

    def transmit_pdu(self, pdu: DataPdu, channel: int) -> RadioFrame:
        """Transmit a data-channel PDU on the connection's AA now."""
        conn = self._require_conn()
        pdu_bytes = pdu.to_bytes()
        crc = compute_crc(pdu_bytes, conn.params.crc_init)
        return self.radio.transmit(
            conn.params.access_address, pdu_bytes, crc, channel, self.phy
        )

    # ------------------------------------------------------------------
    # Reception plumbing (role classes override)
    # ------------------------------------------------------------------

    def _on_frame(self, frame: RadioFrame, rssi_dbm: float) -> None:
        raise NotImplementedError

    def decrypt_if_needed(self, pdu: DataPdu) -> Optional[DataPdu]:
        """Decrypt a received PDU when encryption is active.

        Returns ``None`` — and terminates the connection — when the MIC
        fails: this is the DoS residual of InjectaBLE against encrypted
        links (paper §IV).
        """
        if self.encryption is None:
            return pdu
        try:
            return self.encryption.decrypt_pdu(pdu)
        except MicError:
            if self.sim.trace.enabled:
                self.sim.trace.record(self.sim.now, self.name, "mic-failure")
            self.disconnect("MIC failure")
            return None

    # ------------------------------------------------------------------
    # Connection lifecycle helpers
    # ------------------------------------------------------------------

    def _require_conn(self) -> ConnectionState:
        if self.conn is None:
            raise ConnectionStateError(f"{self.name}: not in a connection")
        return self.conn

    @property
    def is_connected(self) -> bool:
        """Whether the device currently holds a live connection."""
        return self.conn is not None and not self.conn.terminated

    def _enrol(self) -> None:
        """Enrol this end of the connection just formed in the fast-forward
        engine, if the simulator has one; it leaves in :meth:`disconnect`."""
        engine = self.sim.fast_forward
        if engine is not None:
            engine.enrol(self, self.conn.params.access_address)

    def disconnect(self, reason: str) -> None:
        """Tear down the connection state and notify the host."""
        if self.conn is None:
            return
        engine = self.sim.fast_forward
        if engine is not None:
            engine.leave(self)
        self.conn.terminate(reason)
        self.conn = None
        self.encryption = None
        self.clear_queue()
        self.radio.stop_listening()
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "disconnected", reason=reason)
        if self.on_disconnected is not None:
            self.on_disconnected(reason)

    def _notify_connected(self) -> None:
        if self.sim.trace.enabled:
            self.sim.trace.record(self.sim.now, self.name, "connected")
        if self.on_connected is not None:
            self.on_connected()

    def _deliver_data(self, payload: bytes) -> None:
        if self.on_data is not None:
            self.on_data(payload)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, addr={self.address})"
