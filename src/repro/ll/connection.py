"""Connection parameters and per-connection Link-Layer state.

:class:`ConnectionParams` is the immutable parameter block negotiated in
CONNECT_REQ (paper Table II); :class:`ConnectionState` is the mutable state
a device maintains while connected: event counter, channel selection,
acknowledgement bits, pending update procedures and supervision timing
(paper §III-B5..8).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Optional, Union

from repro.errors import ConnectionStateError, LinkLayerError
from repro.ll.csa1 import Csa1
from repro.ll.csa2 import Csa2
from repro.ll.pdu.advertising import LLData
from repro.ll.pdu.control import (
    PHY_1M,
    PHY_2M,
    PHY_CODED,
    ChannelMapInd,
    ConnectionUpdateInd,
    PhyUpdateInd,
)
from repro.ll.pdu.data import DataPdu
from repro.phy.modulation import PhyMode
from repro.sim.clock import sca_field_to_ppm
from repro.utils.units import SLOT_US


class Role(enum.Enum):
    """Connected-mode role (paper §III-A)."""

    MASTER = "master"
    SLAVE = "slave"


@dataclass(frozen=True)
class ConnectionParams:
    """The parameter block of a connection (CONNECT_REQ LLData + CSA choice).

    Attributes:
        access_address: 32-bit AA of every frame of this connection.
        crc_init: 24-bit CRC seed.
        win_size: transmit-window size in 1.25 ms slots.
        win_offset: transmit-window offset in 1.25 ms slots.
        interval: hop interval in 1.25 ms slots.
        latency: slave latency (events the Slave may skip).
        timeout: supervision timeout in 10 ms units.
        channel_map: 37-bit used-channel bitmask.
        hop_increment: CSA#1 increment (5-16).
        master_sca_ppm: Master's declared sleep-clock accuracy (ppm).
        use_csa2: select CSA#2 (BLE 5.0) instead of CSA#1.
    """

    access_address: int
    crc_init: int
    win_size: int
    win_offset: int
    interval: int
    latency: int
    timeout: int
    channel_map: int
    hop_increment: int
    master_sca_ppm: float = 50.0
    use_csa2: bool = False

    @classmethod
    def from_ll_data(cls, ll_data: LLData, use_csa2: bool = False
                     ) -> "ConnectionParams":
        """Build from a decoded CONNECT_REQ LLData block."""
        return cls(
            access_address=ll_data.access_address,
            crc_init=ll_data.crc_init,
            win_size=ll_data.win_size,
            win_offset=ll_data.win_offset,
            interval=ll_data.interval,
            latency=ll_data.latency,
            timeout=ll_data.timeout,
            channel_map=ll_data.channel_map,
            hop_increment=ll_data.hop_increment,
            master_sca_ppm=sca_field_to_ppm(ll_data.sca),
            use_csa2=use_csa2,
        )

    @property
    def interval_us(self) -> float:
        """``d_connInterval`` (paper eq. 2)."""
        return self.interval * SLOT_US

    @property
    def timeout_us(self) -> float:
        """Supervision timeout in µs."""
        return self.timeout * 10_000.0

    def updated(self, update: ConnectionUpdateInd) -> "ConnectionParams":
        """Parameters after a connection-update procedure applies."""
        return replace(
            self,
            win_size=update.win_size,
            win_offset=update.win_offset,
            interval=update.interval,
            latency=update.latency,
            timeout=update.timeout,
        )

    def with_channel_map(self, channel_map: int) -> "ConnectionParams":
        """Parameters after a channel-map-update procedure applies."""
        return replace(self, channel_map=channel_map)


ChannelSelector = Union[Csa1, Csa2]


def make_channel_selector(params: ConnectionParams) -> ChannelSelector:
    """Instantiate the channel-selection algorithm for ``params``."""
    if params.use_csa2:
        return Csa2(params.access_address, params.channel_map)
    return Csa1(params.hop_increment, params.channel_map)


@dataclass
class PendingUpdate:
    """A connection-update or channel-map procedure awaiting its instant."""

    instant: int
    update: Union[ConnectionUpdateInd, ChannelMapInd]


class ConnectionState:
    """Mutable per-connection Link-Layer state for one device.

    Tracks what paper §III-B describes: the connection event counter, the
    channel selection state, the 1-bit ARQ counters (transmitSeqNum /
    nextExpectedSeqNum), pending instant-based procedures, and supervision.

    Args:
        params: negotiated parameters.
        role: which side of the connection this device is.
    """

    def __init__(self, params: ConnectionParams, role: Role,
                 created_local_us: float = 0.0):
        self.params = params
        self.role = role
        self.created_local_us = created_local_us
        self.event_count = 0
        self.selector = make_channel_selector(params)
        # Hoisted out of channel_for_next_event: the selector kind is fixed
        # for the lifetime of the connection.
        self._selector_is_csa2 = isinstance(self.selector, Csa2)
        self.current_channel: Optional[int] = None
        # ARQ bits, per paper §III-B6.
        self.transmit_seq_num = 0
        self.next_expected_seq_num = 0
        self._last_sent: Optional[DataPdu] = None
        self._peer_acked_last = True
        # Procedures.
        self.pending_update: Optional[PendingUpdate] = None
        self.pending_channel_map: Optional[PendingUpdate] = None
        self.pending_phy: Optional[PendingUpdate] = None
        # Supervision: local-clock time of the last CRC-valid frame.
        self.last_valid_rx_local_us: Optional[float] = None
        self.established = False
        self.terminated = False
        self.terminate_reason: Optional[str] = None
        #: Bumped whenever a procedure is armed or falls due and when the
        #: connection is first established: the fast-forward audit
        #: re-derives its verdict on the link then.
        self.version = 0

    # ------------------------------------------------------------------
    # Channel selection
    # ------------------------------------------------------------------

    def channel_for_next_event(self) -> int:
        """Advance to the next connection event's channel.

        Must be called exactly once per connection event (including events
        the device skips or misses — the hop sequence advances regardless).
        """
        if self._selector_is_csa2:
            self.current_channel = self.selector.channel_for_event(self.event_count)
        else:
            self.current_channel = self.selector.next_channel()
        return self.current_channel

    # ------------------------------------------------------------------
    # Instant-based procedures (paper §III-B7, Fig. 2)
    # ------------------------------------------------------------------

    def schedule_update(self, update: ConnectionUpdateInd) -> None:
        """Store a connection update to apply at its instant."""
        if self.pending_update is not None:
            raise ConnectionStateError("a connection update is already pending")
        if not self.instant_in_future(update.instant):
            raise ConnectionStateError(
                f"update instant {update.instant} is in the past "
                f"(event count {self.event_count})"
            )
        self.pending_update = PendingUpdate(update.instant, update)
        self.version += 1

    def schedule_channel_map(self, update: ChannelMapInd) -> None:
        """Store a channel-map update to apply at its instant."""
        if self.pending_channel_map is not None:
            raise ConnectionStateError("a channel map update is already pending")
        if not self.instant_in_future(update.instant):
            raise ConnectionStateError(
                f"channel map instant {update.instant} is in the past"
            )
        self.pending_channel_map = PendingUpdate(update.instant, update)
        self.version += 1

    def schedule_phy(self, update: "PhyUpdateInd") -> None:
        """Store a PHY update to apply at its instant."""
        if self.pending_phy is not None:
            raise ConnectionStateError("a PHY update is already pending")
        if not self.instant_in_future(update.instant):
            raise ConnectionStateError(
                f"PHY update instant {update.instant} is in the past"
            )
        self.pending_phy = PendingUpdate(update.instant, update)
        self.version += 1

    def take_due_phy(self) -> Optional["PhyUpdateInd"]:
        """Pop the PHY update if its instant is the current event."""
        pending = self.pending_phy
        if pending is not None and pending.instant == self.event_count:
            self.pending_phy = None
            self.version += 1
            return pending.update  # type: ignore[return-value]
        return None

    def instant_in_future(self, instant: int) -> bool:
        """Whether ``instant`` is ahead of the current event counter.

        The comparison is modulo 2^16 with the spec's half-range rule: an
        instant is in the future if ``(instant - event_count) mod 2^16`` is
        less than 32767.
        """
        return 0 < ((instant - self.event_count) & 0xFFFF) < 32767

    def take_due_channel_map(self) -> Optional[ChannelMapInd]:
        """Pop the channel-map update if its instant is the current event."""
        pending = self.pending_channel_map
        if pending is not None and pending.instant == self.event_count:
            self.pending_channel_map = None
            self.version += 1
            assert isinstance(pending.update, ChannelMapInd)
            return pending.update
        return None

    def take_due_update(self) -> Optional[ConnectionUpdateInd]:
        """Pop the connection update if its instant is the current event."""
        pending = self.pending_update
        if pending is not None and pending.instant == self.event_count:
            self.pending_update = None
            self.version += 1
            assert isinstance(pending.update, ConnectionUpdateInd)
            return pending.update
        return None

    def apply_channel_map(self, update: ChannelMapInd) -> None:
        """Apply a due channel-map update to params and selector."""
        self.params = self.params.with_channel_map(update.channel_map)
        self.selector.set_channel_map(update.channel_map)

    def apply_update(self, update: ConnectionUpdateInd) -> None:
        """Apply a due connection update to params (timing handled by roles)."""
        self.params = self.params.updated(update)

    # ------------------------------------------------------------------
    # 1-bit ARQ (paper §III-B6, the consistency core of eq. 6)
    # ------------------------------------------------------------------

    def bits_for_transmit(self) -> tuple[int, int]:
        """(SN, NESN) to stamp on the next transmitted PDU."""
        return self.transmit_seq_num, self.next_expected_seq_num

    def on_received_bits(self, sn: int, nesn: int) -> tuple[bool, bool]:
        """Process the SN/NESN of a CRC-valid received frame.

        Returns:
            ``(is_new_data, peer_acked)`` — whether the peer's payload is
            new (vs a retransmission we must ignore), and whether the peer
            acknowledged our last PDU (so we may send fresh data).
        """
        is_new_data = sn == self.next_expected_seq_num
        if is_new_data:
            self.next_expected_seq_num ^= 1
        peer_acked = nesn != self.transmit_seq_num
        if peer_acked:
            self.transmit_seq_num ^= 1
            self._peer_acked_last = True
        else:
            self._peer_acked_last = False
        return is_new_data, peer_acked

    @property
    def must_retransmit(self) -> bool:
        """Whether the last sent PDU needs retransmission."""
        return not self._peer_acked_last and self._last_sent is not None

    def note_sent(self, pdu: DataPdu) -> None:
        """Record the PDU just handed to the radio (for retransmission)."""
        self._last_sent = pdu
        self._peer_acked_last = False

    @property
    def last_sent(self) -> Optional[DataPdu]:
        """The most recently transmitted PDU."""
        return self._last_sent

    # ------------------------------------------------------------------
    # Supervision
    # ------------------------------------------------------------------

    def note_valid_rx(self, local_time_us: float) -> None:
        """Reset the supervision timer after a CRC-valid frame."""
        self.last_valid_rx_local_us = local_time_us
        if not self.established:
            self.established = True
            self.version += 1

    def supervision_expired(self, local_time_us: float) -> bool:
        """Whether the supervision timeout has elapsed without traffic.

        Before the connection is established the spec uses
        ``6 * interval`` as the limit; afterwards the negotiated timeout.
        """
        if self.last_valid_rx_local_us is None:
            return local_time_us - self.created_local_us > 6 * self.params.interval_us
        limit = (
            self.params.timeout_us
            if self.established
            else 6 * self.params.interval_us
        )
        return local_time_us - self.last_valid_rx_local_us > limit

    def terminate(self, reason: str) -> None:
        """Mark the connection closed."""
        self.terminated = True
        self.terminate_reason = reason


def phy_mode_from_mask(mask: int) -> PhyMode:
    """Map a PHY-update bitmask to a :class:`PhyMode` (first bit set wins)."""
    if mask & PHY_2M:
        return PhyMode.LE_2M
    if mask & PHY_CODED:
        return PhyMode.LE_CODED_S8
    if mask & PHY_1M:
        return PhyMode.LE_1M
    raise LinkLayerError(f"empty PHY mask: {mask:#x}")
