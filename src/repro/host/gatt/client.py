"""GATT client: discovery and characteristic access over an ATT client."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.host.att.client import AttClient
from repro.host.att.pdus import (
    AttPdu,
    ReadByGroupTypeRsp,
    ReadByTypeRsp,
    ReadRsp,
    WriteRsp,
)
from repro.host.gatt.uuids import UUID_CHARACTERISTIC


@dataclass
class DiscoveredCharacteristic:
    """A characteristic found during discovery."""

    uuid: int
    properties: int
    declaration_handle: int
    value_handle: int
    cccd_handle: int = 0


@dataclass
class DiscoveredService:
    """A primary service found during discovery."""

    uuid: int
    start_handle: int
    end_handle: int
    characteristics: list[DiscoveredCharacteristic] = field(default_factory=list)


class GattClient:
    """Discovery + read/write/subscribe helpers over :class:`AttClient`.

    The discovery routines are deliberately simple (single Read By Group
    Type / Read By Type sweeps) — enough to drive the simulated devices and
    the attack scenarios.
    """

    def __init__(self, att: AttClient):
        self.att = att
        self.services: list[DiscoveredService] = []
        self.att.on_notification = self._on_notification
        #: Application hook for notifications: (value_handle, value).
        self.on_notification: Optional[Callable[[int, bytes], None]] = None

    def _on_notification(self, handle: int, value: bytes) -> None:
        if self.on_notification is not None:
            self.on_notification(handle, value)

    # ------------------------------------------------------------------
    # Discovery
    # ------------------------------------------------------------------

    def discover_services(self, done: Optional[Callable[[], None]] = None) -> None:
        """Discover primary services, then their characteristics."""
        self.services = []

        def on_services(pdu: AttPdu) -> None:
            if isinstance(pdu, ReadByGroupTypeRsp):
                for start, end, value in pdu.records:
                    self.services.append(
                        DiscoveredService(
                            uuid=int.from_bytes(value, "little"),
                            start_handle=start,
                            end_handle=end,
                        )
                    )
            self._discover_characteristics(list(self.services), done)

        self.att.read_by_group_type(on_services)

    def _discover_characteristics(
        self, remaining: list[DiscoveredService],
        done: Optional[Callable[[], None]],
    ) -> None:
        if not remaining:
            if done is not None:
                done()
            return
        service = remaining.pop(0)

        def on_chars(pdu: AttPdu) -> None:
            if isinstance(pdu, ReadByTypeRsp):
                for handle, value in pdu.records:
                    if len(value) >= 5:
                        service.characteristics.append(
                            DiscoveredCharacteristic(
                                uuid=int.from_bytes(value[3:5], "little"),
                                properties=value[0],
                                declaration_handle=handle,
                                value_handle=int.from_bytes(value[1:3], "little"),
                            )
                        )
            self._discover_characteristics(remaining, done)

        self.att.read_by_type(
            UUID_CHARACTERISTIC, on_chars,
            start=service.start_handle, end=service.end_handle,
        )

    def find_characteristic(self, uuid: int) -> Optional[DiscoveredCharacteristic]:
        """Look up a discovered characteristic by UUID."""
        for service in self.services:
            for char in service.characteristics:
                if char.uuid == uuid:
                    return char
        return None

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def read(self, value_handle: int,
             callback: Callable[[Optional[bytes]], None]) -> None:
        """Read a value; callback gets ``None`` on an ATT error."""

        def on_rsp(pdu: AttPdu) -> None:
            callback(pdu.value if isinstance(pdu, ReadRsp) else None)

        self.att.read(value_handle, on_rsp)

    def write(self, value_handle: int, value: bytes,
              callback: Optional[Callable[[bool], None]] = None) -> None:
        """Write with response; callback gets success/failure."""

        def on_rsp(pdu: AttPdu) -> None:
            if callback is not None:
                callback(isinstance(pdu, WriteRsp))

        self.att.write(value_handle, value, on_rsp)

    def write_command(self, value_handle: int, value: bytes) -> None:
        """Unacknowledged write."""
        self.att.write_command(value_handle, value)

    def subscribe(self, char: DiscoveredCharacteristic,
                  indications: bool = False,
                  callback: Optional[Callable[[bool], None]] = None) -> None:
        """Write the CCCD next to ``char`` to enable notifications.

        The CCCD handle is assumed to be ``value_handle + 1`` when it was
        not discovered explicitly, matching this library's server layout.
        """
        cccd = char.cccd_handle or (char.value_handle + 1)
        value = b"\x02\x00" if indications else b"\x01\x00"

        def on_rsp(pdu: AttPdu) -> None:
            if callback is not None:
                callback(isinstance(pdu, WriteRsp))

        self.att.write(cccd, value, on_rsp)
