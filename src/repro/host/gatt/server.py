"""GATT server: registers services into an ATT database and serves them.

Also owns server-initiated traffic: notifications and indications, gated on
the CCCD the client writes (the smartwatch's SMS characteristic works this
way in the Scenario A/D experiments).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import HostError
from repro.host.att.pdus import HandleValueInd, HandleValueNtf
from repro.host.att.server import AttributeDb, AttServer
from repro.host.gatt.attributes import Characteristic, Service
from repro.host.gatt.uuids import (
    UUID_CCCD,
    UUID_CHARACTERISTIC,
    UUID_PRIMARY_SERVICE,
)


class GattServer:
    """A GATT server over an ATT server.

    Args:
        send: callable delivering raw ATT bytes to the connected client
            (used for notifications/indications); may be swapped after
            construction via :attr:`send`.
        mtu: ATT MTU.
    """

    def __init__(self, send: Optional[Callable[[bytes], None]] = None,
                 mtu: int = 23):
        self.db = AttributeDb()
        self.att = AttServer(self.db, mtu=mtu)
        self.send = send
        self.services: list[Service] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def register(self, service: Service) -> Service:
        """Flatten ``service`` into the ATT database."""
        self.db.allocate(
            UUID_PRIMARY_SERVICE,
            value=service.uuid.to_bytes(2, "little"),
            readable=True,
        )
        for char in service.characteristics:
            self._register_characteristic(char)
        self.services.append(service)
        return service

    def _register_characteristic(self, char: Characteristic) -> None:
        decl = self.db.allocate(UUID_CHARACTERISTIC, readable=True)
        value_attr = self.db.allocate(
            char.uuid,
            value=char.value,
            readable=char.read,
            writable=char.writable,
        )
        char.value_handle = value_attr.handle
        decl.value = char.declaration_value()

        def write_hook(_handle: int, value: bytes, c=char) -> None:
            c.value = value
            if c.on_write is not None:
                c.on_write(value)

        def read_hook(_handle: int, c=char) -> bytes:
            if c.on_read is not None:
                return c.on_read()
            return c.value

        value_attr.write_hook = write_hook
        value_attr.read_hook = read_hook
        if char.notify or char.indicate:
            cccd = self.db.allocate(
                UUID_CCCD, value=b"\x00\x00", readable=True, writable=True
            )
            char.cccd_handle = cccd.handle

    def find_characteristic(self, uuid: int) -> Optional[Characteristic]:
        """Search every service for a characteristic UUID."""
        for service in self.services:
            char = service.find(uuid)
            if char is not None:
                return char
        return None

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def handle_request(self, request: bytes) -> Optional[bytes]:
        """Serve one incoming ATT PDU."""
        return self.att.handle_request(request)

    def _subscribed(self, char: Characteristic, bit: int) -> bool:
        if char.cccd_handle == 0:
            return False
        cccd = self.db.get(char.cccd_handle)
        assert cccd is not None
        value = int.from_bytes(cccd.value or b"\x00\x00", "little")
        return bool(value & bit)

    def notify(self, char: Characteristic, value: bytes,
               force: bool = False) -> bool:
        """Send a Handle Value Notification if the client subscribed.

        Args:
            char: the characteristic to notify on.
            value: new value (also stored).
            force: bypass the CCCD check (used by attack stacks).

        Returns:
            Whether a notification was actually sent.
        """
        if self.send is None:
            raise HostError("GATT server has no transport")
        char.value = value
        if not force and not self._subscribed(char, 0x0001):
            return False
        self.send(HandleValueNtf(char.value_handle, value).to_bytes())
        return True

    def indicate(self, char: Characteristic, value: bytes) -> bool:
        """Send a Handle Value Indication if the client subscribed."""
        if self.send is None:
            raise HostError("GATT server has no transport")
        char.value = value
        if not self._subscribed(char, 0x0002):
            return False
        self.send(HandleValueInd(char.value_handle, value).to_bytes())
        return True
