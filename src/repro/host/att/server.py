"""ATT server: the attribute database and request handling.

An ATT server is "a database of attributes" (paper §III-A): each attribute
has a handle, a 16-bit type UUID, a value and permissions.  The server maps
every incoming request PDU to a response PDU; writes can trigger
application callbacks — which is how an injected Write Request turns the
simulated lightbulb off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import AttError as AttException
from repro.errors import HostError
from repro.host.att.opcodes import AttError, AttOpcode
from repro.host.att.pdus import (
    AttPdu,
    ErrorRsp,
    ExchangeMtuReq,
    ExchangeMtuRsp,
    FindInformationReq,
    FindInformationRsp,
    HandleValueCfm,
    ReadByGroupTypeReq,
    ReadByGroupTypeRsp,
    ReadByTypeReq,
    ReadByTypeRsp,
    ReadReq,
    ReadRsp,
    WriteCmd,
    WriteReq,
    WriteRsp,
    decode_att_pdu,
)

#: Type of a write callback: (handle, value) -> None.
WriteHook = Callable[[int, bytes], None]
#: Type of a read callback: (handle,) -> value; overrides the stored value.
ReadHook = Callable[[int], bytes]


@dataclass
class Attribute:
    """One row of the ATT database.

    Attributes:
        handle: 16-bit attribute handle (unique, ascending).
        type_uuid: 16-bit attribute type.
        value: current value bytes.
        readable / writable: permission flags.
        write_hook: called after a permitted write updates ``value``.
        read_hook: if set, produces the value returned to readers.
    """

    handle: int
    type_uuid: int
    value: bytes = b""
    readable: bool = True
    writable: bool = False
    write_hook: Optional[WriteHook] = None
    read_hook: Optional[ReadHook] = None

    def current_value(self) -> bytes:
        """Value as seen by a reader (hook takes precedence)."""
        if self.read_hook is not None:
            return self.read_hook(self.handle)
        return self.value


class AttributeDb:
    """Ordered collection of attributes with range queries."""

    def __init__(self) -> None:
        self._attrs: dict[int, Attribute] = {}
        self._next_handle = 1

    def add(self, attribute: Attribute) -> Attribute:
        """Insert an attribute; handles must strictly increase."""
        if attribute.handle in self._attrs:
            raise HostError(f"duplicate handle 0x{attribute.handle:04X}")
        if attribute.handle < self._next_handle:
            raise HostError(
                f"handle 0x{attribute.handle:04X} not ascending "
                f"(next free is 0x{self._next_handle:04X})"
            )
        self._attrs[attribute.handle] = attribute
        self._next_handle = attribute.handle + 1
        return attribute

    def allocate(self, type_uuid: int, **kwargs) -> Attribute:
        """Create an attribute at the next free handle."""
        attr = Attribute(handle=self._next_handle, type_uuid=type_uuid, **kwargs)
        return self.add(attr)

    def get(self, handle: int) -> Optional[Attribute]:
        """Attribute at ``handle``, or ``None``."""
        return self._attrs.get(handle)

    def in_range(self, start: int, end: int) -> list[Attribute]:
        """Attributes with ``start <= handle <= end``, ascending."""
        return [self._attrs[h] for h in sorted(self._attrs) if start <= h <= end]

    def by_type(self, type_uuid: int, start: int = 1, end: int = 0xFFFF
                ) -> list[Attribute]:
        """Attributes of a given type within a handle range."""
        return [a for a in self.in_range(start, end) if a.type_uuid == type_uuid]

    def __len__(self) -> int:
        return len(self._attrs)

    def handles(self) -> list[int]:
        """All handles, ascending."""
        return sorted(self._attrs)


class AttServer:
    """Request/response engine over an :class:`AttributeDb`.

    Args:
        db: the attribute database to serve.
        mtu: server MTU used in Exchange MTU and to truncate responses.
    """

    def __init__(self, db: AttributeDb, mtu: int = 23):
        self.db = db
        self.mtu = mtu

    def handle_request(self, request: bytes) -> Optional[bytes]:
        """Process an incoming ATT PDU; returns the response bytes.

        Commands (Write Command) and confirmations return ``None`` because
        the protocol defines no response for them.
        """
        try:
            pdu = decode_att_pdu(request)
        except Exception:
            return ErrorRsp(request[0] if request else 0, 0,
                            AttError.INVALID_PDU).to_bytes()
        response = self._dispatch(pdu, request)
        return response.to_bytes() if response is not None else None

    def _dispatch(self, pdu: AttPdu, raw: bytes) -> Optional[AttPdu]:
        if isinstance(pdu, ExchangeMtuReq):
            return ExchangeMtuRsp(mtu=self.mtu)
        if isinstance(pdu, ReadReq):
            return self._read(pdu)
        if isinstance(pdu, WriteReq):
            return self._write(pdu)
        if isinstance(pdu, WriteCmd):
            self._write_no_rsp(pdu)
            return None
        if isinstance(pdu, ReadByTypeReq):
            return self._read_by_type(pdu)
        if isinstance(pdu, ReadByGroupTypeReq):
            return self._read_by_group_type(pdu)
        if isinstance(pdu, FindInformationReq):
            return self._find_information(pdu)
        if isinstance(pdu, HandleValueCfm):
            return None
        return ErrorRsp(raw[0], 0, AttError.REQUEST_NOT_SUPPORTED)

    def _read(self, pdu: ReadReq) -> AttPdu:
        attr = self.db.get(pdu.handle)
        if attr is None:
            return ErrorRsp(AttOpcode.READ_REQ, pdu.handle,
                            AttError.INVALID_HANDLE)
        if not attr.readable:
            return ErrorRsp(AttOpcode.READ_REQ, pdu.handle,
                            AttError.READ_NOT_PERMITTED)
        return ReadRsp(attr.current_value()[: self.mtu - 1])

    def _write(self, pdu: WriteReq) -> AttPdu:
        attr = self.db.get(pdu.handle)
        if attr is None:
            return ErrorRsp(AttOpcode.WRITE_REQ, pdu.handle,
                            AttError.INVALID_HANDLE)
        if not attr.writable:
            return ErrorRsp(AttOpcode.WRITE_REQ, pdu.handle,
                            AttError.WRITE_NOT_PERMITTED)
        try:
            attr.value = pdu.value
            if attr.write_hook is not None:
                attr.write_hook(pdu.handle, pdu.value)
        except AttException as exc:
            return ErrorRsp(AttOpcode.WRITE_REQ, pdu.handle, AttError(exc.code))
        return WriteRsp()

    def _write_no_rsp(self, pdu: WriteCmd) -> None:
        attr = self.db.get(pdu.handle)
        if attr is None or not attr.writable:
            return  # commands fail silently by design
        attr.value = pdu.value
        if attr.write_hook is not None:
            attr.write_hook(pdu.handle, pdu.value)

    def _read_by_type(self, pdu: ReadByTypeReq) -> AttPdu:
        matches = [
            a for a in self.db.by_type(pdu.uuid, pdu.start_handle, pdu.end_handle)
            if a.readable
        ]
        if not matches:
            return ErrorRsp(AttOpcode.READ_BY_TYPE_REQ, pdu.start_handle,
                            AttError.ATTRIBUTE_NOT_FOUND)
        # All records must share one length: serve the first run.
        first_len = len(matches[0].current_value())
        records = []
        for attr in matches:
            value = attr.current_value()
            if len(value) != first_len:
                break
            records.append((attr.handle, value))
        return ReadByTypeRsp(tuple(records))

    def _read_by_group_type(self, pdu: ReadByGroupTypeReq) -> AttPdu:
        groups = self.db.by_type(pdu.uuid, pdu.start_handle, pdu.end_handle)
        if not groups:
            return ErrorRsp(AttOpcode.READ_BY_GROUP_TYPE_REQ, pdu.start_handle,
                            AttError.ATTRIBUTE_NOT_FOUND)
        handles = self.db.handles()
        records = []
        first_len = len(groups[0].current_value())
        for attr in groups:
            if len(attr.current_value()) != first_len:
                break
            later_groups = [
                h for h in handles
                if h > attr.handle and self.db.get(h).type_uuid == pdu.uuid
            ]
            end = (later_groups[0] - 1) if later_groups else handles[-1]
            records.append((attr.handle, end, attr.current_value()))
        return ReadByGroupTypeRsp(tuple(records))

    def _find_information(self, pdu: FindInformationReq) -> AttPdu:
        attrs = self.db.in_range(pdu.start_handle, pdu.end_handle)
        if not attrs:
            return ErrorRsp(AttOpcode.FIND_INFORMATION_REQ, pdu.start_handle,
                            AttError.ATTRIBUTE_NOT_FOUND)
        pairs = tuple((a.handle, a.type_uuid) for a in attrs[:5])
        return FindInformationRsp(pairs)
