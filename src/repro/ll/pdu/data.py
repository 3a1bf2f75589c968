"""Data-channel PDUs: the 2-byte header and payload.

The header carries the fields at the heart of the injection attack's
consistency requirement (paper §V-C, eq. 6): the *Sequence Number* (SN) and
*Next Expected Sequence Number* (NESN) bits that implement the Link Layer's
1-bit sliding-window ARQ, plus the *More Data* (MD) bit and the LLID that
distinguishes L2CAP data from LL control traffic.

Header byte 0 layout (LSB first): LLID[0:2], NESN[2], SN[3], MD[4], RFU[5:8].
Byte 1 is the payload length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import CodecError

#: Maximum payload of an (un-extended) data PDU.
MAX_DATA_PAYLOAD = 251


class LLID(enum.IntEnum):
    """Logical link identifier of a data-channel PDU."""

    #: Continuation fragment of an L2CAP message, or empty PDU.
    DATA_CONTINUATION = 0b01
    #: Start of an L2CAP message (or a complete one).
    DATA_START = 0b10
    #: LL control PDU.
    CONTROL = 0b11


@dataclass(frozen=True)
class DataHeader:
    """Decoded 2-byte data-channel PDU header.

    Attributes:
        llid: logical link identifier.
        nesn: next expected sequence number bit.
        sn: sequence number bit.
        md: more-data bit (keeps a connection event open).
        length: payload length in bytes.
    """

    llid: LLID
    nesn: int = 0
    sn: int = 0
    md: int = 0
    length: int = 0

    def __post_init__(self) -> None:
        for name in ("nesn", "sn", "md"):
            bit = getattr(self, name)
            if bit not in (0, 1):
                raise CodecError(f"{name} must be 0 or 1, got {bit}")
        if not 0 <= self.length <= MAX_DATA_PAYLOAD:
            raise CodecError(f"payload length out of range: {self.length}")

    def to_bytes(self) -> bytes:
        """Encode the header."""
        byte0 = (
            int(self.llid)
            | (self.nesn << 2)
            | (self.sn << 3)
            | (self.md << 4)
        )
        return bytes((byte0, self.length))

    @classmethod
    def from_bytes(cls, data: bytes) -> "DataHeader":
        """Decode a header from at least 2 bytes."""
        if len(data) < 2:
            raise CodecError(f"data header needs 2 bytes, got {len(data)}")
        byte0 = data[0]
        llid_raw = byte0 & 0b11
        if llid_raw == 0:
            raise CodecError("reserved LLID 0b00")
        return cls(
            llid=LLID(llid_raw),
            nesn=(byte0 >> 2) & 1,
            sn=(byte0 >> 3) & 1,
            md=(byte0 >> 4) & 1,
            length=data[1],
        )


@dataclass(frozen=True)
class DataPdu:
    """A full data-channel PDU: header plus payload.

    The empty PDU (``LLID=DATA_CONTINUATION``, length 0) is what a device
    sends when polled without data to transmit (paper §III-B5).
    """

    header: DataHeader
    payload: bytes = b""

    def __post_init__(self) -> None:
        if len(self.payload) != self.header.length:
            raise CodecError(
                f"payload length {len(self.payload)} != header length "
                f"{self.header.length}"
            )

    @classmethod
    def make(cls, llid: LLID, payload: bytes = b"", sn: int = 0, nesn: int = 0,
             md: int = 0) -> "DataPdu":
        """Build a PDU with a consistent header length field."""
        return cls(DataHeader(llid, nesn, sn, md, len(payload)), payload)

    @classmethod
    def empty(cls, sn: int = 0, nesn: int = 0) -> "DataPdu":
        """The empty (keep-alive / ack-only) PDU."""
        return cls.make(LLID.DATA_CONTINUATION, b"", sn=sn, nesn=nesn)

    @property
    def is_empty(self) -> bool:
        """Whether this is the empty PDU."""
        return (
            self.header.llid is LLID.DATA_CONTINUATION and self.header.length == 0
        )

    @property
    def is_control(self) -> bool:
        """Whether the payload is an LL control PDU."""
        return self.header.llid is LLID.CONTROL

    def to_bytes(self) -> bytes:
        """Full on-air PDU bytes (header + payload)."""
        return self.header.to_bytes() + self.payload

    @classmethod
    def from_bytes(cls, data: bytes) -> "DataPdu":
        """Decode a PDU; validates the length field against the buffer."""
        header = DataHeader.from_bytes(data)
        payload = data[2 : 2 + header.length]
        if len(payload) != header.length:
            raise CodecError(
                f"truncated PDU: header says {header.length}, "
                f"have {len(payload)}"
            )
        if len(data) != 2 + header.length:
            raise CodecError(
                f"trailing bytes after PDU: {len(data) - 2 - header.length}"
            )
        return cls(header, payload)

    def with_bits(self, sn: int, nesn: int) -> "DataPdu":
        """Copy of this PDU with new SN/NESN bits (used at transmit time)."""
        return DataPdu(
            DataHeader(self.header.llid, nesn, sn, self.header.md,
                       self.header.length),
            self.payload,
        )
