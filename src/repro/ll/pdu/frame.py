"""Frame-level helpers tying PDUs to the on-air representation.

The simulator's :class:`~repro.phy.signal.RadioFrame` carries un-whitened
PDU bytes and the CRC as an integer (whitening is an involution the medium
treats as transparent; corruption is modelled at the bit level by the
collision model).  These helpers compute/verify CRCs and decode data frames
into typed PDUs.
"""

from __future__ import annotations

from typing import Optional

from repro.ll.pdu.data import DataPdu
from repro.phy.crc import ADVERTISING_CRC_INIT, crc24
from repro.phy.signal import RadioFrame


def compute_crc(pdu_bytes: bytes, crc_init: int) -> int:
    """CRC-24 of a PDU under the connection's CRCInit."""
    return crc24(pdu_bytes, crc_init)


def compute_advertising_crc(pdu_bytes: bytes) -> int:
    """CRC-24 of an advertising PDU (fixed 0x555555 seed)."""
    return crc24(pdu_bytes, ADVERTISING_CRC_INIT)


def verify_crc(frame: RadioFrame, crc_init: int) -> bool:
    """Whether ``frame`` passes CRC under ``crc_init``.

    A frame marked corrupted by the collision model never verifies: the
    flipped bits would change the computed CRC (we model corruption as a
    boolean rather than mutating bytes, so integrity checking is exact).
    """
    if frame.corrupted:
        return False
    return crc24(frame.pdu, crc_init) == frame.crc


def decode_data_frame(frame: RadioFrame, crc_init: int) -> Optional[DataPdu]:
    """Decode a data-channel frame into a :class:`DataPdu`.

    Returns ``None`` when the CRC does not verify (the Link Layer must then
    apply the NESN-retransmission rule rather than raising), and raises
    :class:`~repro.errors.CodecError` for structurally invalid PDUs, which
    indicates a bug rather than an on-air loss.
    """
    if not verify_crc(frame, crc_init):
        return None
    return DataPdu.from_bytes(frame.pdu)

