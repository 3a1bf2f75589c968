"""Dissection of captured frames into a Wireshark-style text log.

The capture itself is :class:`~repro.telemetry.capture.FrameRecorder`,
the one tap on the medium: it learns CRCInit from each CONNECT_REQ,
gives every frame its CRC verdict and infers its direction from
connection-event timing.  This module only reads what it recorded:
:func:`dissect` names advertising PDUs, shows data-channel frames with
their direction and SN/NESN bits, and decodes LL control opcodes, ATT
operations and SMP pairing steps; :func:`render_capture` lays the
frames out one per line.

The renderer is deliberately plain text so captures diff cleanly in
tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.host.att.pdus import decode_att_pdu
from repro.host.gap import local_name_of
from repro.host.l2cap import CID_ATT, CID_SMP, l2cap_decode
from repro.ll.access_address import ADVERTISING_ACCESS_ADDRESS
from repro.ll.pdu.advertising import (
    AdvInd,
    ConnectReq,
    ScanReq,
    ScanRsp,
    decode_advertising_pdu,
)
from repro.ll.pdu.control import decode_control_pdu
from repro.ll.pdu.data import DataPdu
from repro.telemetry.pcap import NordicBleFrame

_SMP_OPCODES = {1: "PairingRequest", 2: "PairingResponse",
                3: "PairingConfirm", 4: "PairingRandom",
                5: "PairingFailed"}


def dissect(frame: NordicBleFrame) -> str:
    """One-line dissection of a recorded frame (no time, channel or CRC)."""
    if frame.access_address == ADVERTISING_ACCESS_ADDRESS:
        return _dissect_advertising(frame.pdu)
    return _dissect_data(frame)


def render_capture(frames: Sequence[NordicBleFrame],
                   limit: Optional[int] = None) -> str:
    """Multi-line capture log of the first ``limit`` frames (all if None):
    time, channel and dissection, with bad CRCs flagged."""
    shown = frames if limit is None else frames[:limit]
    return "\n".join(
        f"{frame.time_us / 1e6:12.6f}  ch{frame.channel:02d}  "
        f"{dissect(frame)}{'' if frame.crc_ok else '  [BAD CRC]'}"
        for frame in shown)


def _dissect_advertising(pdu_bytes: bytes) -> str:
    try:
        pdu = decode_advertising_pdu(pdu_bytes)
    except Exception:
        return f"ADV ??? {pdu_bytes.hex()}"
    if isinstance(pdu, AdvInd):
        name = local_name_of(pdu.adv_data)
        label = f" name={name!r}" if name else ""
        return f"ADV_IND       {pdu.adv_addr}{label}"
    if isinstance(pdu, ScanReq):
        return f"SCAN_REQ      {pdu.scan_addr} -> {pdu.adv_addr}"
    if isinstance(pdu, ScanRsp):
        return f"SCAN_RSP      {pdu.adv_addr}"
    if isinstance(pdu, ConnectReq):
        ll = pdu.ll_data
        return (f"CONNECT_REQ   {pdu.init_addr} -> {pdu.adv_addr} "
                f"aa={ll.access_address:#010x} interval={ll.interval} "
                f"hop={ll.hop_increment}")
    return f"ADV {type(pdu).__name__}"  # pragma: no cover


def _dissect_data(frame: NordicBleFrame) -> str:
    aa = frame.access_address
    direction = "M->S" if frame.master_to_slave else "S->M"
    try:
        pdu = DataPdu.from_bytes(frame.pdu)
    except Exception:
        return f"DATA {direction} ??? {frame.pdu.hex()}"
    bits = f"SN={pdu.header.sn} NESN={pdu.header.nesn}"
    if pdu.is_empty:
        body = "empty PDU"
    elif pdu.is_control:
        body = _dissect_control(pdu.payload)
    else:
        body = _dissect_l2cap(pdu.payload)
    return f"DATA {direction} aa={aa:#010x} {bits}  {body}"


def _dissect_control(payload: bytes) -> str:
    try:
        control = decode_control_pdu(payload)
    except Exception:
        return f"LL ??? {payload.hex()}"
    return f"LL {type(control).__name__} {control!r}"


def _dissect_l2cap(payload: bytes) -> str:
    try:
        cid, inner = l2cap_decode(payload)
    except Exception:
        return f"enc/frag {payload.hex()}"
    if cid == CID_ATT:
        try:
            att = decode_att_pdu(inner)
            return f"ATT {type(att).__name__} {att!r}"
        except Exception:
            return f"ATT ??? {inner.hex()}"
    if cid == CID_SMP:
        opcode = inner[0] if inner else 0
        return f"SMP {_SMP_OPCODES.get(opcode, f'op={opcode:#x}')}"
    return f"L2CAP cid={cid:#x} {inner.hex()}"
