"""Tests for the CRACKLE-style pairing cracker (paper §II, Ryan 2013)."""

import pytest

from repro.core.attacker import Attacker
from repro.core.cracker import (
    PairingSniffer,
    PairingTranscript,
    SessionCracker,
    crack_tk,
    stk_from_pin,
)
from repro.devices import Lightbulb, Smartphone
from repro.errors import AttackError
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


def build_paired_world(seed=90, tk_pin=None):
    """Victims pair under the attacker's nose; returns the capture state."""
    sim = Simulator(seed=seed)
    topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone", interval=36)
    attacker = Attacker(sim, medium, "attacker")
    attacker.sniff_new_connections()
    bulb.power_on()
    phone.connect_to(bulb.address)
    sim.run(until_us=1_200_000)
    assert attacker.synchronized

    pairing = PairingSniffer(attacker.connection)
    captured = []
    prev = attacker.sniffer.on_event

    def hook(event):
        if prev is not None:
            prev(event)
        pairing.on_event(event)
        if (event.master_pdu is not None and event.master_pdu.payload
                and not event.master_pdu.is_control):
            captured.append(event.master_pdu)

    attacker.sniffer.on_event = hook
    phone.host.pair(encrypt=True)
    sim.run(until_us=4_000_000)
    return sim, bulb, phone, pairing, captured


class TestTranscriptCapture:
    def test_transcript_completes(self):
        _, _, _, pairing, _ = build_paired_world()
        assert pairing.transcript.complete

    def test_session_material_captured(self):
        _, _, _, pairing, _ = build_paired_world(seed=91)
        assert pairing.session.complete

    def test_addresses_from_connect_req(self):
        _, bulb, phone, pairing, _ = build_paired_world(seed=92)
        assert pairing.transcript.initiator_address == \
            phone.ll.address.to_bytes()
        assert pairing.transcript.responder_address == \
            bulb.ll.address.to_bytes()


class TestCrackTk:
    def test_just_works_cracks_instantly(self):
        _, _, _, pairing, _ = build_paired_world(seed=93)
        assert crack_tk(pairing.transcript, max_pin=0) == 0

    def test_stk_matches_victims(self):
        _, bulb, phone, pairing, _ = build_paired_world(seed=94)
        pin = crack_tk(pairing.transcript, max_pin=0)
        assert stk_from_pin(pairing.transcript, pin) == bulb.ll.ltk

    def test_wrong_pin_range_returns_none(self):
        # Forge a transcript whose confirm cannot match small PINs.
        transcript = PairingTranscript(
            preq=bytes(7), pres=bytes(7),
            initiator_confirm=bytes(16), responder_confirm=bytes(16),
            initiator_random=bytes(16), responder_random=bytes(16),
            initiator_address=bytes(6), responder_address=bytes(6),
        )
        assert crack_tk(transcript, max_pin=3) is None

    def test_incomplete_transcript_rejected(self):
        with pytest.raises(AttackError):
            crack_tk(PairingTranscript(), max_pin=0)

    def test_nonzero_pin_recovered(self):
        """A passkey-entry pairing with a small PIN is equally dead."""
        import numpy as np

        from repro.host.smp import SecurityManager

        pin = 42
        tk = pin.to_bytes(16, "big")
        queues = {"i": [], "r": []}
        initiator = SecurityManager(
            send=queues["r"].append, is_initiator=True,
            local_addr=bytes(range(6)), peer_addr=bytes(range(6, 12)),
            rng=np.random.default_rng(1), tk=tk)
        responder = SecurityManager(
            send=queues["i"].append, is_initiator=False,
            local_addr=bytes(range(6, 12)), peer_addr=bytes(range(6)),
            rng=np.random.default_rng(2), tk=tk)
        initiator.start()
        for _ in range(8):
            while queues["r"]:
                responder.on_pdu(queues["r"].pop(0))
            while queues["i"]:
                initiator.on_pdu(queues["i"].pop(0))
        assert initiator.stk is not None
        # Rebuild the transcript as a passive observer would have seen it.
        transcript = PairingTranscript(
            preq=initiator.features.to_bytes(0x01),
            pres=responder.features.to_bytes(0x02),
            initiator_confirm=initiator._confirm_value(
                initiator._local_random),
            responder_confirm=None,
            initiator_random=initiator._local_random,
            responder_random=responder._local_random,
            initiator_address=bytes(range(6)),
            responder_address=bytes(range(6, 12)),
        )
        assert crack_tk(transcript, max_pin=100) == pin
        assert stk_from_pin(transcript, pin) == initiator.stk


class TestSessionCracker:
    def test_full_chain_decrypts_traffic(self):
        sim, bulb, phone, pairing, captured = build_paired_world(seed=95)
        cracker = SessionCracker(pairing, max_pin=0)
        assert cracker.crack()
        assert cracker.session_key == phone.ll.encryption.session_key
        captured.clear()
        ctrl = bulb.gatt.find_characteristic(0xFF11).value_handle
        phone.gatt.write(ctrl, Lightbulb.power_payload(False))
        sim.run(until_us=7_000_000)
        assert captured
        from repro.host.l2cap import l2cap_decode

        plaintext = cracker.decrypt(captured[0], from_master=True)
        cid, att = l2cap_decode(plaintext)
        assert cid == 4
        assert att[0] == 0x12  # ATT Write Request, recovered from ciphertext

    def test_decrypt_before_crack_rejected(self):
        _, _, _, pairing, captured = build_paired_world(seed=96)
        cracker = SessionCracker(pairing)
        from repro.ll.pdu.data import LLID, DataPdu

        with pytest.raises(AttackError):
            cracker.decrypt(DataPdu.make(LLID.DATA_START, bytes(8)), True)
