"""Unit tests for the host-stack glue (L2CAP routing, pairing wiring)."""

import pytest

from repro.devices import Lightbulb, Smartphone
from repro.host.l2cap import CID_ATT, CID_SMP, l2cap_encode
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


@pytest.fixture
def world():
    sim = Simulator(seed=101)
    topo = Topology()
    topo.place("bulb", 0.0, 0.0)
    topo.place("phone", 2.0, 0.0)
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone")
    return sim, bulb, phone


class TestPeripheralHostRouting:
    def test_att_request_routed_to_gatt(self, world):
        sim, bulb, phone = world
        sent = []
        bulb.ll.send_data = sent.append  # intercept the LL queue
        request = l2cap_encode(CID_ATT, b"\x0a\x02\x00")  # Read handle 2
        bulb.host._on_l2cap(request)
        assert len(sent) == 1
        # Response is L2CAP-framed on the ATT channel.
        assert sent[0][2:4] == CID_ATT.to_bytes(2, "little")

    def test_smp_creates_responder_lazily(self, world):
        sim, bulb, phone = world
        assert bulb.host.smp is None
        bulb.ll.send_data = lambda data: None
        bulb.host._on_l2cap(l2cap_encode(CID_SMP, bytes(7)))
        assert bulb.host.smp is not None
        assert not bulb.host.smp.is_initiator

    def test_garbage_frame_ignored(self, world):
        sim, bulb, phone = world
        bulb.host._on_l2cap(b"\x01")  # must not raise

    def test_unknown_cid_ignored(self, world):
        sim, bulb, phone = world
        sent = []
        bulb.ll.send_data = sent.append
        bulb.host._on_l2cap(l2cap_encode(0x0040, b"whatever"))
        assert sent == []


class TestCentralHostRouting:
    def test_att_responses_reach_client(self, world):
        sim, bulb, phone = world
        got = []
        phone.host.att.read(5, got.append)
        phone.host._on_l2cap(l2cap_encode(CID_ATT, b"\x0b\x42"))
        assert got and got[0].value == b"\x42"

    def test_smp_ignored_until_pairing_started(self, world):
        sim, bulb, phone = world
        phone.host._on_l2cap(l2cap_encode(CID_SMP, bytes(7)))
        assert phone.host.smp is None

    def test_pairing_callback_without_encryption(self, world):
        sim, bulb, phone = world
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=1_000_000)
        stks = []
        phone.host.on_paired = stks.append
        bulb.host.on_paired = stks.append
        phone.host.pair(encrypt=False)
        sim.run(until_us=4_000_000)
        assert len(stks) == 2 and stks[0] == stks[1]
        assert phone.ll.encryption is None

    def test_slave_ltk_provisioned_by_pairing(self, world):
        sim, bulb, phone = world
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=1_000_000)
        phone.host.pair(encrypt=False)
        sim.run(until_us=4_000_000)
        assert bulb.ll.ltk is not None
        # The provisioned key can start encryption later.
        phone.ll.start_encryption(bulb.ll.ltk)
        sim.run(until_us=6_000_000)
        assert phone.ll.encryption is not None
        assert bulb.ll.encryption is not None
