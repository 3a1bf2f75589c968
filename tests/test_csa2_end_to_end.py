"""End-to-end tests of CSA#2 connections and attacks against them.

The paper focuses on CSA#1 ("the most commonly used algorithm") but notes
the approach "can be easily adapted to the second algorithm" — these tests
verify the adaptation.
"""

from repro.core.attacker import Attacker
from repro.devices import Lightbulb
from repro.host.att.pdus import WriteReq
from repro.host.l2cap import CID_ATT, l2cap_encode
from repro.host.stack import CentralHost
from repro.ll.master import MasterLinkLayer
from repro.ll.pdu.address import BdAddress
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


def build_csa2_world(seed=55, interval=75, engine=None):
    sim = Simulator(seed=seed, engine=engine)
    topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "bulb")
    bulb.ll.use_csa2 = True
    phone = MasterLinkLayer(sim, medium, "phone",
                            BdAddress.from_str("C0:FF:EE:00:00:20"),
                            interval=interval, use_csa2=True)
    CentralHost(phone)
    attacker = Attacker(sim, medium, "attacker", use_csa2=True)
    return sim, medium, bulb, phone, attacker


class TestCsa2Connection:
    def test_connection_works(self):
        sim, medium, bulb, phone, _ = build_csa2_world()
        bulb.power_on()
        phone.connect(bulb.address)
        sim.run(until_us=3_000_000)
        assert phone.is_connected and bulb.ll.is_connected
        assert len(sim.trace.filter(kind="event-missed")) == 0

    def test_channels_not_sequential(self):
        # CSA#2 is a PRNG, not modular addition: consecutive channels must
        # not follow a fixed increment.
        sim, medium, bulb, phone, _ = build_csa2_world(seed=56)
        bulb.power_on()
        phone.connect(bulb.address)
        sim.run(until_us=3_000_000)
        channels = [r.detail["channel"] for r in
                    sim.trace.filter(source="phone", kind="master-tx")]
        increments = {(b - a) % 37 for a, b in zip(channels, channels[1:])}
        assert len(increments) > 3

    def test_sniffer_follows_csa2(self):
        sim, medium, bulb, phone, attacker = build_csa2_world(seed=57)
        attacker.sniff_new_connections()
        bulb.power_on()
        phone.connect(bulb.address)
        sim.run(until_us=3_000_000)
        assert attacker.synchronized
        assert attacker.connection.events_since_anchor <= 1

    def test_injection_against_csa2(self):
        sim, medium, bulb, phone, attacker = build_csa2_world(seed=58)
        attacker.sniff_new_connections()
        bulb.power_on()
        phone.connect(bulb.address)
        sim.run(until_us=1_500_000)
        handle = bulb.gatt.find_characteristic(0xFF11).value_handle
        payload = l2cap_encode(CID_ATT, WriteReq(
            handle, Lightbulb.power_payload(False, pad_to=5)).to_bytes())
        reports = []
        attacker.inject(payload, on_done=reports.append)
        sim.run(until_us=60_000_000)
        assert reports and reports[0].success
        assert not bulb.is_on
        assert phone.is_connected and bulb.ll.is_connected


class TestCoexistingConnections:
    def test_two_connections_do_not_interfere(self):
        """Different connections share the band but hop independently;
        both must run cleanly (this is what channel hopping is *for*)."""
        sim = Simulator(seed=60)
        topo = Topology()
        topo.place("bulb-a", 0.0, 0.0)
        topo.place("phone-a", 2.0, 0.0)
        topo.place("bulb-b", 10.0, 0.0)
        topo.place("phone-b", 12.0, 0.0)
        medium = Medium(sim, topo)
        from repro.devices import Smartphone

        bulb_a = Lightbulb(sim, medium, "bulb-a")
        bulb_b = Lightbulb(sim, medium, "bulb-b")
        phone_a = Smartphone(sim, medium, "phone-a", interval=36)
        phone_b = Smartphone(sim, medium, "phone-b", interval=50)
        bulb_a.power_on()
        bulb_b.power_on()
        phone_a.connect_to(bulb_a.address)
        phone_b.connect_to(bulb_b.address)
        sim.run(until_us=5_000_000)
        assert phone_a.is_connected and bulb_a.ll.is_connected
        assert phone_b.is_connected and bulb_b.ll.is_connected
        # Occasional same-channel overlaps are tolerable; the connections
        # must survive them.
        missed = len(sim.trace.filter(kind="event-missed"))
        assert missed < 20
