"""Unit/integration tests for the attacker's fake Slave/Master roles."""

from collections import deque

from repro.core.roles import _MiniArq
from repro.ll.pdu.data import LLID, DataPdu


class TestMiniArq:
    def test_lazy_init_from_peer(self):
        arq = _MiniArq()
        arq.init_from_peer(sn=1, nesn=0)
        assert arq.initialized
        assert arq.transmit_seq == 0 and arq.next_expected == 1

    def test_lazy_init_only_once(self):
        arq = _MiniArq()
        arq.init_from_peer(sn=1, nesn=0)
        arq.init_from_peer(sn=0, nesn=1)
        assert arq.next_expected == 1  # unchanged

    def test_new_data_flow(self):
        arq = _MiniArq()
        arq.init_from_peer(sn=0, nesn=0)
        assert arq.on_received(sn=0, nesn=0)      # new data
        assert not arq.on_received(sn=0, nesn=0)  # retransmission

    def test_retransmit_until_acked(self):
        arq = _MiniArq()
        arq.init_from_peer(sn=0, nesn=0)
        queue = deque([DataPdu.make(LLID.DATA_START, b"q1"),
                       DataPdu.make(LLID.DATA_START, b"q2")])
        first = arq.next_pdu(queue)
        assert first.payload == b"q1"
        # Peer nacks: same payload again (with current bits).
        arq.on_received(sn=1, nesn=arq.transmit_seq)
        again = arq.next_pdu(queue)
        assert again.payload == b"q1"
        # Peer acks: move on.
        arq.on_received(sn=0, nesn=arq.transmit_seq ^ 1)
        third = arq.next_pdu(queue)
        assert third.payload == b"q2"

    def test_empty_pdu_when_queue_dry(self):
        arq = _MiniArq()
        arq.init_from_peer(sn=0, nesn=0)
        arq.on_received(sn=0, nesn=1)
        pdu = arq.next_pdu(deque())
        assert pdu.is_empty


class TestFakeSlaveLive:
    """End-to-end: terminate the real Slave, splice in the fake one."""

    def build(self, seed=21):
        from repro.core.attacker import Attacker
        from repro.core.scenarios import SlaveHijackScenario
        from repro.devices import Lightbulb, Smartphone
        from repro.sim.medium import Medium
        from repro.sim.simulator import Simulator
        from repro.sim.topology import Topology

        sim = Simulator(seed=seed)
        topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
        medium = Medium(sim, topo)
        bulb = Lightbulb(sim, medium, "bulb")
        bulb.ll.readvertise_on_disconnect = False
        phone = Smartphone(sim, medium, "phone", interval=36)
        attacker = Attacker(sim, medium, "attacker")
        attacker.sniff_new_connections()
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=1_200_000)
        assert attacker.synchronized
        return sim, bulb, phone, attacker

    def test_fake_slave_keeps_master_alive(self):
        sim, bulb, phone, attacker = self.build()
        from repro.core.scenarios import SlaveHijackScenario

        results = []
        SlaveHijackScenario(attacker).run(on_done=results.append)
        sim.run(until_us=15_000_000)
        assert results[0].success
        assert phone.is_connected  # kept alive by the impersonation
        assert results[0].fake_slave.frames_answered > 50

    def test_fake_slave_sn_nesn_consistent(self):
        sim, bulb, phone, attacker = self.build(seed=22)
        from repro.core.scenarios import SlaveHijackScenario

        results = []
        SlaveHijackScenario(attacker).run(on_done=results.append)
        sim.run(until_us=10_000_000)
        assert results[0].success
        # The Master never logs a CRC error or desync against the fake.
        crc_errors = sim.trace.filter(source="phone", kind="crc-error")
        assert len(crc_errors) == 0

    def test_fake_slave_stops_cleanly(self):
        sim, bulb, phone, attacker = self.build(seed=23)
        from repro.core.scenarios import SlaveHijackScenario

        results = []
        SlaveHijackScenario(attacker).run(on_done=results.append)
        sim.run(until_us=8_000_000)
        fake = results[0].fake_slave
        fake.stop()
        answered = fake.frames_answered
        sim.run(until_us=12_000_000)
        assert fake.frames_answered == answered
