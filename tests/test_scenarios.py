"""Integration tests of the four attack scenarios (paper §VI)."""

from repro.core.attacker import Attacker
from repro.core.scenarios import (
    IllegitimateUseScenario,
    MasterHijackScenario,
    MitmScenario,
    SlaveHijackScenario,
)
from repro.core.scenarios.scenario_b import hacked_gatt_server
from repro.devices import Keyfob, Lightbulb, Smartphone, Smartwatch
from repro.devices.smartwatch import Sms
from repro.host.att.pdus import (
    ReadByTypeRsp,
    ReadRsp,
    WriteReq,
    decode_att_pdu,
)
from repro.host.gatt.uuids import UUID_DEVICE_NAME
from repro.host.l2cap import CID_ATT, l2cap_decode, l2cap_encode
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


def build_world(device_cls, seed, interval=36, name="victim"):
    sim = Simulator(seed=seed)
    topo = Topology.equilateral_triangle((name, "phone", "attacker"))
    medium = Medium(sim, topo)
    victim = device_cls(sim, medium, name)
    victim.ll.readvertise_on_disconnect = False
    phone = Smartphone(sim, medium, "phone", interval=interval)
    attacker = Attacker(sim, medium, "attacker")
    attacker.sniff_new_connections()
    victim.power_on()
    phone.connect_to(victim.address)
    sim.run(until_us=1_200_000)
    assert attacker.synchronized
    return sim, victim, phone, attacker


class TestScenarioA:
    """Illegitimately using a device functionality on all three devices."""

    def test_lightbulb_off(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=31)
        handle = bulb.gatt.find_characteristic(0xFF11).value_handle
        results = []
        IllegitimateUseScenario(attacker).inject_write(
            handle, Lightbulb.power_payload(False, pad_to=5),
            on_done=results.append)
        sim.run(until_us=60_000_000)
        assert results[0].success and not bulb.is_on

    def test_lightbulb_color_and_brightness(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=32)
        handle = bulb.gatt.find_characteristic(0xFF11).value_handle
        scenario = IllegitimateUseScenario(attacker)
        results = []
        scenario.inject_write(handle, Lightbulb.color_payload(255, 0, 0),
                              on_done=results.append)
        sim.run(until_us=60_000_000)
        assert results[0].success and bulb.color == (255, 0, 0)
        scenario.inject_write(handle, Lightbulb.brightness_payload(1),
                              on_done=results.append)
        sim.run(until_us=sim.now + 60_000_000)
        assert results[1].success and bulb.brightness == 1

    def test_keyfob_ring(self):
        sim, fob, phone, attacker = build_world(Keyfob, seed=33)
        handle = fob.alert_char.value_handle
        results = []
        IllegitimateUseScenario(attacker).inject_write(
            handle, Keyfob.ring_payload(), on_done=results.append,
            with_response=False)
        sim.run(until_us=60_000_000)
        assert results[0].success and fob.is_ringing

    def test_smartwatch_forged_sms(self):
        sim, watch, phone, attacker = build_world(Smartwatch, seed=34)
        handle = watch.sms_char.value_handle
        sms = Sms("Bank", "your account is locked")
        results = []
        IllegitimateUseScenario(attacker).inject_write(
            handle, sms.to_bytes(), on_done=results.append)
        sim.run(until_us=60_000_000)
        assert results[0].success
        assert watch.last_sms == sms

    def test_injected_read_request(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=35)
        handle = bulb.gatt.find_characteristic(0xFF12).value_handle
        results = []
        IllegitimateUseScenario(attacker).inject_read(
            handle, on_done=results.append)
        sim.run(until_us=60_000_000)
        assert results[0].success
        # Confidentiality impact: either captured in-band, or at minimum
        # the Slave answered (trace shows its queued Read Response).
        if results[0].response_att is not None:
            rsp = decode_att_pdu(results[0].response_att)
            assert isinstance(rsp, ReadRsp)

    def test_connection_survives_every_injection(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=36)
        handle = bulb.gatt.find_characteristic(0xFF11).value_handle
        results = []
        IllegitimateUseScenario(attacker).inject_write(
            handle, Lightbulb.power_payload(False, pad_to=5),
            on_done=results.append)
        sim.run(until_us=60_000_000)
        assert results[0].success
        sim.run(until_us=sim.now + 2_000_000)
        assert phone.is_connected and bulb.ll.is_connected


class TestScenarioB:
    def test_slave_hijacked_and_name_spoofed(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=41)
        results = []
        scenario = SlaveHijackScenario(
            attacker, gatt_server=hacked_gatt_server("Hacked"))
        scenario.run(on_done=results.append)
        sim.run(until_us=15_000_000)
        assert results[0].success
        assert not bulb.ll.is_connected
        assert phone.is_connected
        names = []
        phone.host.att.read_by_type(UUID_DEVICE_NAME, names.append)
        sim.run(until_us=sim.now + 3_000_000)
        assert isinstance(names[0], ReadByTypeRsp)
        assert names[0].records[0][1] == b"Hacked"

    def test_works_on_keyfob(self):
        sim, fob, phone, attacker = build_world(Keyfob, seed=42)
        results = []
        SlaveHijackScenario(attacker,
                            gatt_server=hacked_gatt_server()).run(
            on_done=results.append)
        sim.run(until_us=15_000_000)
        assert results[0].success
        assert not fob.ll.is_connected and phone.is_connected

    def test_failure_reported_when_not_injectable(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=43)
        from repro.core.injection import InjectionConfig

        attacker.injector.config = InjectionConfig(max_attempts=1)
        # Move the attacker out of range so the single attempt fails.
        attacker.medium.topology.place("attacker", 9999.0, 9999.0)
        results = []
        SlaveHijackScenario(attacker).run(on_done=results.append)
        sim.run(until_us=60_000_000)
        assert results and not results[0].success
        assert results[0].fake_slave is None


class TestScenarioC:
    def test_master_hijack(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=51)
        reasons = []
        phone.ll.on_disconnected = reasons.append
        results = []
        MasterHijackScenario(attacker, instant_delta=40).run(
            on_done=results.append)
        sim.run(until_us=25_000_000)
        assert results[0].success
        assert bulb.ll.is_connected          # Slave follows the attacker
        assert reasons == ["supervision timeout"]  # Master starved out

    def test_attacker_drives_the_slave(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=52)
        results = []
        MasterHijackScenario(attacker, instant_delta=40).run(
            on_done=results.append)
        sim.run(until_us=15_000_000)
        assert results[0].success
        handle = bulb.gatt.find_characteristic(0xFF11).value_handle
        results[0].fake_master.queue_att(
            WriteReq(handle, Lightbulb.power_payload(False)).to_bytes())
        sim.run(until_us=sim.now + 3_000_000)
        assert not bulb.is_on

    def test_new_interval_applied(self):
        sim, bulb, phone, attacker = build_world(Lightbulb, seed=53)
        results = []
        MasterHijackScenario(attacker, new_interval=75,
                             instant_delta=40).run(on_done=results.append)
        sim.run(until_us=25_000_000)
        assert results[0].success
        assert bulb.ll.conn.params.interval == 75
        assert bulb.ll.is_connected


class TestScenarioD:
    def test_mitm_relays_traffic(self):
        sim, watch, phone, attacker = build_world(Smartwatch, seed=61)
        results = []
        MitmScenario(attacker).run(on_done=results.append)
        sim.run(until_us=15_000_000)
        assert results[0].success
        handle = watch.sms_char.value_handle
        phone.send_sms_to_watch(handle, "Mom", "hello")
        sim.run(until_us=sim.now + 6_000_000)
        assert watch.inbox and watch.inbox[-1].text == "hello"
        assert phone.is_connected and watch.ll.is_connected

    def test_mitm_mutates_on_the_fly(self):
        sim, watch, phone, attacker = build_world(Smartwatch, seed=62)

        def rewrite(frame):
            try:
                cid, att = l2cap_decode(frame)
                pdu = decode_att_pdu(att)
                if isinstance(pdu, WriteReq):
                    sms = Sms.from_bytes(pdu.value)
                    return l2cap_encode(CID_ATT, WriteReq(
                        pdu.handle, Sms(sms.sender, "forged").to_bytes()
                    ).to_bytes())
            except Exception:
                pass
            return frame

        results = []
        MitmScenario(attacker, master_to_slave=rewrite).run(
            on_done=results.append)
        sim.run(until_us=15_000_000)
        assert results[0].success
        phone.send_sms_to_watch(watch.sms_char.value_handle, "Mom",
                                "original")
        sim.run(until_us=sim.now + 6_000_000)
        assert watch.inbox[-1].text == "forged"

    def test_mitm_can_drop_traffic(self):
        """§VIII: a MitM that stops forwarding = denial of service."""
        sim, watch, phone, attacker = build_world(Smartwatch, seed=63)
        results = []
        MitmScenario(attacker, master_to_slave=lambda frame: None).run(
            on_done=results.append)
        sim.run(until_us=15_000_000)
        assert results[0].success
        phone.send_sms_to_watch(watch.sms_char.value_handle, "Mom", "lost")
        sim.run(until_us=sim.now + 6_000_000)
        assert watch.inbox == []
