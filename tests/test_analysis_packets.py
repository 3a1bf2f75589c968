"""Tests for the capture dissector over the frame recorder's frames."""

import pytest

from repro.analysis.packets import dissect, render_capture
from repro.core.attacker import Attacker
from repro.devices import Lightbulb, Smartphone
from repro.host.att.pdus import WriteReq
from repro.host.l2cap import CID_ATT, l2cap_encode
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology
from repro.telemetry.capture import FrameRecorder


class _Capture:
    """The recorder plus the dissection queries the tests read."""

    def __init__(self, medium):
        self.recorder = FrameRecorder(medium)

    def matching(self, needle):
        return [frame for frame in self.recorder.frames
                if needle in dissect(frame)]


@pytest.fixture
def captured_world():
    sim = Simulator(seed=97)
    topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
    medium = Medium(sim, topo)
    capture = _Capture(medium)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone", interval=36)
    bulb.power_on()
    phone.connect_to(bulb.address)
    sim.run(until_us=1_500_000)
    assert phone.is_connected
    return sim, medium, capture, bulb, phone


class TestDissection:
    def test_adv_ind_with_name(self, captured_world):
        _, _, capture, *_ = captured_world
        adv = capture.matching("ADV_IND")
        assert adv
        assert any("name='bulb'" in dissect(f) for f in adv)

    def test_connect_req_parameters(self, captured_world):
        _, _, capture, _, phone = captured_world
        reqs = capture.matching("CONNECT_REQ")
        assert len(reqs) == 1
        assert "interval=36" in dissect(reqs[0])
        aa = phone.ll.conn.params.access_address
        assert f"aa={aa:#010x}" in dissect(reqs[0])

    def test_crc_verified_from_learned_init(self, captured_world):
        _, _, capture, _, phone = captured_world
        data = capture.matching("DATA")
        assert data
        assert all(f.crc_ok for f in data)
        # The verdicts come from the CRCInit learned off the CONNECT_REQ
        # (an unknown CRCInit would also read as good).
        params = phone.ll.conn.params
        assert capture.recorder._crc_inits == {
            params.access_address: params.crc_init}

    def test_direction_inference(self, captured_world):
        _, _, capture, *_ = captured_world
        m_to_s = capture.matching("M->S")
        s_to_m = capture.matching("S->M")
        assert len(m_to_s) > 5 and len(s_to_m) > 5
        # Alternating within events: counts should be nearly equal.
        assert abs(len(m_to_s) - len(s_to_m)) <= 2

    def test_att_dissection(self, captured_world):
        sim, _, capture, bulb, phone = captured_world
        ctrl = bulb.gatt.find_characteristic(0xFF11).value_handle
        phone.gatt.write(ctrl, Lightbulb.power_payload(False))
        sim.run(until_us=3_000_000)
        writes = capture.matching("ATT WriteReq")
        responses = capture.matching("ATT WriteRsp")
        assert writes and responses

    def test_control_dissection(self, captured_world):
        sim, _, capture, bulb, phone = captured_world
        phone.ll.request_connection_update(interval=50)
        sim.run(until_us=3_000_000)
        assert capture.matching("LL ConnectionUpdateInd")

    def test_smp_dissection(self, captured_world):
        sim, _, capture, bulb, phone = captured_world
        phone.host.pair(encrypt=False)
        sim.run(until_us=4_000_000)
        assert capture.matching("SMP PairingRequest")
        assert capture.matching("SMP PairingConfirm")
        assert capture.matching("SMP PairingRandom")

    def test_injected_frame_visible(self, captured_world):
        sim, medium, capture, bulb, phone = captured_world
        attacker = Attacker(sim, medium, "attacker")
        attacker.recover_established(probe_channel=0)
        sim.run(until_us=60_000_000)
        if not attacker.synchronized:
            pytest.skip("recovery did not converge under this seed")
        handle = bulb.gatt.find_characteristic(0xFF11).value_handle
        payload = l2cap_encode(CID_ATT, WriteReq(
            handle, Lightbulb.power_payload(False, pad_to=5)).to_bytes())
        before = len(capture.matching("ATT WriteReq"))
        reports = []
        attacker.inject(payload, on_done=reports.append)
        sim.run(until_us=sim.now + 60_000_000)
        assert reports and reports[0].success
        # The injected Write Request shows up on air like any other.
        assert len(capture.matching("ATT WriteReq")) > before

    def test_render_lines(self, captured_world):
        _, _, capture, *_ = captured_world
        text = render_capture(capture.recorder.frames, limit=5)
        assert len(text.splitlines()) == 5
        assert "ch" in text
