"""Tests for the related-work baselines (paper §II comparison)."""

import pytest

from repro.core.baselines import BtleJackHijack, BtleJuiceMitm, GattackerMitm
from repro.devices import Lightbulb
from repro.experiments.baselines import hijack_world, spoof_world


class TestBtleJack:
    def test_hijack_succeeds(self):
        sim, bulb, phone, attacker = hijack_world(71)
        attacker.release_radio()
        results = []
        hijack = BtleJackHijack(sim, attacker.radio, attacker.connection)
        hijack.start(on_done=results.append)
        sim.run(until_us=30_000_000)
        assert results and results[0].hijacked

    def test_master_starved_out(self):
        sim, bulb, phone, attacker = hijack_world(72)
        attacker.release_radio()
        reasons = []
        phone.on_disconnected = reasons.append
        hijack = BtleJackHijack(sim, attacker.radio, attacker.connection)
        hijack.start()
        sim.run(until_us=30_000_000)
        assert reasons == ["supervision timeout"]

    def test_slave_answers_the_attacker(self):
        sim, bulb, phone, attacker = hijack_world(73)
        attacker.release_radio()
        results = []
        hijack = BtleJackHijack(sim, attacker.radio, attacker.connection)
        hijack.start(on_done=results.append)
        sim.run(until_us=30_000_000)
        fake = results[0].fake_master
        assert fake.responses_heard > 10
        assert bulb.ll.is_connected

    def test_jamming_cost_scales_with_timeout(self):
        """The paper's stealth argument: jamming needs a frame per event
        for a whole supervision timeout, InjectaBLE needs a handful."""
        sim, bulb, phone, attacker = hijack_world(74)
        attacker.release_radio()
        results = []
        hijack = BtleJackHijack(sim, attacker.radio, attacker.connection)
        hijack.start(on_done=results.append)
        sim.run(until_us=30_000_000)
        # timeout 1 s at 45 ms interval ≈ 22 events of jamming.
        assert results[0].jam_frames >= 15


class TestGattacker:
    def test_pre_connection_capture(self):
        sim, medium, bulb, phone = spoof_world(seed=81)
        tool = GattackerMitm(sim, medium, "attacker", victim=bulb)
        bulb.power_on()
        tool.start()
        sim.run(until_us=300_000)
        phone.connect_to(bulb.address)
        sim.run(until_us=10_000_000)
        assert tool.result.central_captured

    def test_cannot_attack_established_connection(self):
        """The gap InjectaBLE closes: spoofing tools need the advertising
        phase; once connected, there is nothing to spoof."""
        sim, medium, bulb, phone = spoof_world(seed=82)
        tool = GattackerMitm(sim, medium, "attacker", victim=bulb)
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=2_000_000)
        assert phone.is_connected
        tool.start()
        sim.run(until_us=12_000_000)
        assert not tool.result.central_captured
        assert phone.is_connected  # victims unaffected

    def test_forwards_writes_to_real_device(self):
        sim, medium, bulb, phone = spoof_world(seed=83)
        tool = GattackerMitm(sim, medium, "attacker", victim=bulb)
        bulb.power_on()
        tool.start()
        sim.run(until_us=300_000)
        phone.connect_to(bulb.address)
        sim.run(until_us=10_000_000)
        if not tool.result.central_captured or not tool.result.proxy_connected:
            pytest.skip("race lost in this seed; capture covered elsewhere")
        clone_ctrl = tool.clone_gatt.find_characteristic(0xFF11)
        phone.gatt.write(clone_ctrl.value_handle,
                         Lightbulb.power_payload(False))
        sim.run(until_us=sim.now + 5_000_000)
        assert tool.result.forwarded_writes >= 1
        assert not bulb.is_on


class TestBtleJuice:
    def test_pre_connection_interposition(self):
        sim, medium, bulb, phone = spoof_world(seed=84)
        tool = BtleJuiceMitm(sim, medium, "attacker", victim=bulb)
        bulb.power_on()
        tool.start()
        sim.run(until_us=2_000_000)
        assert tool.result.proxy_connected  # silenced the real device
        phone.connect_to(bulb.address)
        sim.run(until_us=12_000_000)
        assert tool.result.central_captured

    def test_cannot_attack_established_connection(self):
        sim, medium, bulb, phone = spoof_world(seed=85)
        tool = BtleJuiceMitm(sim, medium, "attacker", victim=bulb)
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=2_000_000)
        tool.start()
        sim.run(until_us=12_000_000)
        # The real device is busy: the proxy cannot even connect.
        assert not tool.result.central_captured
        assert phone.is_connected
