"""Robustness under interference: the paper's 'realistic environment'."""

import pytest

from repro.core.attacker import Attacker
from repro.devices import Lightbulb, Smartphone
from repro.errors import ConfigurationError
from repro.host.att.pdus import WriteReq
from repro.host.l2cap import CID_ATT, l2cap_encode
from repro.phy.modulation import PhyMode, air_time_us
from repro.sim.events import TIME_EPS_US
from repro.sim.interference import RogueAdvertiser, WifiInterferer
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


def build_noisy_world(seed=70, duty_cycle=0.05):
    sim = Simulator(seed=seed)
    topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
    topo.place("wifi", 3.0, 3.0)
    topo.place("rogue-adv", -3.0, 1.0)
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone", interval=36)
    wifi = WifiInterferer(sim, medium, "wifi", duty_cycle=duty_cycle)
    rogue = RogueAdvertiser(sim, medium, "rogue-adv")
    return sim, medium, bulb, phone, wifi, rogue


class TestWifiInterferer:
    def test_bursts_happen(self):
        sim, medium, *_ , wifi, _ = build_noisy_world()
        wifi.start()
        sim.run(until_us=1_000_000)
        assert wifi.bursts_sent > 10

    def test_stop(self):
        sim, medium, *_ , wifi, _ = build_noisy_world()
        wifi.start()
        sim.run(until_us=500_000)
        wifi.stop()
        sent = wifi.bursts_sent
        sim.run(until_us=1_000_000)
        assert wifi.bursts_sent == sent

    def test_invalid_duty_cycle_rejected(self):
        sim, medium, *_ = build_noisy_world()
        with pytest.raises(ConfigurationError):
            WifiInterferer(sim, medium, "wifi", duty_cycle=1.5)

    def test_second_start_rejected(self):
        sim, medium, *_ , wifi, _ = build_noisy_world()
        wifi.start()
        wifi.stop()
        with pytest.raises(ConfigurationError):
            wifi.start()


def _per_burst_draws(rng, wifi, horizon_us):
    """The bursts before ``horizon_us`` as ``(time, channel, PDU length)``,
    drawn as a burst event draws them when it fires: its length and
    channel (by ``Generator.choice``) when the last burst has ended, then
    the gap to the next.  The interferer starts at time 0."""
    mean_gap = wifi.mean_burst_us * (1.0 - wifi.duty_cycle) / wifi.duty_cycle
    t = max(float(rng.exponential(mean_gap)), 1.0)
    tx_until = -1.0
    bursts = []
    while t < horizon_us:
        if not tx_until > t + TIME_EPS_US:
            length_us = max(40.0, float(rng.exponential(wifi.mean_burst_us)))
            pdu_len = min(250, max(1, int(length_us / 8.0) - 8))
            channel = int(rng.choice(wifi.channels))
            tx_until = t + air_time_us(pdu_len, PhyMode.LE_1M)
            bursts.append((t, channel, pdu_len))
        t = t + max(float(rng.exponential(mean_gap)), 1.0)
    return bursts


def _planned(wifi, column):
    """One column of the bursts planned and not yet fired (a skipped
    burst has PDU length 0)."""
    return getattr(wifi, column)[wifi.head:]


class TestBurstPlan:
    """An interferer plans its bursts ahead from its own stream; the plan
    is what the burst events would have drawn one by one."""

    HORIZON_US = 300_000.0

    @pytest.mark.parametrize("seed", [1, 2, 3, 70])
    def test_plan_matches_per_burst_draws(self, seed):
        # At a 50 % duty cycle bursts often find the last still on air.
        sim, medium, *_ , wifi, _ = build_noisy_world(seed=seed,
                                                      duty_cycle=0.5)
        wifi.start()
        wifi.plan_until(self.HORIZON_US)
        assert not all(_planned(wifi, "plan_len"))
        planned = [(t, channel, pdu_len) for t, channel, pdu_len in zip(
            *(_planned(wifi, column)
              for column in ("plan_t", "plan_channel", "plan_len")))
            if pdu_len]
        rng = Simulator(seed=seed).streams.get("wifi-wifi")
        assert planned == _per_burst_draws(rng, wifi, self.HORIZON_US)

    def test_bursts_fire_as_planned(self):
        sim, medium, *_ , wifi, _ = build_noisy_world(seed=5,
                                                      duty_cycle=0.5)
        wifi.start()
        wifi.plan_until(self.HORIZON_US / 2)
        planned = [(t, channel) for t, channel, pdu_len in zip(
            *(_planned(wifi, column)
              for column in ("plan_t", "plan_channel", "plan_len")))
            if pdu_len]
        sim.run(until_us=self.HORIZON_US / 2)
        fired = [(r.time_us, r.detail["channel"])
                 for r in sim.trace.filter(kind="tx", source="wifi")]
        assert fired == planned
        assert wifi.bursts_sent == len(planned)


class TestConnectionUnderInterference:
    def test_connection_survives_wifi(self):
        sim, medium, bulb, phone, wifi, _ = build_noisy_world(seed=71)
        wifi.start()
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=5_000_000)
        assert phone.is_connected and bulb.ll.is_connected

    def test_connection_survives_rogue_advertiser(self):
        sim, medium, bulb, phone, _, rogue = build_noisy_world(seed=72)
        rogue.start()
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=5_000_000)
        assert phone.is_connected and bulb.ll.is_connected


class TestInjectionUnderInterference:
    def test_injection_still_succeeds_in_noise(self):
        """The paper's experiments all ran next to Wi-Fi routers and other
        BLE devices; the attack must go through regardless."""
        sim, medium, bulb, phone, wifi, rogue = build_noisy_world(seed=73)
        attacker = Attacker(sim, medium, "attacker")
        wifi.start()
        rogue.start()
        attacker.sniff_new_connections()
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=2_500_000)
        assert attacker.synchronized
        handle = bulb.gatt.find_characteristic(0xFF11).value_handle
        payload = l2cap_encode(CID_ATT, WriteReq(
            handle, Lightbulb.power_payload(False, pad_to=5)).to_bytes())
        reports = []
        attacker.inject(payload, on_done=reports.append)
        sim.run(until_us=120_000_000)
        assert reports and reports[0].success
        assert not bulb.is_on
