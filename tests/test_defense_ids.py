"""Tests for the classic link-layer IDS and the §VIII countermeasures.

The IDS is a `DetectorBank` loaded with the three §VIII signatures;
the framework itself is tested in `test_defense_framework.py`.  These
tests keep the original monitoring contract: injections and BTLEJack
jamming are flagged, clean traffic is not."""

import pytest

from repro.core.attacker import Attacker
from repro.core.injection import InjectionConfig
from repro.defense.bank import DetectorBank
from repro.devices import Lightbulb, Smartphone
from repro.host.att.pdus import WriteReq
from repro.host.l2cap import CID_ATT, l2cap_encode
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology

IDS_DETECTORS = ("double-frame", "anchor-anomaly", "jamming")


def build_monitored_world(seed=91, interval=75):
    sim = Simulator(seed=seed)
    topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
    medium = Medium(sim, topo)
    ids = DetectorBank(sim, medium, IDS_DETECTORS)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone", interval=interval)
    attacker = Attacker(sim, medium, "attacker",
                        injection_config=InjectionConfig(max_attempts=60))
    return sim, medium, ids, bulb, phone, attacker


def injection_alerts(ids):
    return ids.alerts_of("double-frame") + ids.alerts_of("anchor-anomaly")


def run_injection(sim, bulb, phone, attacker):
    attacker.sniff_new_connections()
    bulb.power_on()
    phone.connect_to(bulb.address)
    sim.run(until_us=1_500_000)
    assert attacker.synchronized
    handle = bulb.gatt.find_characteristic(0xFF11).value_handle
    payload = l2cap_encode(CID_ATT, WriteReq(
        handle, Lightbulb.power_payload(False, pad_to=5)).to_bytes())
    reports = []
    attacker.inject(payload, on_done=reports.append)
    sim.run(until_us=60_000_000)
    return reports[0] if reports else None


class TestIdsAgainstInjection:
    def test_injection_detected(self):
        sim, medium, ids, bulb, phone, attacker = build_monitored_world()
        report = run_injection(sim, bulb, phone, attacker)
        assert report is not None and report.success
        assert injection_alerts(ids)

    def test_no_alerts_on_clean_traffic(self):
        sim, medium, ids, bulb, phone, _ = build_monitored_world(seed=92)
        bulb.power_on()
        phone.connect_to(bulb.address)
        sim.run(until_us=5_000_000)
        phone.ll.request_connection_update(interval=50)
        sim.run(until_us=10_000_000)
        assert not injection_alerts(ids)
        assert not ids.alerts_of("jamming")

    def test_alert_metadata(self):
        sim, medium, ids, bulb, phone, attacker = build_monitored_world(
            seed=93)
        run_injection(sim, bulb, phone, attacker)
        alerts = injection_alerts(ids)
        assert alerts
        aa = phone.ll.conn.params.access_address if phone.ll.conn else None
        # Alerts reference the victim connection's access address.
        assert any(a.access_address == aa for a in alerts) or aa is None


class TestIdsAgainstJamming:
    def test_btlejack_detected(self):
        from repro.core.baselines import BtleJackHijack
        from repro.host.stack import CentralHost
        from repro.ll.master import MasterLinkLayer
        from repro.ll.pdu.address import BdAddress

        sim = Simulator(seed=94)
        topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
        medium = Medium(sim, topo)
        ids = DetectorBank(sim, medium, IDS_DETECTORS)
        bulb = Lightbulb(sim, medium, "bulb")
        phone = MasterLinkLayer(sim, medium, "phone",
                                BdAddress.from_str("C0:FF:EE:00:00:09"),
                                interval=36, timeout=100)
        CentralHost(phone)
        attacker = Attacker(sim, medium, "attacker")
        attacker.sniff_new_connections()
        bulb.power_on()
        phone.connect(bulb.address)
        sim.run(until_us=1_500_000)
        attacker.release_radio()
        hijack = BtleJackHijack(sim, attacker.radio, attacker.connection)
        hijack.start()
        sim.run(until_us=30_000_000)
        assert ids.alerts_of("jamming")


class TestWideningMitigation:
    def test_reduced_widening_blocks_injection(self):
        """§VIII mitigation 1: shrinking the receive window starves the
        race; the attack stops succeeding."""
        from repro.experiments.common import InjectionTrial, run_single_trial

        blocked = 0
        for i in range(5):
            result = run_single_trial(InjectionTrial(
                seed=9_000 + i, hop_interval=75, pdu_len=14,
                widening_scale=0.1))
            if not result.success:
                blocked += 1
        assert blocked >= 4

    def test_spec_widening_allows_injection(self):
        from repro.experiments.common import InjectionTrial, run_single_trial

        succeeded = 0
        for i in range(5):
            result = run_single_trial(InjectionTrial(
                seed=9_100 + i, hop_interval=75, pdu_len=14,
                widening_scale=1.0))
            if result.success:
                succeeded += 1
        assert succeeded >= 4


class TestEncryptionMitigation:
    def test_injection_into_encrypted_link_is_dos_only(self):
        """§IV: with AES-CCM on, the race can still be won but the MIC
        fails — confidentiality/integrity hold, availability does not."""
        from repro.experiments.common import InjectionTrial, run_single_trial

        for i in range(3):
            result = run_single_trial(InjectionTrial(
                seed=9_200 + i, hop_interval=75, pdu_len=14, encrypted=True))
            assert not result.effect_observed  # integrity preserved
