#!/usr/bin/env python3
"""Countermeasures demo (paper §VIII): encryption and a link-layer IDS.

Part 1 — encryption: the phone pairs (Just Works legacy pairing) and turns
on AES-CCM link encryption.  The attacker still wins the timing race, but
its forged plaintext fails the MIC check: no feature triggers, and the
best it achieves is denial of service.

Part 2 — IDS: a passive wideband monitor watches the same attack against
an unencrypted connection and raises the paper's "double frame" /
anchor-anomaly signatures.

Run:
    python examples/defense_monitoring.py [seed]
"""

from __future__ import annotations

import sys

from repro import Attacker, Lightbulb, Medium, Simulator, Smartphone, Topology
from repro.core.injection import InjectionConfig
from repro.core.scenarios import IllegitimateUseScenario
from repro.defense.bank import DetectorBank
from repro.devices.lightbulb import UUID_BULB_CONTROL


def build_world(seed: int, with_ids: bool):
    sim = Simulator(seed=seed)
    topology = Topology.equilateral_triangle(("bulb", "phone", "attacker"),
                                             edge_m=2.0)
    medium = Medium(sim, topology)
    ids = (DetectorBank(sim, medium,
                        ("double-frame", "anchor-anomaly", "jamming"))
           if with_ids else None)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone", interval=75)
    attacker = Attacker(sim, medium, "attacker",
                        injection_config=InjectionConfig(max_attempts=40))
    return sim, bulb, phone, attacker, ids


def main(seed: int = 13) -> int:
    # --- Part 1: encryption limits the attack to DoS --------------------
    sim, bulb, phone, attacker, _ = build_world(seed, with_ids=False)
    attacker.sniff_new_connections()
    bulb.power_on()
    phone.connect_to(bulb.address)
    sim.run(until_us=1_500_000)
    phone.host.pair(encrypt=True)
    sim.run(until_us=3_000_000)
    print(f"link encrypted: phone={phone.ll.encryption is not None} "
          f"bulb={bulb.ll.encryption is not None}")

    handle = bulb.gatt.find_characteristic(UUID_BULB_CONTROL).value_handle
    results = []
    IllegitimateUseScenario(attacker).inject_write(
        handle, Lightbulb.power_payload(False, pad_to=5),
        on_done=results.append)
    sim.run(until_us=60_000_000)
    report = results[0].report if results else None
    print(f"injection vs encrypted link: "
          f"{report.outcome.value if report else 'n/a'} "
          f"({report.attempts if report else 0} attempts)")
    print(f"bulb state untouched: {bulb.is_on} (still on)")
    print(f"residual impact is DoS: bulb connection alive = "
          f"{bulb.ll.is_connected}")

    # --- Part 2: the IDS sees the injection -----------------------------
    sim, bulb, phone, attacker, ids = build_world(seed + 1, with_ids=True)
    attacker.sniff_new_connections()
    bulb.power_on()
    phone.connect_to(bulb.address)
    sim.run(until_us=1_500_000)
    handle = bulb.gatt.find_characteristic(UUID_BULB_CONTROL).value_handle
    results = []
    IllegitimateUseScenario(attacker).inject_write(
        handle, Lightbulb.power_payload(False, pad_to=5),
        on_done=results.append)
    sim.run(until_us=60_000_000)
    assert ids is not None
    print(f"\nunencrypted attack succeeded: "
          f"{results[0].success if results else False}")
    alerts = ids.alerts_of("double-frame") + ids.alerts_of("anchor-anomaly")
    print(f"IDS detected injection: {bool(alerts)}")
    for alert in sorted(alerts, key=lambda a: a.time_us)[:5]:
        print(f"  [{alert.time_us/1e6:.3f}s] {alert.kind}: {alert.detail}")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 13))
