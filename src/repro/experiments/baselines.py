"""BASE-1 — InjectaBLE vs the state of the art (paper §II / §VI-C).

BTLEJack hijacks the Master too, but by jamming every event for a whole
supervision timeout; GATTacker/BTLEJuice interpose only before a
connection exists.
"""

from __future__ import annotations

from repro.core.attacker import Attacker
from repro.core.baselines import BtleJackHijack, BtleJuiceMitm, GattackerMitm
from repro.core.scenarios import MasterHijackScenario
from repro.devices import Lightbulb, Smartphone
from repro.host.stack import CentralHost
from repro.ll.master import MasterLinkLayer
from repro.ll.pdu.address import BdAddress
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


def hijack_world(seed: int):
    """Bulb + Central (hop 36, 1 s supervision timeout) + an attacker
    synchronised on their connection, on the 2 m triangle."""
    sim = Simulator(seed=seed, trace_enabled=False)
    topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "bulb")
    bulb.ll.readvertise_on_disconnect = False
    phone = MasterLinkLayer(sim, medium, "phone",
                            BdAddress.from_str("C0:FF:EE:00:00:10"),
                            interval=36, timeout=100)
    CentralHost(phone)
    attacker = Attacker(sim, medium, "attacker")
    attacker.sniff_new_connections()
    bulb.power_on()
    phone.connect(bulb.address)
    sim.run(until_us=1_500_000)
    assert attacker.synchronized
    return sim, bulb, phone, attacker


def run_injectable_hijack(seed: int) -> tuple[bool, int, float]:
    """Scenario C's takeover: (succeeded, frames on air, µs to takeover)."""
    sim, bulb, phone, attacker = hijack_world(seed)
    results: list = []
    MasterHijackScenario(attacker, instant_delta=40).run(on_done=results.append)
    start = sim.now
    sim.run(until_us=25_000_000)
    ok = bool(results and results[0].success and bulb.ll.is_connected)
    frames = results[0].report.attempts if results else 0
    return ok, frames, sim.now - start


def run_btlejack_hijack(seed: int) -> tuple[bool, int, float]:
    """BTLEJack's jamming takeover: (succeeded, frames on air, µs)."""
    sim, bulb, phone, attacker = hijack_world(seed)
    attacker.release_radio()
    results: list = []
    hijack = BtleJackHijack(sim, attacker.radio, attacker.connection)
    hijack.start(on_done=results.append)
    sim.run(until_us=25_000_000)
    ok = bool(results and results[0].hijacked and bulb.ll.is_connected)
    return ok, hijack.jam_frames, (results[0].duration_us if results else 0)


def spoof_world(seed: int):
    """Bulb and phone 2 m apart, attacker beside them; nothing powered."""
    sim = Simulator(seed=seed, trace_enabled=False)
    topo = Topology()
    topo.place("bulb", 0.0, 0.0)
    topo.place("phone", 2.0, 0.0)
    topo.place("attacker", 1.0, 1.0)
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone")
    return sim, medium, bulb, phone


def run_spoofing(tool_cls, established: bool, seed: int) -> bool:
    """Whether a spoofing MitM tool captures the Central, started before
    the connection exists or after it is established."""
    sim, medium, bulb, phone = spoof_world(seed)
    tool = tool_cls(sim, medium, "attacker", victim=bulb)
    bulb.power_on()
    if established:
        phone.connect_to(bulb.address)
        sim.run(until_us=2_000_000)
        tool.start()
    else:
        tool.start()
        sim.run(until_us=2_000_000)
        phone.connect_to(bulb.address)
    sim.run(until_us=12_000_000)
    return tool.result.central_captured


def run_baseline_comparison(base_seed: int = 2001) -> dict:
    """Every BASE-1 world: the two hijacks (seeds ``base_seed`` and
    ``base_seed + 1``) and each spoofing tool before / after the
    connection (``base_seed + 2`` / ``+ 3``)."""
    comparison: dict = {"injectable": run_injectable_hijack(base_seed),
                        "btlejack": run_btlejack_hijack(base_seed + 1)}
    for name, cls in (("GATTacker", GattackerMitm), ("BTLEJuice", BtleJuiceMitm)):
        comparison[name] = (run_spoofing(cls, False, base_seed + 2),
                            run_spoofing(cls, True, base_seed + 3))
    return comparison
