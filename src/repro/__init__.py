"""InjectaBLE reproduction: BLE traffic injection into established connections.

A faithful, fully simulated reproduction of *InjectaBLE: Injecting
malicious traffic into established Bluetooth Low Energy connections*
(Cayre et al., DSN 2021), built on a µs-resolution discrete-event radio
simulator with drifting sleep clocks, path loss and a capture-effect
collision model.

Quickstart::

    from repro import (
        Attacker, Lightbulb, Medium, Simulator, Smartphone, Topology,
    )

    sim = Simulator(seed=1)
    topo = Topology.equilateral_triangle(("bulb", "phone", "attacker"))
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "bulb")
    phone = Smartphone(sim, medium, "phone")
    attacker = Attacker(sim, medium, "attacker")

    attacker.sniff_new_connections()
    bulb.power_on()
    phone.connect_to(bulb.address)
    sim.run(until_us=1_500_000)

    # forge and inject an ATT Write Request turning the bulb off ...

See ``examples/`` for complete scripts and ``repro claims EXPERIMENTS.md``
(:mod:`repro.claims`) for the reproduction of every evaluation figure.
"""

from repro.core.attacker import Attacker
from repro.core.injection import InjectionConfig, InjectionOutcome, InjectionReport
from repro.core.scenarios import (
    IllegitimateUseScenario,
    MasterHijackScenario,
    MitmScenario,
    SlaveHijackScenario,
)
from repro.devices import Keyfob, Lightbulb, Smartphone, Smartwatch
from repro.ll.master import MasterLinkLayer
from repro.ll.pdu.address import BdAddress
from repro.ll.slave import SlaveLinkLayer
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology

__version__ = "1.0.0"

__all__ = [
    "Attacker",
    "BdAddress",
    "IllegitimateUseScenario",
    "InjectionConfig",
    "InjectionOutcome",
    "InjectionReport",
    "Keyfob",
    "Lightbulb",
    "MasterHijackScenario",
    "MasterLinkLayer",
    "Medium",
    "MitmScenario",
    "Simulator",
    "SlaveHijackScenario",
    "SlaveLinkLayer",
    "Smartphone",
    "Smartwatch",
    "Topology",
    "__version__",
]
