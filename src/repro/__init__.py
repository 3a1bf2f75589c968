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

from importlib import import_module
from typing import Any

__version__ = "1.0.0"

#: Public name -> defining module.  The names resolve on first access
#: (PEP 562), so ``import repro`` (and with it every ``repro`` command)
#: loads neither numpy nor the simulator until something asks for them.
_EXPORTS = {
    "Attacker": "repro.core.attacker",
    "BdAddress": "repro.ll.pdu.address",
    "IllegitimateUseScenario": "repro.core.scenarios",
    "InjectionConfig": "repro.core.injection",
    "InjectionOutcome": "repro.core.injection",
    "InjectionReport": "repro.core.injection",
    "Keyfob": "repro.devices",
    "Lightbulb": "repro.devices",
    "MasterHijackScenario": "repro.core.scenarios",
    "MasterLinkLayer": "repro.ll.master",
    "Medium": "repro.sim.medium",
    "MitmScenario": "repro.core.scenarios",
    "Simulator": "repro.sim.simulator",
    "SlaveHijackScenario": "repro.core.scenarios",
    "SlaveLinkLayer": "repro.ll.slave",
    "Smartphone": "repro.devices",
    "Smartwatch": "repro.devices",
    "Topology": "repro.sim.topology",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str) -> Any:
    """Import the module defining public name ``name`` on first access."""
    if name not in _EXPORTS:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(import_module(_EXPORTS[name]), name)
    globals()[name] = value
    return value
