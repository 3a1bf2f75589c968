"""Shared fixtures: simulated worlds at several assembly levels."""

from __future__ import annotations

import pytest

from repro.devices import Lightbulb, Smartphone
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def triangle_world():
    """Simulator + medium with a 2 m equilateral triangle topology.

    Returns a factory so tests can choose names and seed.
    """

    def build(names=("peripheral", "central", "attacker"), seed=1234,
              edge_m=2.0):
        simulator = Simulator(seed=seed)
        topology = Topology.equilateral_triangle(tuple(names), edge_m=edge_m)
        medium = Medium(simulator, topology)
        return simulator, medium

    return build


@pytest.fixture
def connected_bulb_world(triangle_world):
    """A lightbulb connected to a smartphone, attacker placement ready.

    Returns (sim, medium, bulb, phone) after the connection settles.
    """

    def build(seed=1234, interval=36, names=("bulb", "phone", "attacker")):
        simulator, medium = triangle_world(names=names, seed=seed)
        bulb = Lightbulb(simulator, medium, names[0])
        phone = Smartphone(simulator, medium, names[1], interval=interval)
        bulb.power_on()
        phone.connect_to(bulb.address)
        simulator.run(until_us=1_500_000)
        assert phone.is_connected and bulb.ll.is_connected
        return simulator, medium, bulb, phone

    return build
