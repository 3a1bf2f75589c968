"""Dense-RF worlds: injection success vs. ambient channel occupancy.

The paper ran its experiments "in a realistic environment, including
several other BLE devices and multiple WiFi routers" (§VII-A), but real
hardware cannot *sweep* that environment.  The indexed medium can: this
module builds worlds with K concurrent background Central↔Peripheral
connections plus Wi-Fi-style interferers (``repro.sim.interference``) and
one attacker, measures the ambient occupancy the victim link actually
experiences, then runs the standard injection attack through it.

Two generators ship:

* ``apartment`` — a row-building of 6 m rooms separated by 8 dB walls;
  the victims and attacker share room 0, each background pair gets its
  own room, Wi-Fi sources are scattered through the rest;
* ``stadium`` — free space; victims centre stage, background pairs on a
  20 m ring, Wi-Fi on a 10 m ring (everyone in everyone's radio range —
  the worst case the interest-set medium is built for).

The *occupancy sweep* (`repro experiment occupancy`, campaign name
``occupancy``) scales the background load per :data:`OCCUPANCY_LOAD_LEVELS`
and reports, per level, the measured ambient occupancy next to the
injection outcome distribution.  Unlike the 3-device panels a dense trial
is *expected* to fail sometimes at high load — the sweep's product is the
success-vs-occupancy curve, not a 100% floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Mapping, Optional

from repro.errors import ConfigurationError
from repro.experiments.common import (
    VICTIM_SUPERVISION_TIMEOUT,
    TrialResult,
    attempts_of,
    build_injection_payload,
    observe_effect,
    run_attack,
    success_rate,
)
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology

#: Load-level label → (background connections, Wi-Fi interferers).
OCCUPANCY_LOAD_LEVELS: dict[str, tuple[int, int]] = {
    "idle (0 bg)": (0, 0),
    "sparse (4 bg + 1 wifi)": (4, 1),
    "busy (10 bg + 2 wifi)": (10, 2),
    "dense (16 bg + 3 wifi)": (16, 3),
}

#: Supported world generators.
LAYOUTS = ("apartment", "stadium")

#: Edge of one apartment room, metres.
ROOM_M = 6.0

#: Rooms per building row (room k sits at column k % 4, row k // 4).
ROOMS_PER_ROW = 4

#: Wall attenuation between rooms (typical interior wall at 2.4 GHz).
ROOM_WALL_DB = 8.0

#: Background connection hop intervals, cycled per pair (1.25 ms units) —
#: deliberately co-prime-ish so the ambient traffic does not beat.
BG_INTERVALS = (24, 36, 48)

#: Delay between consecutive background ``connect()`` kicks.  Staggering
#: keeps CONNECT_REQs from piling onto one advertising event, and all
#: background establishment finishes before the attacker starts sniffing
#: (so it cannot sync onto the wrong CONNECT_REQ).
ESTABLISH_STAGGER_US = 30_000.0

#: Settling time after the last background connect before occupancy is
#: measured.
ESTABLISH_SETTLE_US = 1_000_000.0

#: Ambient-occupancy measurement window (victims not yet in the world).
OCCUPANCY_WINDOW_US = 1_000_000.0

#: Victim connection + attacker-sync settling time.
VICTIM_SETTLE_US = 2_000_000.0

#: Injection budget per dense trial, from the start of the attack.  A
#: reporting attack ends the trial early (see
#: :func:`~repro.experiments.common.run_attack`); one that has not
#: reported within these few hundred connection events counts as a
#: failure — which, at high occupancy, is the signal being measured.
DENSE_INJECT_DEADLINE_US = 20_000_000.0

#: The BLE band (37 data + 3 advertising channels); occupancy denominators.
TOTAL_CHANNELS = 40

#: The smartphone-default victim hop interval, as in experiments 1-3.
EXPERIMENT_HOP_INTERVAL = 36

#: 22-byte over-the-air Write Request, as in experiments 1 and 3.
EXPERIMENT_PDU_LEN = 14


@dataclass(frozen=True)
class DenseTrial:
    """Configuration of one dense-world injection trial.

    Attributes:
        seed: trial seed.
        connections: background Central↔Peripheral pairs sharing the band.
        wifi_interferers: Wi-Fi-style burst sources.
        layout: world generator, one of :data:`LAYOUTS`.
        hop_interval: the *victim* connection's hop interval.
        pdu_len: injected PDU length (see
            :func:`~repro.experiments.common.build_injection_payload`).
        wifi_duty_cycle: per-interferer transmit duty cycle.
        collect_metrics: ship the world's metrics snapshot back in
            :attr:`~repro.experiments.common.TrialResult.metrics`.
    """

    seed: int
    connections: int = 12
    wifi_interferers: int = 1
    layout: str = "apartment"
    hop_interval: int = EXPERIMENT_HOP_INTERVAL
    pdu_len: int = EXPERIMENT_PDU_LEN
    wifi_duty_cycle: float = 0.10
    collect_metrics: bool = False


class _AirtimeMeter:
    """A wideband tap summing on-air microseconds (occupancy numerator).

    It reads nothing but each frame's airtime, so it declares itself
    ``airtime_only``: the fast-forward engine then credits it with the
    durations of the frames it skips instead of standing down.
    """

    __slots__ = ("us",)

    airtime_only = True

    def __init__(self):
        self.us = 0.0

    def __call__(self, frame) -> None:
        self.us += frame.duration_us

    def credit_airtime(self, durations) -> None:
        """Add frame durations given in frame-start order, one by one, as
        per-frame calls would (a float sum depends on its order)."""
        us = self.us
        for duration in durations:
            us += duration
        self.us = us


def _room_origin(room: int) -> tuple[float, float]:
    return (ROOM_M * (room % ROOMS_PER_ROW),
            ROOM_M * (room // ROOMS_PER_ROW))


def build_dense_topology(
    layout: str, n_pairs: int, n_wifi: int,
) -> tuple[Topology, list[tuple[str, str]], list[str]]:
    """Build a dense world's geometry.

    Returns ``(topology, [(master name, slave name), ...], wifi names)``;
    victim names are always ``peripheral``/``central``/``attacker``.
    """
    if layout not in LAYOUTS:
        raise ConfigurationError(
            f"unknown dense layout {layout!r}; expected one of {LAYOUTS}")
    if n_pairs < 0 or n_wifi < 0:
        raise ConfigurationError(
            f"negative world population: {n_pairs} pairs, {n_wifi} wifi")
    topo = Topology()
    pairs = [(f"bgm{i:02d}", f"bgs{i:02d}") for i in range(n_pairs)]
    wifi_names = [f"wifi{j:02d}" for j in range(n_wifi)]
    if layout == "apartment":
        # Victims and attacker share room 0; pair i lives in room i + 1.
        topo.place("peripheral", 3.0, 3.0)
        topo.place("central", 5.0, 3.0)
        topo.place("attacker", 1.0, 3.0)
        n_rooms = 1 + n_pairs
        for i, (m_name, s_name) in enumerate(pairs):
            ox, oy = _room_origin(i + 1)
            topo.place(m_name, ox + 1.5, oy + 1.5 + 0.7 * (i % 3))
            topo.place(s_name, ox + 4.5, oy + 4.5 - 0.5 * (i % 3))
        for j, name in enumerate(wifi_names):
            ox, oy = _room_origin((3 * j + 1) % n_rooms if n_rooms > 1 else 0)
            topo.place(name, ox + 1.0, oy + 5.0)
        # Full-height vertical and full-width horizontal walls between
        # neighbouring rooms.
        cols = min(ROOMS_PER_ROW, n_rooms)
        rows = (n_rooms + ROOMS_PER_ROW - 1) // ROOMS_PER_ROW
        for c in range(1, cols):
            topo.add_wall(ROOM_M * c, 0.0, ROOM_M * c, ROOM_M * rows,
                          attenuation_db=ROOM_WALL_DB)
        for r in range(1, rows):
            topo.add_wall(0.0, ROOM_M * r, ROOM_M * cols, ROOM_M * r,
                          attenuation_db=ROOM_WALL_DB)
    else:  # stadium: free space, everyone in range of everyone
        topo.place("peripheral", 0.0, 0.0)
        topo.place("central", 2.0, 0.0)
        topo.place("attacker", -2.0, 0.0)
        for i, (m_name, s_name) in enumerate(pairs):
            angle = 2.0 * math.pi * i / max(n_pairs, 1)
            topo.place(m_name, 20.0 * math.cos(angle), 20.0 * math.sin(angle))
            topo.place(s_name, 21.5 * math.cos(angle), 21.5 * math.sin(angle))
        for j, name in enumerate(wifi_names):
            angle = 2.0 * math.pi * (j + 0.5) / max(n_wifi, 1)
            topo.place(name, 10.0 * math.cos(angle), 10.0 * math.sin(angle))
    return topo, pairs, wifi_names


def populate_background(sim, medium, pairs, wifi_names,
                        wifi_duty_cycle: float = 0.10) -> list:
    """Create and start the ambient population of a dense world.

    Background slaves advertise, their masters connect on a staggered
    schedule, Wi-Fi interferers start bursting.  Shared by the occupancy
    sweep and the defense bench's dense-ambient worlds; the device
    creation order (and thus every RNG substream draw) is part of the
    determinism contract, so callers must pass ``pairs``/``wifi_names``
    exactly as :func:`build_dense_topology` returned them.

    Returns:
        the background ``(MasterLinkLayer, SlaveLinkLayer)`` pairs.
    """
    from repro.ll.master import MasterLinkLayer
    from repro.ll.pdu.address import BdAddress
    from repro.ll.slave import SlaveLinkLayer
    from repro.sim.interference import WifiInterferer

    bg_pairs = []
    for i, (m_name, s_name) in enumerate(pairs):
        bg_slave = SlaveLinkLayer(
            sim, medium, s_name,
            BdAddress.generate(sim.streams.get(f"addr-{s_name}")),
            # Staggered advertising intervals: simultaneous ADV_INDs on the
            # same channel would otherwise collide every event.
            adv_interval_ms=40.0 + 7.0 * i,
        )
        bg_master = MasterLinkLayer(
            sim, medium, m_name,
            BdAddress.generate(sim.streams.get(f"addr-{m_name}")),
            interval=BG_INTERVALS[i % len(BG_INTERVALS)], timeout=300,
        )
        bg_slave.start_advertising()
        sim.schedule_at(
            ESTABLISH_STAGGER_US * (i + 1),
            lambda m=bg_master, s=bg_slave: m.connect(s.address),
            "dense-bg-connect")
        bg_pairs.append((bg_master, bg_slave))
    for name in wifi_names:
        interferer = WifiInterferer(sim, medium, name,
                                    duty_cycle=wifi_duty_cycle)
        interferer.start()
    return bg_pairs


def run_dense_trial(trial: DenseTrial) -> TrialResult:
    """Run one dense-world trial (the campaign runner for ``DenseTrial``)."""
    result, _sim = run_dense_trial_world(trial)
    return result


def run_dense_trial_world(
    trial: DenseTrial,
    engine: Optional[str] = None,
    trace_enabled: bool = False,
) -> tuple[TrialResult, Simulator]:
    """:func:`run_dense_trial`, returning the simulator too.

    World timeline: background slaves advertise and their masters connect
    (staggered); Wi-Fi starts bursting; the world settles; ambient
    occupancy is measured over a quiet-victim window; then the victim
    connection forms under that load and the standard injection session
    runs against it.
    """
    from repro.core.attacker import Attacker
    from repro.core.injection import InjectionConfig
    from repro.devices.lightbulb import Lightbulb
    from repro.ll.master import MasterLinkLayer
    from repro.ll.pdu.address import BdAddress
    from repro.sim.medium import Medium

    sim = Simulator(seed=trial.seed, trace_enabled=trace_enabled,
                    metrics_enabled=trial.collect_metrics, engine=engine)
    topo, pairs, wifi_names = build_dense_topology(
        trial.layout, trial.connections, trial.wifi_interferers)
    medium = Medium(sim, topo)
    meter = _AirtimeMeter()
    medium.add_tap(meter)
    bg_pairs = populate_background(sim, medium, pairs, wifi_names,
                                   wifi_duty_cycle=trial.wifi_duty_cycle)

    establish_us = (ESTABLISH_SETTLE_US
                    + ESTABLISH_STAGGER_US * trial.connections)
    sim.run(until_us=establish_us)
    ambient_links = sum(1 for m, _s in bg_pairs if m.is_connected)
    airtime_before = meter.us
    sim.run(until_us=establish_us + OCCUPANCY_WINDOW_US)
    occupancy = (meter.us - airtime_before) \
        / (OCCUPANCY_WINDOW_US * TOTAL_CHANNELS)
    if sim.metrics.enabled:
        sim.metrics.gauge("dense.ambient_occupancy").set(occupancy)
        sim.metrics.gauge("dense.ambient_links").set(float(ambient_links))

    # The victim world forms only now, under the measured ambient load.
    bulb = Lightbulb(sim, medium, "peripheral")
    central = MasterLinkLayer(
        sim, medium, "central",
        BdAddress.from_str("C0:FF:EE:00:00:01"),
        interval=trial.hop_interval, timeout=VICTIM_SUPERVISION_TIMEOUT,
    )
    attacker = Attacker(sim, medium, "attacker",
                        injection_config=InjectionConfig(max_attempts=100))
    attacker.sniff_new_connections()
    bulb.power_on()
    central.connect(bulb.address)
    sim.run(until_us=sim.now + VICTIM_SETTLE_US)

    def snapshot() -> Optional[dict]:
        return sim.metrics.snapshot() if trial.collect_metrics else None

    if not attacker.synchronized:
        return TrialResult(success=False, attempts=0, metrics=snapshot(),
                           occupancy=occupancy), sim
    handle = bulb.gatt.find_characteristic(0xFF11).value_handle
    payload, llid = build_injection_payload(trial.pdu_len, handle)
    report = run_attack(sim, partial(attacker.inject, payload, llid),
                        sim.now + DENSE_INJECT_DEADLINE_US)
    if report is None:
        return TrialResult(success=False, attempts=0, metrics=snapshot(),
                           occupancy=occupancy), sim
    effect, survived = observe_effect(trial.pdu_len, central, bulb)
    return TrialResult(
        success=report.success,
        attempts=report.attempts,
        effect_observed=effect,
        connection_survived=survived,
        report=report,
        metrics=snapshot(),
        occupancy=occupancy,
    ), sim


def trial_units(
    base_seed: int = 9,
    n_connections: int = 10,
    levels: Optional[Mapping[str, tuple[int, int]]] = None,
    layout: str = "apartment",
    collect_metrics: bool = False,
) -> list[tuple[str, DenseTrial]]:
    """Expand the occupancy sweep into ``(level label, trial)`` units.

    Seed derivation follows the sweep-module convention
    (``base_seed + k*131`` per level, ``config_seed*10_000 + i`` per
    trial).
    """
    if levels is None:
        levels = OCCUPANCY_LOAD_LEVELS
    units = []
    for index, (label, (n_bg, n_wifi)) in enumerate(levels.items()):
        config_seed = base_seed + index * 131
        for i in range(n_connections):
            units.append((label, DenseTrial(
                seed=config_seed * 10_000 + i,
                connections=n_bg,
                wifi_interferers=n_wifi,
                layout=layout,
                collect_metrics=collect_metrics,
            )))
    return units


def summarize_occupancy(
    results: Mapping[str, list[TrialResult]],
) -> list[tuple[str, str, str, str]]:
    """Per-level summary rows: occupancy, success rate, median attempts."""
    rows = []
    for label, trials in results.items():
        measured = [r.occupancy for r in trials if r.occupancy is not None]
        mean_occ = sum(measured) / len(measured) if measured else 0.0
        attempts = sorted(attempts_of(trials))
        median = str(attempts[len(attempts) // 2]) if attempts else "-"
        rows.append((
            label,
            f"occupancy {mean_occ:.4f}",
            f"success {success_rate(trials):.2f}",
            f"median attempts {median}",
        ))
    return rows
