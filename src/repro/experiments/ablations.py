"""Countermeasure ablations (paper §VIII / §IV).

Three studies beyond the paper's Figure 9, quantifying the mitigations the
paper proposes qualitatively:

* **ABL-1** widening reduction: injection success rate vs the Slave's
  ``widening_scale`` (run it as ``run_experiment("widening", ...)``);
* **ABL-2** encryption: injection against a paired, AES-CCM-encrypted
  connection — never yields valid traffic, degrades to DoS
  (``run_experiment("encryption", ...)``);
* **ABL-3** IDS: detection rate of the double-frame/anchor signatures
  against successful injections, and of jamming against BTLEJack.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.core.attacker import Attacker
from repro.core.injection import InjectionConfig
from repro.defense.bank import DetectorBank
from repro.devices.lightbulb import Lightbulb
from repro.experiments.common import (
    VICTIM_SUPERVISION_TIMEOUT,
    InjectionTrial,
    build_injection_payload,
    run_attack,
)
from repro.host.stack import CentralHost
from repro.ll.master import MasterLinkLayer
from repro.ll.pdu.address import BdAddress
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology

#: Widening scales swept by ABL-1 (1.0 = spec behaviour).
WIDENING_SCALES: tuple[float, ...] = (1.0, 0.75, 0.5, 0.25, 0.1)

#: The three classic §VIII signatures ABL-3 monitors for.
IDS_DETECTORS: tuple[str, ...] = ("double-frame", "anchor-anomaly", "jamming")


def trial_units(
    base_seed: int = 5,
    n_connections: int = 15,
    scales: tuple[float, ...] = WIDENING_SCALES,
    collect_metrics: bool = False,
) -> list[tuple[float, InjectionTrial]]:
    """Expand ABL-1 into ``(widening scale, trial)`` units, grid-major.

    Seed derivation matches the historical panel (``base_seed + k*113``
    per scale, ``config_seed*10_000 + i`` per trial).
    """
    units = []
    for index, scale in enumerate(scales):
        config_seed = base_seed + index * 113
        for i in range(n_connections):
            units.append((scale, InjectionTrial(
                seed=config_seed * 10_000 + i, hop_interval=75, pdu_len=14,
                widening_scale=scale, collect_metrics=collect_metrics,
            )))
    return units


def encryption_trial_units(
    base_seed: int = 6,
    n_connections: int = 15,
    collect_metrics: bool = False,
) -> list[tuple[str, InjectionTrial]]:
    """Expand ABL-2 into ``("encrypted", trial)`` units (one config)."""
    return [
        ("encrypted", InjectionTrial(
            seed=base_seed * 10_000 + i, hop_interval=75, pdu_len=14,
            encrypted=True, collect_metrics=collect_metrics,
        ))
        for i in range(n_connections)
    ]


@dataclass
class IdsAblationResult:
    """ABL-3 outcome for one attack run.

    Attributes:
        attack: ``"injectable"`` or ``"btlejack"``.
        attack_succeeded: the offensive goal was reached.
        detected: the IDS raised the matching signature.
        attacker_frames: frames the attacker put on air (visibility cost).
    """

    attack: str
    attack_succeeded: bool
    detected: bool
    attacker_frames: int


def _detected_injection(bank: DetectorBank) -> bool:
    """Whether either injection signature raised an alert."""
    return bool(bank.alerts_of("double-frame")
                or bank.alerts_of("anchor-anomaly"))


def _run_ids_injectable(seed: int) -> IdsAblationResult:
    sim = Simulator(seed=seed, trace_enabled=False)
    topo = Topology.equilateral_triangle(("peripheral", "central", "attacker"))
    medium = Medium(sim, topo)
    bank = DetectorBank(sim, medium, IDS_DETECTORS)
    bulb = Lightbulb(sim, medium, "peripheral")
    central = MasterLinkLayer(sim, medium, "central",
                              BdAddress.from_str("C0:FF:EE:00:00:02"),
                              interval=36, timeout=VICTIM_SUPERVISION_TIMEOUT)
    CentralHost(central)
    attacker = Attacker(sim, medium, "attacker",
                        injection_config=InjectionConfig(max_attempts=60))
    attacker.sniff_new_connections()
    bulb.power_on()
    central.connect(bulb.address)
    sim.run(until_us=1_500_000)
    if not attacker.synchronized:
        return IdsAblationResult("injectable", False,
                                 _detected_injection(bank), 0)
    handle = bulb.gatt.find_characteristic(0xFF11).value_handle
    payload, llid = build_injection_payload(14, handle)
    report = run_attack(sim, partial(attacker.inject, payload, llid),
                        60_000_000)
    succeeded = bool(report and report.success)
    frames = report.attempts if report else 0
    return IdsAblationResult("injectable", succeeded,
                             _detected_injection(bank), frames)


def _run_ids_btlejack(seed: int) -> IdsAblationResult:
    from repro.core.baselines.btlejack import BtleJackHijack

    sim = Simulator(seed=seed, trace_enabled=False)
    topo = Topology.equilateral_triangle(("peripheral", "central", "attacker"))
    medium = Medium(sim, topo)
    bank = DetectorBank(sim, medium, IDS_DETECTORS)
    bulb = Lightbulb(sim, medium, "peripheral")
    central = MasterLinkLayer(sim, medium, "central",
                              BdAddress.from_str("C0:FF:EE:00:00:03"),
                              interval=36, timeout=100)
    CentralHost(central)
    attacker = Attacker(sim, medium, "attacker")
    attacker.sniff_new_connections()
    bulb.power_on()
    central.connect(bulb.address)
    sim.run(until_us=1_500_000)
    if not attacker.synchronized:
        return IdsAblationResult("btlejack", False,
                                 bool(bank.alerts_of("jamming")), 0)
    attacker.release_radio()
    results = []
    hijack = BtleJackHijack(sim, attacker.radio, attacker.connection)
    hijack.start(on_done=results.append)
    sim.run(until_us=30_000_000)
    hijacked = bool(results and results[0].hijacked)
    return IdsAblationResult("btlejack", hijacked,
                             bool(bank.alerts_of("jamming")),
                             hijack.jam_frames)


def _run_ids_task(task: tuple[str, int]) -> IdsAblationResult:
    """Picklable dispatch for one IDS-ablation world."""
    attack, seed = task
    if attack == "injectable":
        return _run_ids_injectable(seed)
    return _run_ids_btlejack(seed)


def run_ids_ablation(base_seed: int = 7, n_runs: int = 8,
                     jobs: Optional[int] = None) -> list[IdsAblationResult]:
    """ABL-3: IDS detection of InjectaBLE vs BTLEJack."""
    from repro.runner import execute_trials

    tasks: list[tuple[str, int]] = []
    for i in range(n_runs):
        tasks.append(("injectable", base_seed * 10_000 + i))
        tasks.append(("btlejack", base_seed * 20_000 + i))
    return execute_trials(tasks, jobs=jobs, runner=_run_ids_task)
