"""Shared harness for the injection sensitivity experiments (paper §VII).

One *trial* = one fresh world (simulator, victims, attacker), one
connection, one injection session; the measurement is the number of
injection attempts before the first success, exactly the quantity the
paper's Figure 9 box-plots show over 25 connections per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

from repro.core.attacker import Attacker
from repro.core.injection import InjectionConfig, InjectionReport
from repro.devices.lightbulb import Lightbulb
from repro.errors import ConfigurationError
from repro.host.att.pdus import WriteCmd, WriteReq
from repro.host.l2cap import CID_ATT, l2cap_encode
from repro.ll.master import MasterLinkLayer
from repro.ll.pdu.address import BdAddress
from repro.ll.pdu.control import TerminateInd
from repro.ll.pdu.data import LLID
from repro.sim.medium import Medium
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology

#: Default connections per configuration, matching the paper.
CONNECTIONS_PER_CONFIG = 25

#: Simulated-time budget per trial (µs): an attack that has not reported
#: by then counts as a failure.  A reporting attack ends the trial early.
TRIAL_DEADLINE_US = 120_000_000.0

#: Supervision timeout of the victim connections, in 10 ms units (3 s).
VICTIM_SUPERVISION_TIMEOUT = 300

#: Time to let an attack's effects settle before they are read: one
#: victim supervision timeout, so a link the attack broke has timed out
#: on both sides, plus a 2 s margin for the effect itself.
SETTLE_US = VICTIM_SUPERVISION_TIMEOUT * 10_000.0 + 2_000_000.0


@dataclass(frozen=True)
class InjectionTrial:
    """Configuration of one injection trial.

    Attributes:
        seed: trial seed (derive one per connection).
        hop_interval: connection hop interval in 1.25 ms slots.
        pdu_len: total injected PDU length in bytes (header + payload);
            the paper's "payload size" axis — a 14-byte PDU is the 22-byte
            over-the-air frame used in experiments 1 and 3.
        attacker_distance_m: attacker distance from the Peripheral; the
            Peripheral-Central distance stays 2 m.
        wall_attenuation_db: attenuation of a wall between attacker and
            victims (0 = no wall).
        master_sca_ppm / slave_sca_ppm: victim clock accuracies.
        widening_scale: Slave-side widening reduction (mitigation ablation,
            1.0 = spec behaviour).
        encrypted: pair-and-encrypt the victim connection before injecting
            (countermeasure ablation; injection then cannot produce valid
            traffic).
        collect_metrics: run the world with the
            :class:`~repro.telemetry.metrics.MetricsRegistry` enabled and
            ship its snapshot back in :attr:`TrialResult.metrics`.
    """

    seed: int
    hop_interval: int = 36
    pdu_len: int = 14
    attacker_distance_m: float = 2.0
    wall_attenuation_db: float = 0.0
    master_sca_ppm: float = 50.0
    slave_sca_ppm: float = 50.0
    widening_scale: float = 1.0
    encrypted: bool = False
    collect_metrics: bool = False


@dataclass
class TrialResult:
    """Outcome of one trial.

    Attributes:
        success: injection succeeded within the attempt/time budget.
        attempts: transmissions before (and including) the success.
        effect_observed: the targeted device feature actually triggered
            (validates the heuristic end to end, as the paper does with
            frames that have "a visible effect on the device").
        connection_survived: both victims still consider the connection
            alive after the attack (challenge C2).
        report: raw injection report.
        metrics: the world's merged metrics snapshot (see
            :meth:`repro.telemetry.metrics.MetricsRegistry.snapshot`) when
            the trial ran with ``collect_metrics=True``, else ``None``.
        failure: ``None`` for a trial that ran to completion; otherwise the
            runner's failure taxonomy (``timeout`` / ``crash`` /
            ``error: ...``) for a trial the robust executor terminated,
            lost, or quarantined — see
            :func:`repro.runner.executor.run_units_robust`.
        occupancy: measured ambient band occupancy of the trial's world
            (dense-world trials only, see
            :mod:`repro.experiments.dense`); ``None`` for the 3-device
            panels.
        detection: defense-bench payload (see
            :mod:`repro.experiments.defense`): traffic kind, attack
            outcome and the per-detector verdict summaries from
            :meth:`repro.defense.bank.DetectorBank.summaries`; ``None``
            for unmonitored trials.
    """

    success: bool
    attempts: int
    effect_observed: bool = False
    connection_survived: bool = False
    report: Optional[InjectionReport] = None
    metrics: Optional[dict] = None
    failure: Optional[str] = None
    occupancy: Optional[float] = None
    detection: Optional[dict] = None


def build_injection_payload(pdu_len: int, control_handle: int
                            ) -> tuple[bytes, LLID]:
    """Construct an injected payload yielding exactly ``pdu_len`` PDU bytes.

    Mirrors the paper's choice of frames with observable effects:

    * ``pdu_len >= 12``: ATT Write Request to the bulb's control
      characteristic turning it off, zero-padded to size;
    * ``9 <= pdu_len < 12``: ATT Write Command ditto;
    * ``pdu_len == 4``: ``LL_TERMINATE_IND`` (observable disconnect).
    """
    if pdu_len == 4:
        return TerminateInd().to_payload(), LLID.CONTROL
    if pdu_len < 9:
        raise ConfigurationError(
            f"no observable payload construction for pdu_len={pdu_len}"
        )
    ll_payload_len = pdu_len - 2
    att_len = ll_payload_len - 4  # minus L2CAP header
    value_len = att_len - 3  # minus opcode + handle
    if value_len <= 0:
        value = b""  # empty control write toggles the bulb's power
    elif value_len == 1:
        from repro.devices.lightbulb import OP_TOGGLE

        value = bytes([OP_TOGGLE])
    else:
        value = Lightbulb.power_payload(False, pad_to=value_len)
    if pdu_len >= 12:
        att = WriteReq(control_handle, value).to_bytes()
    else:
        att = WriteCmd(control_handle, value).to_bytes()
    payload = l2cap_encode(CID_ATT, att)
    if len(payload) != ll_payload_len:
        raise ConfigurationError(
            f"payload construction bug: {len(payload)} != {ll_payload_len}"
        )
    return payload, LLID.DATA_START


def observe_effect(pdu_len: int, central: MasterLinkLayer,
                   bulb: Lightbulb) -> tuple[bool, bool]:
    """``(effect_observed, connection_survived)`` after an injection.

    The payload-size rule of :func:`build_injection_payload`: a 4-byte
    ``LL_TERMINATE_IND`` shows as the bulb dropping the link, and only the
    Central's side counts for survival; any other size is a write turning
    the bulb off over a link that must survive on both sides.
    """
    if pdu_len == 4:
        return not bulb.ll.is_connected, central.is_connected
    return (not bulb.is_on,
            central.is_connected and bulb.ll.is_connected)


def run_attack(sim: Simulator, start: Callable[[Callable], None],
               deadline_us: float, settle_us: float = SETTLE_US):
    """Run an attack until it reports, then let its effects settle.

    ``start(on_done)`` launches the attack; ``on_done`` records the
    attack's report and stops the simulator, which then runs on for
    ``settle_us``.  ``deadline_us`` (absolute simulated time) is only the
    budget of an attack that never reports.  A caller that acts on the
    report and then runs its own follow-up passes ``settle_us=0``.

    Returns:
        the report, or ``None`` when the attack did not report in time.
    """
    reports: list = []

    def on_done(report) -> None:
        reports.append(report)
        sim.stop()

    start(on_done)
    sim.run(until_us=deadline_us)
    if not reports:
        return None
    if settle_us > 0:
        sim.run(until_us=sim.now + settle_us)
    return reports[0]


def _build_topology(trial: InjectionTrial) -> Topology:
    """Victims 2 m apart; attacker on the opposite side at its distance.

    For the 2 m attacker distance this reduces to (a slight variant of)
    the paper's equilateral triangle; for the distance/wall experiments the
    attacker moves away along the axis through the Peripheral (paper
    Fig. 8), with the wall perpendicular to that axis at 1 m.
    """
    topo = Topology()
    topo.place("peripheral", 0.0, 0.0)
    topo.place("central", 2.0, 0.0)
    topo.place("attacker", -trial.attacker_distance_m, 0.0)
    if trial.wall_attenuation_db > 0:
        topo.add_wall(-1.0, -50.0, -1.0, 50.0,
                      attenuation_db=trial.wall_attenuation_db)
    return topo


def run_single_trial(trial: InjectionTrial) -> TrialResult:
    """Run one connection + injection and measure attempts-to-success."""
    result, _sim = run_trial_world(trial)
    return result


def run_trial_world(
    trial: InjectionTrial,
    engine: Optional[str] = None,
    trace_enabled: bool = False,
) -> tuple[TrialResult, Simulator]:
    """:func:`run_single_trial`, returning the simulator too.

    Args:
        trial: the trial configuration.
        engine: simulation engine (``"fast"``/``"reference"``); ``None``
            defers to :func:`repro.sim.fastforward.resolve_engine`.
        trace_enabled: record the full event trace (differential tests
            compare it byte for byte across engines).
    """
    from repro.sim.fastforward import install_engine

    sim = Simulator(seed=trial.seed, trace_enabled=trace_enabled,
                    metrics_enabled=trial.collect_metrics)
    topo = _build_topology(trial)
    medium = Medium(sim, topo)
    bulb = Lightbulb(sim, medium, "peripheral", sca_ppm=trial.slave_sca_ppm)
    bulb.ll.widening_scale = trial.widening_scale
    central = MasterLinkLayer(
        sim, medium, "central",
        BdAddress.from_str("C0:FF:EE:00:00:01"),
        interval=trial.hop_interval,
        timeout=VICTIM_SUPERVISION_TIMEOUT,
        sca_ppm=trial.master_sca_ppm,
    )
    from repro.host.stack import CentralHost

    central_host = CentralHost(central)
    attacker = Attacker(sim, medium, "attacker",
                        injection_config=InjectionConfig(max_attempts=100))
    install_engine(sim, medium, central, bulb.ll, engine=engine)
    attacker.sniff_new_connections()
    bulb.power_on()
    central.connect(bulb.address)
    sim.run(until_us=2_000_000)
    if trial.encrypted:
        central_host.pair(encrypt=True)
        sim.run(until_us=4_000_000)

    def snapshot() -> Optional[dict]:
        return sim.metrics.snapshot() if trial.collect_metrics else None

    if not attacker.synchronized:
        return TrialResult(success=False, attempts=0,
                           metrics=snapshot()), sim

    handle = bulb.gatt.find_characteristic(0xFF11).value_handle
    payload, llid = build_injection_payload(trial.pdu_len, handle)
    report = run_attack(sim, partial(attacker.inject, payload, llid),
                        TRIAL_DEADLINE_US)
    if report is None:
        return TrialResult(success=False, attempts=0,
                           metrics=snapshot()), sim
    effect, survived = observe_effect(trial.pdu_len, central, bulb)
    return TrialResult(
        success=report.success,
        attempts=report.attempts,
        effect_observed=effect,
        connection_survived=survived,
        report=report,
        metrics=snapshot(),
    ), sim


def run_trials(
    base_seed: int,
    n_connections: int,
    make_trial: Callable[[int], InjectionTrial],
    *,
    jobs: Optional[int] = None,
    cache=None,
) -> list[TrialResult]:
    """Run ``n_connections`` independent trials with derived seeds.

    Args:
        base_seed: per-configuration seed; trial ``i`` gets seed
            ``base_seed * 10_000 + i``.
        n_connections: trials to run (the paper uses 25).
        make_trial: seed → :class:`InjectionTrial` for this configuration.
        jobs: worker processes (``None`` → ``$REPRO_JOBS`` → serial;
            ``<= 0`` → all cores).  Results are identical regardless of
            ``jobs`` — trials are independent and internally seeded.
        cache: ``True`` for the default on-disk
            :class:`~repro.runner.cache.ResultCache`, an instance to use it,
            ``None``/``False`` to recompute.
    """
    from repro.runner import execute_trials

    trials = [make_trial(base_seed * 10_000 + i) for i in range(n_connections)]
    return execute_trials(trials, jobs=jobs, cache=cache)


def run_trial_units(
    units: "list[tuple]",
    *,
    jobs: Optional[int] = None,
    cache=None,
) -> dict:
    """Execute ``(config key, trial)`` units and group results by key.

    Every sweep module exposes its grid through ``trial_units()`` (the
    campaign engine's uniform entry point);
    :func:`repro.campaign.run_experiment` runs a grid by name through
    here, so one-shot panels and campaigns run the exact same trials in
    the exact same order.  Keys keep first-seen (grid) order.
    Trials dispatch through the campaign registry, so units may mix
    trial types (e.g. :class:`InjectionTrial` and ``DenseTrial``).
    """
    from repro.campaign.registry import run_unit_trial
    from repro.runner import execute_trials

    results = execute_trials([trial for _, trial in units],
                             jobs=jobs, cache=cache,
                             runner=run_unit_trial)
    grouped: dict = {}
    for (key, _), result in zip(units, results):
        grouped.setdefault(key, []).append(result)
    return grouped


def attempts_of(results: list[TrialResult]) -> list[int]:
    """Attempt counts of the successful trials."""
    return [r.attempts for r in results if r.success]


def success_rate(results: list[TrialResult]) -> float:
    """Fraction of trials whose injection succeeded."""
    if not results:
        return 0.0
    return sum(1 for r in results if r.success) / len(results)
