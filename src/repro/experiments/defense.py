"""Defense bench: every detector against every traffic kind (§VIII).

The paper argues for a passive IDS but never measures one.  This bench
does: a :class:`~repro.defense.bank.DetectorBank` taps each world and
every registered detector scores the same traffic, which comes in six
kinds —

* ``benign`` — the standard victim + phone world with a *passive*
  sniffing attacker and a periodic GATT polling workload (the
  false-positive floor every detector must clear);
* ``dense-ambient`` — the same victim link formed inside a stadium
  world with background connections and Wi-Fi bursts (the false-positive
  load under RF churn); no attacker at all;
* ``A``/``B``/``C``/``D`` — the four §VI attack scenarios launched
  against the monitored world (the positive class).

Attack trials are the ROC positives, benign and dense-ambient trials the
negatives; :func:`summarize_defense` folds the per-trial max scores into
per-detector AUC / TPR / FPR plus first-alert latency quantiles (see
:mod:`repro.analysis.roc`).  Detection latency is measured from the
instant the attack primitive is kicked off, not from its success.

Every trial result is a pure function of its :class:`DefenseTrial`; the
verdict-stream SHA-256 digests inside
:attr:`~repro.experiments.common.TrialResult.detection` are compared
bit-for-bit across engines and worker counts by the differential tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.experiments.common import TrialResult

#: Canonical traffic kinds, grid order (negatives first).
TRAFFIC_KINDS = ("benign", "dense-ambient", "A", "B", "C", "D")

#: The positive-class subset of :data:`TRAFFIC_KINDS`.
ATTACK_TRAFFICS = ("A", "B", "C", "D")

#: Attack budget per scenario (simulated µs) — the §VI runner deadlines.
ATTACK_DEADLINE_US = {
    "A": 60_000_000.0,
    "B": 15_000_000.0,
    "C": 25_000_000.0,
    "D": 15_000_000.0,
}

#: Chunk size when running the attack phase; the loop stops at the first
#: chunk boundary after the scenario reports, instead of burning the
#: whole deadline.  Boundaries are fixed multiples past the (fixed)
#: attack start, so chunking never perturbs determinism.
ATTACK_CHUNK_US = 5_000_000.0

#: Phone-side GATT polling workload: period and default request count.
#: The polls give the response-time detector request/response pairs to
#: judge in *every* traffic kind — benign worlds answer in-event, a
#: scenario-D relay adds at least two connection intervals per hop.
POLL_PERIOD_US = 400_000.0
POLL_COUNT = 6

#: Settling time after the last poll before verdicts are folded.
POLL_SETTLE_US = 1_000_000.0

#: Background population of the ``dense-ambient`` world (stadium layout:
#: everyone in everyone's radio range — the worst false-positive case).
AMBIENT_PAIRS = 4
AMBIENT_WIFI = 1

#: Victim-connection settling time (matches the §VI world builder's).
ESTABLISH_US = 1_200_000.0


@dataclass(frozen=True)
class DefenseTrial:
    """Configuration of one monitored-world trial.

    Attributes:
        seed: trial seed.
        traffic: canonical traffic kind, one of :data:`TRAFFIC_KINDS`.
        device: victim device name in
            :data:`repro.experiments.scenarios.DEVICES`.
        detectors: detector registry names to load into the bank; empty
            loads every registered detector.
        polls: phone-side GATT reads issued after the attack phase.
        collect_metrics: run the world instrumented and ship the
            snapshot back in :attr:`TrialResult.metrics`.
    """

    seed: int
    traffic: str
    device: str = "lightbulb"
    detectors: Tuple[str, ...] = ()
    polls: int = POLL_COUNT
    collect_metrics: bool = False


def resolve_traffic(name: str) -> str:
    """Resolve a traffic label to its canonical :data:`TRAFFIC_KINDS` key.

    Accepts canonical kinds, scenario letters in either case, scenario
    display names (``"A (use feature)"``) and the aliases ``clean`` /
    ``dense`` / ``ambient``.
    """
    key = name.strip()
    if key in TRAFFIC_KINDS:
        return key
    lowered = key.lower()
    if lowered in ("benign", "clean"):
        return "benign"
    if lowered in ("dense-ambient", "dense", "ambient"):
        return "dense-ambient"
    letter = key.split()[0].upper()
    if letter in ATTACK_TRAFFICS:
        return letter
    raise KeyError(
        f"unknown traffic kind {name!r}; expected one of {TRAFFIC_KINDS}"
    )


def traffic_label(traffic: str) -> str:
    """Human-readable label for a canonical traffic kind."""
    from repro.experiments.scenarios import SCENARIO_LETTERS

    return SCENARIO_LETTERS.get(traffic, traffic)


def run_defense_trial(trial: DefenseTrial) -> TrialResult:
    """Run one monitored world (the campaign runner for ``DefenseTrial``)."""
    result, _sim = run_defense_trial_world(trial)
    return result


def _build_ambient_world(trial: DefenseTrial, engine: Optional[str],
                         trace_enabled: bool):
    """The ``dense-ambient`` world: victim link amid stadium RF churn."""
    from repro.devices import Smartphone
    from repro.experiments.dense import (
        ESTABLISH_SETTLE_US,
        ESTABLISH_STAGGER_US,
        EXPERIMENT_HOP_INTERVAL,
        build_dense_topology,
        populate_background,
    )
    from repro.experiments.scenarios import DEVICES
    from repro.defense import DetectorBank
    from repro.sim.medium import Medium
    from repro.sim.simulator import Simulator

    sim = Simulator(seed=trial.seed, trace_enabled=trace_enabled,
                    metrics_enabled=trial.collect_metrics, engine=engine)
    topo, pairs, wifi_names = build_dense_topology(
        "stadium", AMBIENT_PAIRS, AMBIENT_WIFI)
    medium = Medium(sim, topo)
    bank = DetectorBank(sim, medium, detectors=trial.detectors)
    populate_background(sim, medium, pairs, wifi_names)
    sim.run(until_us=ESTABLISH_SETTLE_US
            + ESTABLISH_STAGGER_US * AMBIENT_PAIRS)
    victim = DEVICES[trial.device](sim, medium, "peripheral")
    victim.ll.readvertise_on_disconnect = False
    phone = Smartphone(sim, medium, "central",
                       interval=EXPERIMENT_HOP_INTERVAL)
    victim.power_on()
    phone.connect_to(victim.address)
    sim.run(until_us=sim.now + ESTABLISH_US)
    return sim, phone, bank


def _launch_attack(trial: DefenseTrial, sim, victim, attacker,
                   results: list) -> None:
    """Kick off the §VI attack primitive for the trial's traffic kind."""
    from repro.core.scenarios import (
        IllegitimateUseScenario,
        MasterHijackScenario,
        MitmScenario,
        SlaveHijackScenario,
    )
    from repro.core.scenarios.scenario_b import hacked_gatt_server
    from repro.experiments.scenarios import feature_write

    if trial.traffic == "A":
        handle, value, _check = feature_write(victim)
        IllegitimateUseScenario(attacker).inject_write(
            handle, value, on_done=results.append)
    elif trial.traffic == "B":
        SlaveHijackScenario(attacker, gatt_server=hacked_gatt_server(
            "Hacked")).run(on_done=results.append)
    elif trial.traffic == "C":
        MasterHijackScenario(attacker, instant_delta=40).run(
            on_done=results.append)
    else:  # "D": a pure relay — timing distortion is the whole signal
        MitmScenario(attacker).run(on_done=results.append)


def run_defense_trial_world(
    trial: DefenseTrial,
    engine: Optional[str] = None,
    trace_enabled: bool = False,
) -> tuple[TrialResult, "object"]:
    """:func:`run_defense_trial`, returning the simulator too.

    For attack traffic ``success`` is the attack's own outcome; for the
    negative kinds it records that the monitored connection survived the
    polling workload.  ``effect_observed`` records whether *any*
    detector alerted (score >= alert threshold); the full scored picture
    lives in ``result.detection["detectors"]``.
    """
    from repro.defense import DetectorBank
    from repro.experiments.scenarios import DEVICES, build_world
    from repro.host.gatt.uuids import UUID_DEVICE_NAME

    is_attack = trial.traffic in ATTACK_DEADLINE_US
    attack_start: Optional[float] = None
    attack_success = False
    attempts = 0
    if trial.traffic == "dense-ambient":
        sim, phone, bank = _build_ambient_world(trial, engine, trace_enabled)
    else:
        banks: list = []

        def hook(sim, medium):
            banks.append(DetectorBank(sim, medium,
                                      detectors=trial.detectors))

        sim, victim, phone, attacker = build_world(
            DEVICES[trial.device], trial.seed, world_hook=hook,
            engine=engine, trace_enabled=trace_enabled,
            metrics_enabled=trial.collect_metrics)
        bank = banks[0]
        if is_attack:
            attack_start = sim.now
            results: list = []
            _launch_attack(trial, sim, victim, attacker, results)
            deadline = sim.now + ATTACK_DEADLINE_US[trial.traffic]
            while not results and sim.now < deadline:
                sim.run(until_us=min(sim.now + ATTACK_CHUNK_US, deadline))
            attack_success = bool(results and results[0].success)
            attempts = results[0].report.attempts if results else 0

    # Phone-side polling workload: request/response pairs for the
    # response-time detector, issued only while the phone believes it is
    # connected (hijacks legitimately take the phone down).
    responses: list = []

    def poll() -> None:
        if phone.is_connected:
            phone.host.att.read_by_type(UUID_DEVICE_NAME, responses.append)

    poll_base = sim.now
    for i in range(trial.polls):
        sim.schedule_at(poll_base + POLL_PERIOD_US * (i + 1), poll,
                        "defense-poll")
    sim.run(until_us=poll_base + POLL_PERIOD_US * (trial.polls + 1)
            + POLL_SETTLE_US)

    summaries = bank.summaries(attack_start_us=attack_start)
    detected = any(s["alerts"] for s in summaries.values())
    detection = {
        "traffic": trial.traffic,
        "attack": is_attack,
        "attack_start_us": attack_start,
        "attack_success": attack_success,
        "polls_answered": len(responses),
        "detectors": summaries,
    }
    return TrialResult(
        success=attack_success if is_attack else phone.is_connected,
        attempts=attempts,
        effect_observed=detected,
        connection_survived=phone.is_connected,
        metrics=sim.metrics.snapshot() if trial.collect_metrics else None,
        detection=detection,
    ), sim


def trial_units(
    base_seed: int = 17,
    n_connections: int = 3,
    traffics: Optional[Sequence[str]] = None,
    device: str = "lightbulb",
    detectors: Sequence[str] = (),
    polls: int = POLL_COUNT,
    collect_metrics: bool = False,
) -> list[tuple[str, DefenseTrial]]:
    """Expand the bench into ``(traffic label, trial)`` units.

    Seed derivation follows the sweep-module convention: traffic kind
    ``k`` (full-grid position, so filtered subsets reproduce exactly the
    cases they keep) gets config seed ``base_seed + k*131``; trial ``i``
    gets ``config_seed*10_000 + i``.
    """
    wanted = (None if traffics is None
              else {resolve_traffic(t) for t in traffics})
    units: list[tuple[str, DefenseTrial]] = []
    for index, traffic in enumerate(TRAFFIC_KINDS):
        if wanted is not None and traffic not in wanted:
            continue
        config_seed = base_seed + index * 131
        label = traffic_label(traffic)
        for i in range(n_connections):
            units.append((label, DefenseTrial(
                seed=config_seed * 10_000 + i,
                traffic=traffic,
                device=device,
                detectors=tuple(detectors),
                polls=polls,
                collect_metrics=collect_metrics,
            )))
    return units


def _max_scores(trials: Sequence[TrialResult], detector: str) -> List[float]:
    out = []
    for t in trials:
        summary = (t.detection or {}).get("detectors", {}).get(detector)
        if summary is not None:
            out.append(summary["max_score"])
    return out


def detector_order(results: Mapping[str, List[TrialResult]]) -> List[str]:
    """Detector names in bank order, from the first completed trial."""
    for trials in results.values():
        for t in trials:
            if t.detection:
                return list(t.detection["detectors"])
    return []


def summarize_defense(
    results: Mapping[str, List[TrialResult]],
) -> list[dict]:
    """Fold bench results into per-(detector, attack traffic) ROC rows.

    Negatives are pooled over every non-attack label, so each detector
    has one FPR and one negative-score pool shared by all its rows.
    Rows carry: ``detector``, ``traffic``, ``n_pos``/``n_neg``, ``auc``,
    ``tpr``/``fpr`` (at the alert threshold), ``detected`` (trials with
    at least one alert) and first-alert latency quantiles (µs).
    """
    from repro.analysis.roc import (
        auc,
        false_positive_rate,
        quantile,
        true_positive_rate,
    )

    names = detector_order(results)
    attack_labels = [
        label for label, trials in results.items()
        if any(t.detection and t.detection["attack"] for t in trials)
    ]
    benign_labels = [label for label in results
                     if label not in attack_labels]
    rows: list[dict] = []
    for name in names:
        negatives = [s for label in benign_labels
                     for s in _max_scores(results[label], name)]
        fpr = false_positive_rate(negatives)
        for label in attack_labels:
            positives = _max_scores(results[label], name)
            latencies = [
                t.detection["detectors"][name]["latency_us"]
                for t in results[label]
                if t.detection
                and t.detection["detectors"].get(name, {}).get("latency_us")
                is not None
            ]
            rows.append({
                "detector": name,
                "traffic": label,
                "n_pos": len(positives),
                "n_neg": len(negatives),
                "auc": auc(positives, negatives),
                "tpr": true_positive_rate(positives),
                "fpr": fpr,
                "detected": len(latencies),
                "latency_p50_us": quantile(latencies, 0.5),
                "latency_p90_us": quantile(latencies, 0.9),
            })
    return rows
