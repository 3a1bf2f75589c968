"""The benchmark's workloads: seeded rounds of units and the code that runs them.

Every workload is a sequence of *rounds* built from the workload seed
alone.  A timed run takes trials in round order until its time is up
(``campaign``: whole rounds); a traced run repeats the first round.

* ``panel3`` -- the 3-device §VII grid: one trial of each of the 20
  configurations of the hop-interval, payload-size, distance and wall
  sweeps per round, each run in process through ``execute_trials``.
* ``dense`` -- apartment-layout occupancy trials, one ``sparse`` and two
  ``busy`` per round, in process.
* ``campaign`` -- the same §VII grid as one fresh campaign per round (its
  own spec and journal), run by ``run_campaign`` and then reported.

README.md says why each workload exists.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from tracing import CAMPAIGN_TARGETS, Tracer

WORKLOADS = ("panel3", "dense", "campaign")

#: Rounds generated for the in-process workloads: more than a 60 s run
#: reaches.
ROUNDS = 400

#: The dense load levels of a round, by their label in
#: ``repro.experiments.dense.OCCUPANCY_LOAD_LEVELS``.  Two busy trials to
#: one sparse keep the median trial a busy one.
DENSE_MIX = ("sparse (4 bg + 1 wifi)", "busy (10 bg + 2 wifi)",
             "busy (10 bg + 2 wifi)")

#: The campaign's axes, by registry name: the sweeps panel3 runs.
CAMPAIGN_AXES = ("hop", "payload", "distance", "wall")

#: Seed of the untimed warm-up trials; no workload seed derives it.
WARMUP_SEED = 999_999_999


def _base_seed(seed: int, offset: int) -> int:
    """A sweep's base seed.  At workload seed 0 and the sweep's default
    offset this is the paper panel's own base seed."""
    return 1000 * seed + offset


#: A round: ``(kind, trial)`` pairs.  Trials of one kind cost the same
#: to within their random outcomes, so one typical time per kind sums up
#: a run.
Round = List[Tuple[str, Any]]


def panel3_rounds(seed: int) -> List[Round]:
    """Round ``i`` holds trial ``i`` of every §VII configuration; a trial's
    kind is its sweep and configuration."""
    from repro.experiments import distance, hop_interval, payload_size, wall

    rounds: List[Round] = [[] for _ in range(ROUNDS)]
    sweeps = (hop_interval, payload_size, distance, wall)
    for offset, sweep in enumerate(sweeps, start=1):
        name = sweep.__name__.rsplit(".", 1)[-1]
        units = sweep.trial_units(base_seed=_base_seed(seed, offset),
                                  n_connections=ROUNDS)
        # Grid-major: configuration c's trials are units[c*ROUNDS:...].
        for index, (key, trial) in enumerate(units):
            rounds[index % ROUNDS].append((f"{name}:{key}", trial))
    return rounds


def dense_rounds(seed: int) -> List[Round]:
    """Round ``i`` holds the next trial of each level of :data:`DENSE_MIX`;
    a trial's kind is its level."""
    from repro.experiments import dense

    levels = {label: dense.OCCUPANCY_LOAD_LEVELS[label] for label in DENSE_MIX}
    units = dense.trial_units(base_seed=_base_seed(seed, 9),
                              n_connections=len(DENSE_MIX) * ROUNDS,
                              levels=levels, layout="apartment")
    pools = {label: iter([trial for key, trial in units if key == label])
             for label in levels}
    return [[(label, next(pools[label])) for label in DENSE_MIX]
            for _ in range(ROUNDS)]


def inprocess_rounds(workload: str, seed: int) -> List[Round]:
    """The rounds of ``panel3`` or ``dense``."""
    return panel3_rounds(seed) if workload == "panel3" else dense_rounds(seed)


def unit_kind(unit: Any) -> str:
    """A campaign unit's kind: its id without the trial index."""
    return unit.unit_id.rsplit(":", 1)[0]


def campaign_spec(seed: int, round_index: int) -> Any:
    """Round ``round_index`` of ``campaign``: one trial per §VII
    configuration."""
    from repro.campaign import CampaignSpec

    return CampaignSpec.from_dict({
        "name": f"perfbench-{seed}-{round_index}",
        "axes": [{"experiment": axis} for axis in CAMPAIGN_AXES],
        "seed": _base_seed(seed, round_index),
        "connections": 1,
    })


def warmup_trials(workload: str) -> List[Any]:
    """Untimed set-up trials: an encrypted 3-device trial, whose pairing
    fills the AES caches and whose connection warms the link layer, plus
    an idle apartment world for ``dense``.  No workload selects CSA#2, so
    no CSA#2 schedule is worth caching."""
    from repro.experiments.common import InjectionTrial

    trials: List[Any] = [
        InjectionTrial(seed=WARMUP_SEED, hop_interval=75, encrypted=True)]
    if workload == "dense":
        from repro.experiments.dense import DenseTrial

        trials.append(DenseTrial(seed=WARMUP_SEED, connections=0,
                                 wifi_interferers=0))
    return trials


def canonical(result: Any) -> Dict[str, Any]:
    """The ``TrialResult`` fields the simulation fixes; telemetry excluded."""
    return {
        "success": bool(result.success),
        "attempts": int(result.attempts),
        "effect_observed": bool(result.effect_observed),
        "connection_survived": bool(result.connection_survived),
        "failure": result.failure,
        "occupancy": result.occupancy,
    }


def canonical_record(record: Optional[Any]) -> Dict[str, Any]:
    """:func:`canonical` of a campaign journal record (3-device units)."""
    if record is None:
        return {"failure": "no journal record"}
    return {**(record.result or {}), "failure": record.failure,
            "occupancy": None}


def is_failure(canon: Dict[str, Any]) -> bool:
    """A result no correct run gives: a failure, or a success without an
    attempt."""
    return canon.get("failure") is not None or (
        bool(canon.get("success")) and int(canon.get("attempts", 0)) < 1)


def digest(canons: List[Dict[str, Any]]) -> str:
    """Short SHA-256 of canonical results, order included."""
    blob = json.dumps(canons, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def run_trials(trials: List[Any], tracer: Optional[Tracer] = None
               ) -> Tuple[List[Any], List[float]]:
    """Run trials one at a time through ``execute_trials(jobs=1,
    cache=None)``; returns the results and each trial's wall seconds."""
    from repro.campaign import run_unit_trial
    from repro.runner import execute_trials

    results: List[Any] = []
    walls: List[float] = []
    for index, trial in enumerate(trials):
        if tracer is not None:
            tracer.trial_id = index
        start = time.perf_counter()
        (result,) = execute_trials([trial], jobs=1, cache=None,
                                   runner=run_unit_trial)
        walls.append(time.perf_counter() - start)
        results.append(result)
    return results, walls


class _SpawnClock:
    """The multiprocessing context ``run_units_robust`` gets, noting when
    each unit's worker process is created, keyed by the unit's trial."""

    def __init__(self, ctx: Any, spawned: Dict[Any, float]) -> None:
        self._ctx = ctx
        self._spawned = spawned

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._ctx, attr)

    def Process(self, *args: Any, **kwargs: Any) -> Any:  # noqa: N802
        self._spawned[kwargs["args"][1]] = time.perf_counter()
        return self._ctx.Process(*args, **kwargs)


def run_campaign_round(spec: Any, journal: Path, jobs: int,
                       tracer: Optional[Tracer] = None
                       ) -> Tuple[float, List[Any], List[Any],
                                  List[Tuple[str, float]]]:
    """Run one fresh campaign and build its report.

    Returns the wall seconds of run plus report, the grid's units and
    their journal records (``None`` where a unit has none), and each
    journaled unit's kind and turnaround: from the creation of its worker
    process to its journal record.  ``tracer`` traces the campaign layer
    while it runs.
    """
    from repro.campaign.journal import JournalWriter

    spawned: Dict[Any, float] = {}
    journaled: Dict[str, float] = {}
    if tracer is not None:
        tracer.install(CAMPAIGN_TARGETS)
    record_unit = JournalWriter.record_unit
    get_context = multiprocessing.get_context

    def noting_record_unit(writer: Any, record: Any) -> None:
        record_unit(writer, record)
        journaled[record.unit_id] = time.perf_counter()

    JournalWriter.record_unit = noting_record_unit  # type: ignore[method-assign]
    multiprocessing.get_context = (  # type: ignore[assignment]
        lambda method=None: _SpawnClock(get_context(method), spawned))
    try:
        # Imported here so the names bound are the traced ones.
        from repro.campaign import build_report, load_state, run_campaign

        start = time.perf_counter()
        run_campaign(spec, journal, jobs=jobs, cache=None)
        build_report(load_state(journal))
        wall = time.perf_counter() - start
    finally:
        JournalWriter.record_unit = record_unit  # type: ignore[method-assign]
        multiprocessing.get_context = get_context
        if tracer is not None:
            tracer.uninstall()
    state = load_state(journal)
    records = [state.records.get(unit.unit_id) for unit in state.units]
    turnaround = [(unit_kind(unit), journaled[unit.unit_id]
                   - spawned[unit.trial])
                  for unit in state.units if unit.unit_id in journaled]
    return wall, state.units, records, turnaround
