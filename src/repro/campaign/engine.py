"""Campaign engine: grid expansion, execution, resume.

The engine is a thin deterministic layer over
:func:`repro.runner.run_units_robust`:

1. :func:`expand_units` turns a :class:`~repro.campaign.spec.CampaignSpec`
   into an ordered list of :class:`TrialUnit` with stable ids — the same
   spec always expands to the same units in the same order, on any
   machine.
2. :func:`run_campaign` executes the pending units on this host under
   the spec's timeout/retry policy, checkpointing every completed unit
   to the append-only journal.  Interrupt it at any point (crash, kill,
   ``--max-trials`` budget) and a later invocation picks up exactly the
   units that have no journal record yet; because trials are
   seed-deterministic and the report is derived solely from the journal,
   the final aggregates are byte-identical to an uninterrupted run at
   any ``--jobs`` setting.

Spreading a campaign over several hosts is the campaign service's job
(:mod:`repro.campaign.service`): one coordinator leases the same units
to any number of workers and merges their records into one journal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.campaign.journal import JournalWriter, UnitRecord, read_journal
from repro.campaign.registry import expand_axis, get_experiment, run_unit_trial
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class TrialUnit:
    """One schedulable unit of a campaign grid.

    Attributes:
        unit_id: ``<axis>.<experiment>:<config key>:<index>`` — stable
            across expansions of the same spec, the journal's key.
        axis: index into the spec's axes.
        experiment: registered experiment name.
        config_key: stringified configuration key within the axis.
        trial: the trial dataclass to execute (dispatched by type, see
            :func:`repro.campaign.registry.run_unit_trial`).
    """

    unit_id: str
    axis: int
    experiment: str
    config_key: str
    trial: Any


def expand_units(spec: CampaignSpec) -> List[TrialUnit]:
    """Expand a spec into its full ordered unit list."""
    units: List[TrialUnit] = []
    for axis_index, axis in enumerate(spec.axes):
        defn = get_experiment(axis.experiment)
        pairs = expand_axis(
            defn, axis.params,
            default_seed=spec.seed,
            default_connections=spec.connections,
            collect_metrics=spec.collect_metrics,
        )
        counters: Dict[str, int] = {}
        for key, trial in pairs:
            config_key = str(key)
            n = counters.get(config_key, 0)
            counters[config_key] = n + 1
            units.append(TrialUnit(
                unit_id=(f"{axis_index:02d}.{axis.experiment}:"
                         f"{config_key}:{n:04d}"),
                axis=axis_index,
                experiment=axis.experiment,
                config_key=config_key,
                trial=trial,
            ))
    return units


@dataclass
class CampaignState:
    """Everything known about a campaign: spec, grid, journal records."""

    spec: CampaignSpec
    fingerprint: str
    units: List[TrialUnit]
    records: Dict[str, UnitRecord] = field(default_factory=dict)
    runs: int = 0

    @property
    def total(self) -> int:
        """Units in the full grid."""
        return len(self.units)

    @property
    def done(self) -> int:
        """Grid units with a journal record."""
        return sum(1 for u in self.units if u.unit_id in self.records)

    @property
    def ok_count(self) -> int:
        """Grid units that ran to completion."""
        return sum(1 for u in self.units
                   if self.records.get(u.unit_id) is not None
                   and self.records[u.unit_id].status == "ok")

    @property
    def failed_count(self) -> int:
        """Grid units quarantined as failed."""
        return sum(1 for u in self.units
                   if self.records.get(u.unit_id) is not None
                   and self.records[u.unit_id].status != "ok")

    @property
    def pending(self) -> List[TrialUnit]:
        """Grid units with no record yet, in expansion order."""
        return [u for u in self.units if u.unit_id not in self.records]


def load_state(journal_path: Union[str, Path]) -> CampaignState:
    """Rebuild campaign state from a journal (for status/resume/report)."""
    spec_dict, fingerprint, records, runs = read_journal(journal_path)
    spec = CampaignSpec.from_dict(spec_dict)
    if spec.fingerprint != fingerprint:
        raise ConfigurationError(
            f"journal {journal_path} fingerprint does not match its own "
            f"spec; the file was edited or written by an incompatible "
            f"version")
    return CampaignState(spec=spec, fingerprint=fingerprint,
                         units=expand_units(spec), records=records,
                         runs=runs)


def units_by_id(units: List[TrialUnit]) -> Dict[str, TrialUnit]:
    """Index a unit list by its stable ids (they are unique by
    construction)."""
    return {unit.unit_id: unit for unit in units}


def open_journal(spec: CampaignSpec, path: Union[str, Path],
                 fsync: bool = False) -> Tuple[
                     JournalWriter, Dict[str, UnitRecord], int]:
    """Attach to (or create) the journal for ``spec``.

    Returns the single append-only writer plus the records and run count
    replayed from an existing file.  Refuses a journal written under a
    different spec — the fingerprint check that keeps resume honest.
    """
    path = Path(path)
    if path.exists():
        _, fingerprint, records, runs = read_journal(path)
        if fingerprint != spec.fingerprint:
            raise ConfigurationError(
                f"journal {path} belongs to a different campaign "
                f"(fingerprint {fingerprint[:12]}… != "
                f"{spec.fingerprint[:12]}…); use a fresh --journal or the "
                f"matching spec")
        return JournalWriter(path, fsync=fsync), records, runs
    return (JournalWriter.create(path, spec.to_dict(), spec.fingerprint,
                                 fsync=fsync),
            {}, 0)


def unit_record(unit: TrialUnit, outcome: Any) -> UnitRecord:
    """Fold one finished unit into its journal record.

    ``outcome`` is the unit's :class:`~repro.runner.executor.UnitOutcome`
    from :func:`~repro.runner.run_units_robust`.  Both the in-process
    engine and the service workers build records through this one
    function, so a unit's journal line is byte-identical however it was
    executed.
    """
    if not outcome.ok:
        return UnitRecord(
            unit_id=unit.unit_id,
            experiment=unit.experiment,
            config_key=unit.config_key,
            status="failed",
            failure={"kind": outcome.status, "detail": outcome.detail,
                     "retries": outcome.retries},
        )
    result = outcome.result
    result_dict = {
        "success": bool(result.success),
        "attempts": int(result.attempts),
        "effect_observed": bool(result.effect_observed),
        "connection_survived": bool(result.connection_survived),
    }
    detection = getattr(result, "detection", None)
    if detection is not None:
        result_dict["detection"] = detection
    return UnitRecord(
        unit_id=unit.unit_id,
        experiment=unit.experiment,
        config_key=unit.config_key,
        status="ok",
        result=result_dict,
        metrics=result.metrics,
    )


def run_campaign(
    spec: CampaignSpec,
    journal_path: Union[str, Path],
    jobs: Optional[int] = None,
    max_trials: Optional[int] = None,
    progress: Any = None,
    fsync: bool = False,
    *,
    cache: Any = None,
) -> CampaignState:
    """Run (or continue) a campaign on this host, journaling every unit.

    Every unit runs in its own killable worker process under the spec's
    timeout/retry policy (:func:`repro.runner.run_units_robust`); a unit
    that times out, crashes or raises is journaled ``failed`` with its
    failure kind instead of stopping the campaign.

    Args:
        spec: the campaign; must match an existing journal's fingerprint.
        journal_path: the append-only checkpoint file; created with a
            header when absent.
        jobs: concurrent worker processes (``None`` → ``$REPRO_JOBS`` →
            1; ``<=0`` → all cores).
        max_trials: budget — at most this many units this invocation
            (``None`` = all pending); the rest stay pending for a later
            ``resume``.
        progress: optional
            :class:`~repro.telemetry.progress.ProgressTracker`; fed one
            update per completed unit.
        fsync: force every journal record to stable storage (see
            :class:`~repro.campaign.journal.JournalWriter`).
        cache: accepted for callers written against the retired
            trial-result cache; anything but ``None`` raises ``TypeError``.

    Returns:
        The campaign state after this invocation (full-grid view).
    """
    if cache is not None:
        raise TypeError("run_campaign() no longer caches results; "
                        "pass cache=None or omit it")
    units = expand_units(spec)
    writer, records, runs = open_journal(spec, journal_path, fsync=fsync)
    state = CampaignState(spec=spec, fingerprint=spec.fingerprint,
                          units=units, records=records, runs=runs + 1)
    pending = [u for u in units if u.unit_id not in records]
    to_run = pending if max_trials is None else pending[:max_trials]
    if progress is not None:
        progress.reset(total=len(to_run))

    try:
        writer.record_run(jobs=jobs, budget=max_trials,
                          pending=len(pending))
        if not to_run:
            return state

        def on_outcome(outcome: Any) -> None:
            unit = to_run[outcome.index]
            record = unit_record(unit, outcome)
            records[unit.unit_id] = record
            writer.record_unit(record)
            if progress is not None:
                progress.update(record.status)

        from repro.runner import run_units_robust

        run_units_robust(
            run_unit_trial,
            [unit.trial for unit in to_run],
            jobs=jobs,
            timeout_s=spec.timeout_s,
            max_retries=spec.max_retries,
            backoff_s=spec.backoff_s,
            on_outcome=on_outcome,
        )
    finally:
        writer.close()
    return state
