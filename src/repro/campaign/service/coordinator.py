"""The campaign coordinator: leases, journal merge, status stream.

One :class:`Coordinator` owns at most one *active* campaign at a time:
its spec, the expanded grid, a :class:`~repro.campaign.service.queue.
LeaseQueue` over the units that still lack journal records, and — the
correctness keystone — the **single** :class:`~repro.campaign.journal.
JournalWriter`.  Workers stream per-unit results in over the wire; the
coordinator deduplicates them first-wins (a stolen-and-raced unit is
journaled exactly once) and appends them to the same crash-tolerant
JSONL file ``repro campaign run`` writes, after the same type checks
the journal reader applies (:func:`~repro.campaign.journal.
record_from_payload`).  Report rendering stays a
pure function of that journal, so the PR 5 property — kill anything
mid-run, resume, byte-identical report — carries over verbatim to the
distributed path.

Wall-clock reads here are scheduling plumbing only (lease deadlines,
steal ages, latency telemetry); they never feed trial bytes, which is
why :mod:`repro.campaign` is exempt from the ``nondeterministic-call``
lint.  The clock is injectable for deterministic tests.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Union

from repro.campaign.engine import (
    CampaignState,
    TrialUnit,
    expand_units,
    open_journal,
    units_by_id,
)
from repro.campaign.journal import JournalWriter, record_from_payload
from repro.campaign.report import (
    build_report,
    report_dict,
    render_status,
    status_dict,
)
from repro.campaign.service.queue import LeaseQueue
from repro.campaign.spec import CampaignSpec
from repro.errors import ConfigurationError, ServiceError
from repro.telemetry.metrics import MetricsRegistry

#: Buckets for the lease-latency histogram (seconds, grant → result).
LEASE_LATENCY_BUCKETS = (0.01, 0.05, 0.25, 1.0, 5.0, 30.0, 120.0, 600.0)

#: Suggested worker back-off when the queue has nothing to hand out.
DEFAULT_RETRY_S = 0.2


@dataclass
class ActiveCampaign:
    """Everything the coordinator tracks for the campaign being served."""

    spec: CampaignSpec
    state: CampaignState
    units: Dict[str, TrialUnit]
    queue: LeaseQueue
    writer: JournalWriter
    journal_path: Path

    @property
    def complete(self) -> bool:
        """Every grid unit has a journal record."""
        return self.state.done >= self.state.total


class Coordinator:
    """Serves campaign units to workers and merges their results.

    All methods are synchronous and must be called from one thread (the
    asyncio server's event loop, in practice); the class itself does no
    I/O beyond the journal append.

    Args:
        lease_timeout_s: per-lease deadline before a unit is re-queued.
        steal_after_s: lease age before idle workers may steal it.
        fsync: force journal records to stable storage per append.
        clock: monotonic time source (injectable for tests).
        metrics: registry for service telemetry (enabled by default —
            this is observability of the service itself, not of trials).
    """

    def __init__(self,
                 lease_timeout_s: float = 60.0,
                 steal_after_s: float = 2.0,
                 fsync: bool = False,
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        self.lease_timeout_s = lease_timeout_s
        self.steal_after_s = steal_after_s
        self.fsync = fsync
        self._clock = clock
        self._campaign: Optional[ActiveCampaign] = None
        self._workers_seen: Set[str] = set()
        self._subscribers: List[Any] = []  # asyncio.Queue, untyped on 3.9
        self._on_complete: List[Callable[[], None]] = []
        self.metrics = metrics if metrics is not None \
            else MetricsRegistry(enabled=True)
        self._m_leased = self.metrics.counter("service.units.leased")
        self._m_completed = self.metrics.counter("service.units.completed")
        self._m_stolen = self.metrics.counter("service.units.stolen")
        self._m_requeued = self.metrics.counter("service.units.requeued")
        self._m_duplicate = self.metrics.counter("service.units.duplicate")
        self._m_stale = self.metrics.counter("service.results.stale")
        self._m_latency = self.metrics.histogram(
            "service.lease.latency_s", LEASE_LATENCY_BUCKETS)

    # ------------------------------------------------------------------
    # Campaign lifecycle
    # ------------------------------------------------------------------

    @property
    def campaign(self) -> Optional[ActiveCampaign]:
        """The campaign being served, if any."""
        return self._campaign

    @property
    def complete(self) -> bool:
        """Whether the active campaign (if any) has fully drained."""
        return self._campaign is not None and self._campaign.complete

    def submit(self, spec: CampaignSpec,
               journal_path: Union[str, Path]) -> CampaignState:
        """Load (or resume) a campaign and start serving its units.

        Re-submitting while a campaign is still incomplete is refused;
        submitting over a *finished* campaign replaces it.  An existing
        journal at ``journal_path`` is attached fingerprint-checked, so
        a coordinator restart resumes exactly the pending units.
        """
        if self._campaign is not None and not self._campaign.complete:
            raise ConfigurationError(
                f"campaign {self._campaign.spec.name!r} is still being "
                f"served ({self._campaign.state.done}/"
                f"{self._campaign.state.total} units done); wait for it "
                f"to drain before submitting another")
        if self._campaign is not None:
            self._campaign.writer.close()
            self._campaign = None
        units = expand_units(spec)
        writer, records, runs = open_journal(spec, journal_path,
                                             fsync=self.fsync)
        state = CampaignState(spec=spec, fingerprint=spec.fingerprint,
                              units=units, records=records, runs=runs + 1)
        pending = [u.unit_id for u in state.pending]
        writer.record_run(jobs=None, budget=None, pending=len(pending))
        self._campaign = ActiveCampaign(
            spec=spec, state=state, units=units_by_id(units),
            queue=LeaseQueue(pending,
                             lease_timeout_s=self.lease_timeout_s,
                             steal_after_s=self.steal_after_s),
            writer=writer, journal_path=Path(journal_path))
        if self._campaign.complete:  # resumed an already-finished journal
            self._notify_complete()
        return state

    def close(self) -> None:
        """Release the journal writer (idempotent)."""
        if self._campaign is not None:
            self._campaign.writer.close()

    # ------------------------------------------------------------------
    # Worker protocol (dict in, dict out — transport-agnostic)
    # ------------------------------------------------------------------

    def handle_hello(self, worker: str) -> Dict[str, Any]:
        """A worker announced itself; ship it the active spec."""
        self._workers_seen.add(worker)
        if self._campaign is None:
            return {"op": "idle", "retry_s": DEFAULT_RETRY_S}
        return {"op": "welcome",
                "fingerprint": self._campaign.spec.fingerprint,
                "spec": self._campaign.spec.to_dict()}

    def handle_lease(self, worker: str,
                     fingerprint: Optional[str]) -> Dict[str, Any]:
        """Grant the worker a unit, tell it to wait, or declare drained."""
        campaign = self._campaign
        if campaign is None:
            return {"op": "idle", "retry_s": DEFAULT_RETRY_S}
        if fingerprint != campaign.spec.fingerprint:
            return {"op": "error", "error": "stale campaign fingerprint"}
        if campaign.complete:
            return {"op": "drained"}
        now = self._clock()
        requeued = campaign.queue.requeue_expired(now)
        if requeued:
            self._m_requeued.inc(len(requeued))
        grant = campaign.queue.lease(worker, now)
        if grant is None:
            return {"op": "wait", "retry_s": DEFAULT_RETRY_S}
        self._m_leased.inc()
        if grant.stolen:
            self._m_stolen.inc()
        return {"op": "unit", "unit_id": grant.unit_id,
                "stolen": grant.stolen,
                "timeout_s": self.lease_timeout_s}

    def handle_result(self, worker: str, fingerprint: Optional[str],
                      payload: Dict[str, Any]) -> Dict[str, Any]:
        """Merge one unit result into the journal (first-wins dedup)."""
        campaign = self._campaign
        if campaign is None or fingerprint != campaign.spec.fingerprint:
            self._m_stale.inc()
            return {"op": "error", "error": "stale campaign fingerprint"}
        record = record_from_payload(payload)
        unit = campaign.units.get(record.unit_id)
        if unit is None:
            raise ServiceError(
                f"worker {worker!r} reported unknown unit "
                f"{record.unit_id!r}")
        if (record.experiment, record.config_key) != (unit.experiment,
                                                      unit.config_key):
            raise ServiceError(
                f"worker {worker!r} reported unit {record.unit_id!r} as "
                f"{record.experiment!r}/{record.config_key!r}; the grid "
                f"has {unit.experiment!r}/{unit.config_key!r}")
        completion = campaign.queue.complete(record.unit_id, self._clock())
        if not completion.first or record.unit_id in campaign.state.records:
            self._m_duplicate.inc()
            return {"op": "ack", "duplicate": True,
                    "done": campaign.complete}
        campaign.state.records[record.unit_id] = record
        campaign.writer.record_unit(record)
        self._m_completed.inc()
        if completion.latency_s is not None:
            self._m_latency.observe(completion.latency_s)
        self._publish({"event": "unit",
                       "unit_id": record.unit_id,
                       "status": record.status,
                       "done": campaign.state.done,
                       "total": campaign.state.total})
        if campaign.complete:
            self._notify_complete()
        return {"op": "ack", "duplicate": False, "done": campaign.complete}

    def handle_message(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Dispatch one worker-protocol message (the transport calls this)."""
        op = message.get("op")
        worker = str(message.get("worker", "?"))
        fingerprint = message.get("fingerprint")
        if op == "hello":
            return self.handle_hello(worker)
        if op == "lease":
            return self.handle_lease(worker, fingerprint)
        if op == "result":
            record = message.get("record")
            if not isinstance(record, dict):
                return {"op": "error", "error": "result without a record"}
            return self.handle_result(worker, fingerprint, record)
        return {"op": "error", "error": f"unknown op {op!r}"}

    # ------------------------------------------------------------------
    # Status / report / events
    # ------------------------------------------------------------------

    def status_payload(self) -> Dict[str, Any]:
        """Current status: campaign counters plus service telemetry."""
        service: Dict[str, Any] = {
            "workers_seen": len(self._workers_seen),
            "counters": {c: v for c, v in sorted(
                self.metrics.snapshot().get("counters", {}).items())},
        }
        if self._campaign is None:
            return {"campaign": None, "service": service}
        campaign = self._campaign
        payload = status_dict(campaign.state)
        payload["journal"] = str(campaign.journal_path)
        service["inflight"] = campaign.queue.inflight_count
        service["queued"] = campaign.queue.pending_count
        return {"campaign": payload, "service": service}

    def report_text(self) -> str:
        """The full text report of the active campaign."""
        if self._campaign is None:
            raise ServiceError("no campaign loaded")
        return build_report(self._campaign.state)

    def report_payload(self) -> Dict[str, Any]:
        """The machine-readable report of the active campaign."""
        if self._campaign is None:
            raise ServiceError("no campaign loaded")
        return report_dict(self._campaign.state)

    def status_text(self) -> str:
        """The short text status of the active campaign."""
        if self._campaign is None:
            raise ServiceError("no campaign loaded")
        return render_status(self._campaign.state)

    def subscribe(self, queue: Any) -> None:
        """Attach an event sink (an ``asyncio.Queue``-alike with
        ``put_nowait``); it immediately receives a ``status`` event, and
        a ``done`` event right away if the campaign already drained."""
        self._subscribers.append(queue)
        queue.put_nowait({"event": "status", **self.status_payload()})
        if self.complete:
            queue.put_nowait(self._done_event())

    def unsubscribe(self, queue: Any) -> None:
        """Detach an event sink (no-op when unknown)."""
        try:
            self._subscribers.remove(queue)
        except ValueError:
            pass

    def add_completion_callback(self, callback: Callable[[], None]) -> None:
        """Run ``callback`` when the active campaign drains (and
        immediately if it already has)."""
        self._on_complete.append(callback)
        if self.complete:
            callback()

    def _publish(self, event: Dict[str, Any]) -> None:
        for queue in list(self._subscribers):
            queue.put_nowait(event)

    def _done_event(self) -> Dict[str, Any]:
        return {"event": "done", **self.status_payload()}

    def _notify_complete(self) -> None:
        self._publish(self._done_event())
        for callback in list(self._on_complete):
            callback()


def unit_record_payload(record: Any) -> Dict[str, Any]:
    """Serialise a :class:`UnitRecord` for the wire (plain JSON dict)."""
    return dict(asdict(record))
