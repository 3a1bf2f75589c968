"""Append-only campaign checkpoint journal (``campaign.jsonl``).

One JSON object per line, three record types:

* ``campaign`` — the header: spec (canonical dict), its fingerprint, the
  journal schema version.  Always the first line.
* ``run`` — one per engine invocation: jobs, budget, pending units.
  Purely informational; never read back into aggregates (and
  deliberately free of timestamps, so journals are byte-reproducible).
* ``unit`` — one per completed unit: compact result or failure taxonomy.

The reader is crash-tolerant: a torn final line (the process died
mid-write) is ignored, and duplicate unit records keep the *first*
occurrence, so replaying a journal after an interrupted-then-resumed
campaign yields the same state as an uninterrupted run.  Unit records
are type-checked on the way in (:func:`record_from_payload`), whether
they come from a journal line or from a service worker, so an ill-typed
record never reaches the report.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.errors import ConfigurationError
from repro.telemetry.metrics import merge_snapshots

#: Bump when the journal schema changes incompatibly.
JOURNAL_VERSION = 1


@dataclass(frozen=True)
class UnitRecord:
    """The journaled outcome of one campaign unit.

    Attributes:
        unit_id: stable id from the grid expansion
            (``<axis>.<experiment>:<config key>:<index>``).
        experiment: registered experiment name.
        config_key: stringified configuration key within the axis.
        status: ``"ok"`` (trial ran to completion) or ``"failed"``
            (quarantined by the robust executor).
        result: compact trial outcome for ``ok`` units —
            ``{"success", "attempts", "effect_observed",
            "connection_survived"}``.
        failure: failure taxonomy for ``failed`` units —
            ``{"kind": "timeout"|"crash"|"error", "detail", "retries"}``.
        metrics: merged telemetry snapshot when the trial was
            instrumented, else ``None``.
        cached: always ``False``; kept so journals stay byte-identical
            to older ones and readers of the key (``perfbench``'s
            campaign workload) keep working.
    """

    unit_id: str
    experiment: str
    config_key: str
    status: str
    result: Optional[Dict[str, Any]] = None
    failure: Optional[Dict[str, Any]] = None
    metrics: Optional[Dict[str, Any]] = None
    cached: bool = False


class JournalWriter:
    """Append-only writer; one flushed JSON line per record.

    ``fsync=True`` additionally forces every record through to stable
    storage (``os.fsync``) before ``_write`` returns — slower, but a
    machine crash (not just a process crash) then loses at most the one
    in-flight record, which the torn-tail recovery below already
    handles.
    """

    def __init__(self, path: Union[str, Path], fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        _truncate_torn_tail(self.path)
        self._fh = self.path.open("a")

    @classmethod
    def create(cls, path: Union[str, Path], spec_dict: Dict[str, Any],
               fingerprint: str, fsync: bool = False) -> "JournalWriter":
        """Start a fresh journal with its ``campaign`` header line."""
        path = Path(path)
        if path.exists():
            raise ConfigurationError(f"journal {path} already exists")
        path.parent.mkdir(parents=True, exist_ok=True)
        writer = cls(path, fsync=fsync)
        writer._write({
            "type": "campaign",
            "version": JOURNAL_VERSION,
            "name": spec_dict.get("name", ""),
            "fingerprint": fingerprint,
            "spec": spec_dict,
        })
        return writer

    def _write(self, record: Dict[str, Any]) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def record_run(self, jobs: Optional[int], budget: Optional[int],
                   pending: int) -> None:
        """Note one engine invocation (informational only)."""
        self._write({
            "type": "run",
            "jobs": jobs,
            "budget": budget,
            "pending": pending,
        })

    def record_unit(self, record: UnitRecord) -> None:
        """Checkpoint one completed unit."""
        payload = asdict(record)
        payload["type"] = "unit"
        self._write(payload)

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _truncate_torn_tail(path: Path) -> None:
    """Drop an unterminated final line left by a killed writer.

    Appending after a torn tail would concatenate the next record onto
    the partial line and corrupt *both*; the partial record was never
    acknowledged, so discarding it is the correct recovery (the unit
    simply stays pending and re-runs).
    """
    if not path.exists():
        return
    with path.open("rb+") as fh:
        data = fh.read()
        if not data or data.endswith(b"\n"):
            return
        cut = data.rfind(b"\n") + 1  # 0 when no newline at all
        fh.truncate(cut)


def record_from_payload(obj: Dict[str, Any]) -> UnitRecord:
    """Rebuild a :class:`UnitRecord` from its plain-dict (JSON) form.

    Shared by the journal reader and the campaign service, whose workers
    ship records over the wire as the same payload they would journal —
    one parsing path keeps a streamed-and-merged journal byte-identical
    to a locally written one.  Raises :class:`ConfigurationError` for a
    record whose fields lack the types
    :func:`repro.campaign.engine.unit_record` gives them; its ``metrics``
    are checked as they are folded (:func:`fold_metrics`).
    """
    unit_id = obj.get("unit_id")
    if not isinstance(unit_id, str) or not unit_id:
        raise ConfigurationError(f"unit record without a unit_id: {obj!r}")
    experiment = obj.get("experiment", "")
    config_key = obj.get("config_key", "")
    status = obj.get("status")
    result = obj.get("result")
    failure = obj.get("failure")
    metrics = obj.get("metrics")
    if not isinstance(experiment, str) or not isinstance(config_key, str):
        problem = "experiment and config_key must be strings"
    elif status == "ok":
        problem = _result_problem(result)
    elif status == "failed":
        problem = None if isinstance(failure, dict) \
            else "a failed record needs a failure dict"
    else:
        problem = f"status must be 'ok' or 'failed', not {status!r}"
    if problem is not None:
        raise ConfigurationError(f"unit record {unit_id!r}: {problem}")
    return UnitRecord(
        unit_id=unit_id,
        experiment=experiment,
        config_key=config_key,
        status=status,
        result=result,
        failure=failure,
        metrics=metrics,
    )


def fold_metrics(total: Dict[str, Any], record: UnitRecord) -> Dict[str, Any]:
    """``total`` (the merged metrics of the records kept so far) with
    ``record``'s folded in; :class:`ConfigurationError` if they do not
    merge, so a journal never keeps a record its report cannot fold."""
    try:
        return merge_snapshots([total, record.metrics])
    except ValueError as exc:
        raise ConfigurationError(
            f"unit record {record.unit_id!r}: metrics: {exc}") from None


def _result_problem(result: Any) -> Optional[str]:
    """Why an ``ok`` record's result is ill-typed, or ``None``."""
    if not isinstance(result, dict):
        return "an ok record needs a result dict"
    for key in ("success", "effect_observed", "connection_survived"):
        if not isinstance(result.get(key), bool):
            return f"result[{key!r}] must be a bool"
    attempts = result.get("attempts")
    if not isinstance(attempts, int) or isinstance(attempts, bool):
        return "result['attempts'] must be an int"
    if not isinstance(result.get("detection", {}), dict):
        return "result['detection'] must be a dict"
    return None


def read_journal(path: Union[str, Path]) -> Tuple[
        Dict[str, Any], str, Dict[str, UnitRecord], int]:
    """Replay a journal into ``(spec dict, fingerprint, records, runs)``.

    ``records`` maps unit id → :class:`UnitRecord`, first occurrence
    winning; ``runs`` counts engine invocations.  A torn trailing line
    is tolerated; a missing or malformed header is not.
    """
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read journal {path}: {exc}") from exc
    header: Optional[Dict[str, Any]] = None
    records: Dict[str, UnitRecord] = {}
    metrics: Dict[str, Any] = {}
    runs = 0
    for lineno, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except ValueError:
            obj = None
        if not isinstance(obj, dict):
            if lineno == len(lines) - 1:
                break  # torn tail from a killed writer
            raise ConfigurationError(
                f"journal {path} is corrupt at line {lineno + 1}")
        kind = obj.get("type")
        if kind == "campaign":
            if header is None:
                if obj.get("version") != JOURNAL_VERSION:
                    raise ConfigurationError(
                        f"journal {path} has schema version "
                        f"{obj.get('version')!r}; this build reads "
                        f"{JOURNAL_VERSION}")
                header = obj
            continue
        if kind == "run":
            runs += 1
            continue
        if kind == "unit":
            unit_id = obj.get("unit_id")
            if not isinstance(unit_id, str) or unit_id in records:
                continue
            try:
                records[unit_id] = record_from_payload(obj)
                metrics = fold_metrics(metrics, records[unit_id])
            except ConfigurationError as exc:
                raise ConfigurationError(
                    f"journal {path} line {lineno + 1}: {exc}") from None
    if header is None:
        raise ConfigurationError(
            f"journal {path} has no campaign header line")
    spec_dict = header.get("spec")
    fingerprint = header.get("fingerprint")
    if not isinstance(spec_dict, dict) or not isinstance(fingerprint, str):
        raise ConfigurationError(f"journal {path} header is malformed")
    return spec_dict, fingerprint, records, runs
