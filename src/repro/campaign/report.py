"""Campaign report rendering.

The report is a pure function of the journal's unit records and the
spec's deterministic grid expansion — never of wall time, worker
count, sharding, or how many interruptions it took to finish.  That is what makes the acceptance check meaningful: an
interrupted-and-resumed campaign renders byte-identically to an
uninterrupted one.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.analysis.reporting import (
    render_distribution_table,
    render_failure_taxonomy,
    render_metrics_table,
    render_series,
)
from repro.campaign.engine import CampaignState


def status_dict(state: CampaignState) -> Dict[str, Any]:
    """Machine-readable campaign status.

    The one rendering path shared by ``repro campaign status --format
    json`` and the service's ``GET /status`` endpoint — like the text
    report, it is a pure function of the journal-derived state.
    """
    return {
        "name": state.spec.name,
        "fingerprint": state.fingerprint,
        "axes": [axis.experiment for axis in state.spec.axes],
        "total": state.total,
        "done": state.done,
        "ok": state.ok_count,
        "failed": state.failed_count,
        "pending": len(state.pending),
        "runs": state.runs,
    }


def _axis_dict(state: CampaignState, axis_index: int) -> Dict[str, Any]:
    """Per-axis aggregates: success rate plus attempt stats per config."""
    from repro.analysis.stats import box_stats

    axis = state.spec.axes[axis_index]
    axis_units = [u for u in state.units if u.axis == axis_index]
    samples: Dict[str, List[int]] = {}
    completed = successes = 0
    for unit in axis_units:
        samples.setdefault(unit.config_key, [])
        record = state.records.get(unit.unit_id)
        if record is None or record.status != "ok":
            continue
        completed += 1
        result = record.result or {}
        if result.get("success"):
            successes += 1
            samples[unit.config_key].append(int(result["attempts"]))
    configurations: Dict[str, Any] = {}
    for key, values in samples.items():
        if not values:
            configurations[key] = {"successes": 0}
            continue
        stats = box_stats(values)
        configurations[key] = {
            "successes": len(values),
            "attempts": {
                "count": stats.count,
                "mean": sum(values) / len(values),
                "min": stats.minimum,
                "median": stats.median,
                "max": stats.maximum,
            },
        }
    return {
        "axis": axis_index,
        "experiment": axis.experiment,
        "units": len(axis_units),
        "completed": completed,
        "successes": successes,
        "success_rate": successes / completed if completed else 0.0,
        "configurations": configurations,
    }


def _failures_dict(state: CampaignState) -> Dict[str, List[str]]:
    """Failed unit ids grouped by failure kind."""
    failures: Dict[str, List[str]] = {}
    for unit in state.units:
        record = state.records.get(unit.unit_id)
        if record is None or record.status == "ok":
            continue
        kind = (record.failure or {}).get("kind", "unknown")
        failures.setdefault(kind, []).append(unit.unit_id)
    return failures


def _merged_metrics(state: CampaignState) -> Optional[Dict[str, Any]]:
    """Merge the journaled telemetry snapshots (None when uninstrumented)."""
    snapshots = [
        state.records[unit.unit_id].metrics
        for unit in state.units
        if state.records.get(unit.unit_id) is not None
        and state.records[unit.unit_id].metrics
    ]
    if not snapshots:
        return None
    from repro.telemetry import merge_snapshots

    return {"instrumented_units": len(snapshots),
            "merged": merge_snapshots(snapshots)}


def report_dict(state: CampaignState) -> Dict[str, Any]:
    """Machine-readable campaign report (same data as :func:`build_report`).

    Shared by ``repro campaign report --format json`` and the service's
    ``GET /report?format=json`` endpoint.
    """
    return {
        "campaign": status_dict(state),
        "axes": [_axis_dict(state, i) for i in range(len(state.spec.axes))],
        "failures": _failures_dict(state),
        "metrics": _merged_metrics(state),
    }


def render_status(state: CampaignState) -> str:
    """Short progress summary for ``repro campaign status``."""
    spec = state.spec
    rows = [
        ("fingerprint", state.fingerprint[:16]),
        ("axes", ", ".join(axis.experiment for axis in spec.axes)),
        ("units", str(state.total)),
        ("completed", f"{state.done}/{state.total}"),
        ("ok", str(state.ok_count)),
        ("failed", str(state.failed_count)),
        ("pending", str(len(state.pending))),
        ("runs recorded", str(state.runs)),
    ]
    return render_series(f"Campaign {spec.name!r}", rows)


def build_report(state: CampaignState) -> str:
    """Full campaign report: overview, per-axis tables, failures, metrics."""
    spec = state.spec
    sections: List[str] = []

    sections.append(render_series(f"Campaign {spec.name!r}", [
        ("fingerprint", state.fingerprint[:16]),
        ("units", str(state.total)),
        ("ok", str(state.ok_count)),
        ("failed", str(state.failed_count)),
        ("pending", str(len(state.pending))),
    ]))

    for axis_index, axis in enumerate(spec.axes):
        axis_units = [u for u in state.units if u.axis == axis_index]
        samples: Dict[str, List[int]] = {}
        completed = successes = 0
        for unit in axis_units:
            samples.setdefault(unit.config_key, [])
            record = state.records.get(unit.unit_id)
            if record is None or record.status != "ok":
                continue
            completed += 1
            result = record.result or {}
            if result.get("success"):
                successes += 1
                samples[unit.config_key].append(int(result["attempts"]))
        title = (f"axis {axis_index}: {axis.experiment} "
                 f"({len(axis_units)} units)")
        nonempty = {key: values for key, values in samples.items() if values}
        if nonempty:
            table = render_distribution_table(title, "configuration",
                                              nonempty)
        else:
            table = f"{title}\n  (no successful units)"
        rate = successes / completed if completed else 0.0
        sections.append(
            f"{table}\n"
            f"success rate: {successes}/{completed} completed "
            f"({rate:.2f})")

    sections.append(render_failure_taxonomy("Failure taxonomy",
                                            _failures_dict(state)))

    snapshots = [
        state.records[unit.unit_id].metrics
        for unit in state.units
        if state.records.get(unit.unit_id) is not None
        and state.records[unit.unit_id].metrics
    ]
    if snapshots:
        from repro.telemetry import merge_snapshots

        sections.append(render_metrics_table(
            f"Merged telemetry ({len(snapshots)} instrumented units)",
            merge_snapshots(snapshots)))

    return "\n\n".join(sections)
