"""Structured trace of simulation activity.

A :class:`Trace` is the audit trail of what happened on air and inside
the state machines: an in-memory list of typed records, kept whole.  The
engine differential tests compare it byte for byte across engines and
medium modes; experiment worlds leave it disabled, so it costs one flag
check per record site.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Optional


class TraceRecord:
    """One trace entry.

    A ``__slots__`` class, not a dataclass: one instance is allocated per
    recorded event, millions per traced sweep.

    Attributes:
        time_us: true simulator time of the event.
        source: name of the emitting component (device name, "medium", ...).
        kind: machine-readable event type, e.g. ``"tx"``, ``"rx"``,
            ``"collision"``, ``"anchor"``, ``"injection-attempt"``.
        detail: free-form payload (kept small; no object graphs).
    """

    __slots__ = ("time_us", "source", "kind", "detail")

    def __init__(self, time_us: float, source: str, kind: str,
                 detail: Optional[dict[str, Any]] = None):
        self.time_us = time_us
        self.source = source
        self.kind = kind
        self.detail = detail if detail is not None else {}

    def __repr__(self) -> str:
        return (f"TraceRecord(t={self.time_us}, source={self.source!r}, "
                f"kind={self.kind!r}, detail={self.detail!r})")


class Trace:
    """Simulation trace: a list of records with a query helper.

    Args:
        enabled: record anything at all (the fast-exit guard hot paths
            check before building kwargs).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._records: list[TraceRecord] = []

    def record(
        self, time_us: float, source: str, kind: str, **detail: Any
    ) -> None:
        """Append a record (no-op when disabled)."""
        if self.enabled:
            self._records.append(TraceRecord(time_us, source, kind, detail))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def filter(
        self,
        kind: Optional[str] = None,
        source: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Records matching all the provided criteria."""
        out = []
        for rec in self._records:
            if kind is not None and rec.kind != kind:
                continue
            if source is not None and rec.source != source:
                continue
            if predicate is not None and not predicate(rec):
                continue
            out.append(rec)
        return out
