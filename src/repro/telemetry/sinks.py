"""Streaming JSONL trace files.

:class:`JsonlSink` writes one JSON object per
:class:`~repro.sim.trace.TraceRecord`; :func:`read_jsonl` parses such a
file back, and also reads the per-frame JSONL that
``repro capture --format jsonl`` emits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, TYPE_CHECKING, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.trace import TraceRecord

__all__ = ["JsonlSink", "read_jsonl"]


class JsonlSink:
    """Streams records as JSON lines (one object per record).

    Line schema::

        {"time_us": 123.4, "source": "medium", "kind": "tx", "detail": {...}}

    Args:
        destination: a path (opened for writing, closed by :meth:`close`)
            or an already-open text file object (left open).
    """

    def __init__(self, destination: Union[str, Path, IO[str]]) -> None:
        if hasattr(destination, "write"):
            self._file: IO[str] = destination  # type: ignore[assignment]
            self._owns_file = False
        else:
            self._file = open(destination, "w", encoding="utf-8")
            self._owns_file = True
        self.written = 0

    def write(self, record: "TraceRecord") -> None:
        json.dump(
            {"time_us": record.time_us, "source": record.source,
             "kind": record.kind, "detail": record.detail},
            self._file, separators=(",", ":"), sort_keys=True, default=str,
        )
        self._file.write("\n")
        self.written += 1

    def close(self) -> None:
        if self._owns_file and not self._file.closed:
            self._file.close()
        elif not self._file.closed:
            self._file.flush()

    def __enter__(self) -> "JsonlSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_jsonl(path: Union[str, Path]) -> list[dict]:
    """Parse a JSONL trace file back into a list of record dicts."""
    out = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out
