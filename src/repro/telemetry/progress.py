"""Campaign-level progress counters.

A :class:`ProgressTracker` counts unit completions and emits throttled
one-line updates to a stream (typically stderr, keeping stdout clean for
reports).  It is deliberately wall-clock-free: no rates, no ETAs — the
repository's determinism lint bans ambient time reads, and progress
output interleaved with deterministic reports must not vary between
runs beyond the counters themselves.
"""

from __future__ import annotations

from typing import Optional, TextIO


class ProgressTracker:
    """Counts ok/failed unit completions; optionally prints lines.

    Args:
        total: expected number of updates (0 = unknown).
        stream: where to print progress lines (``None`` = count only).
        label: prefix of each line.
        every: print every N-th update (the final update always prints).
    """

    def __init__(self, total: int = 0, stream: Optional[TextIO] = None,
                 label: str = "campaign", every: int = 1) -> None:
        self.stream = stream
        self.label = label
        self.every = max(1, every)
        self.total = total
        self.done = 0
        self.ok = 0
        self.failed = 0

    def reset(self, total: int) -> None:
        """Re-arm for a new batch of ``total`` expected updates."""
        self.total = total
        self.done = self.ok = self.failed = 0

    def preload(self, done: int, ok: int, failed: int) -> None:
        """Seed the counters from work completed before tracking began.

        ``campaign status --follow`` attaches to campaigns mid-flight;
        preloading the journal's counts keeps the printed ``done/total``
        line consistent with the service's own status.
        """
        self.done, self.ok, self.failed = done, ok, failed

    def update(self, status: str) -> None:
        """Record one completed unit (``status``: ``"ok"``/``"failed"``)."""
        self.done += 1
        if status == "ok":
            self.ok += 1
        else:
            self.failed += 1
        if self.stream is not None and (
                self.done % self.every == 0 or self.done == self.total):
            print(self.render(), file=self.stream, flush=True)

    def render(self) -> str:
        """One-line summary of the counters."""
        total = str(self.total) if self.total else "?"
        return (f"{self.label}: {self.done}/{total} "
                f"ok={self.ok} failed={self.failed}")
