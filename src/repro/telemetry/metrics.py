"""Lightweight metrics: counters, gauges and fixed-bucket histograms.

Design constraints, in order:

1. **The disabled path must be almost free.**  Hot call sites (the medium
   runs once per frame, millions of times per sweep) pre-bind their
   instruments at construction time and guard every update with a single
   ``registry.enabled`` attribute check — no dict lookup, no allocation.
2. **Snapshots must merge.**  Trials run in worker processes; each ships
   its registry snapshot (a plain picklable dict) back with the
   :class:`~repro.experiments.common.TrialResult`, and
   :func:`merge_snapshots` folds any number of them into campaign totals
   deterministically (sum counters and histogram buckets, max gauges), so
   aggregate numbers are identical at any ``jobs`` count.
3. **Histograms are fixed-bucket.**  Bucket bounds are declared at
   creation time; observation is a linear scan over a handful of
   upper bounds — no per-observation allocation, stable merge semantics.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable, Mapping, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "snapshot_problem",
]


class Counter:
    """A monotonically increasing count (float increments allowed, e.g.
    accumulated airtime in µs)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0)."""
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A point-in-time value (last write wins; merges take the max)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """Fixed-bucket histogram with an implicit +inf overflow bucket.

    Args:
        name: metric name.
        buckets: strictly increasing upper bounds; an observation lands in
            the first bucket whose bound is >= the value, or the overflow
            bucket.  ``counts`` has ``len(buckets) + 1`` entries.
    """

    __slots__ = ("name", "buckets", "counts", "total", "count")

    def __init__(self, name: str, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name!r}: buckets must be strictly "
                             f"increasing, got {buckets!r}")
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.buckets, value)] += 1
        self.total += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self.count}, mean={self.mean:.3g})"


class MetricsRegistry:
    """Named instruments plus the global enable switch.

    Instruments are created lazily and cached by name, so pre-binding at
    component construction is idiomatic::

        self._m_tx = sim.metrics.counter("medium.tx")
        ...
        if sim.metrics.enabled:
            self._m_tx.inc()

    The registry itself always exists (``Simulator`` owns one); only
    :attr:`enabled` decides whether call sites pay for updates.  Disabled
    registries still hand out instruments — a component written against
    the API never needs to special-case telemetry-off runs.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Instrument creation / lookup
    # ------------------------------------------------------------------

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str,
                  buckets: Sequence[float]) -> Histogram:
        """The histogram called ``name`` (created on first use).

        Re-requesting an existing histogram with different buckets is a
        programming error and raises ``ValueError``.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name, buckets)
        elif instrument.buckets != tuple(float(b) for b in buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{instrument.buckets}, requested {tuple(buckets)}")
        return instrument

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A plain-dict, picklable view of every *touched* instrument.

        Untouched instruments (zero counters, never-set gauges, empty
        histograms) are omitted: a snapshot records what happened, not
        what was wired up.
        """
        return {
            "counters": {c.name: c.value
                         for c in self._counters.values() if c.value},
            "gauges": {g.name: g.value
                       for g in self._gauges.values() if g.value},
            "histograms": {
                h.name: {
                    "buckets": list(h.buckets),
                    "counts": list(h.counts),
                    "sum": h.total,
                    "count": h.count,
                }
                for h in self._histograms.values() if h.count
            },
        }

    def reset(self) -> None:
        """Zero every instrument (bindings stay valid)."""
        for c in self._counters.values():
            c.value = 0
        for g in self._gauges.values():
            g.value = 0.0
        for h in self._histograms.values():
            h.counts = [0] * len(h.counts)
            h.total = 0.0
            h.count = 0


def merge_snapshots(snapshots: Iterable[Optional[Mapping]]) -> dict:
    """Fold registry snapshots into one: counters and histogram buckets
    sum, gauges take the maximum.  ``None`` entries are skipped, so
    mixed-telemetry result lists merge directly.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    for snap in snapshots:
        if not snap:
            continue
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = max(gauges.get(name, value), value)
        for name, hist in snap.get("histograms", {}).items():
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "buckets": list(hist["buckets"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                continue
            if merged["buckets"] != list(hist["buckets"]):
                raise ValueError(
                    f"cannot merge histogram {name!r}: bucket bounds differ "
                    f"({merged['buckets']} vs {list(hist['buckets'])})")
            merged["counts"] = [a + b for a, b in
                                zip(merged["counts"], hist["counts"])]
            merged["sum"] += hist["sum"]
            merged["count"] += hist["count"]
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _histogram_problem(hist: Any) -> Optional[str]:
    if not isinstance(hist, Mapping):
        return "must be a dict"
    buckets, counts = hist.get("buckets"), hist.get("counts")
    if not isinstance(buckets, list) or not all(map(_is_number, buckets)):
        return "buckets must be a list of numbers"
    if not isinstance(counts, list) or len(counts) != len(buckets) + 1 or \
            not all(isinstance(c, int) and not isinstance(c, bool)
                    for c in counts):
        return "counts must be len(buckets) + 1 ints"
    if not _is_number(hist.get("sum")):
        return "sum must be a number"
    count = hist.get("count")
    if not isinstance(count, int) or isinstance(count, bool):
        return "count must be an int"
    return None


def snapshot_problem(snap: Any) -> Optional[str]:
    """Why ``snap`` is not a snapshot :func:`merge_snapshots` can fold, or
    ``None``.

    Every section is optional.  ``counters`` and ``gauges`` map names to
    numbers; ``histograms`` map names to ``{buckets, counts, sum,
    count}`` as :meth:`MetricsRegistry.snapshot` writes them.  Snapshots
    from other processes (a campaign worker's record) are checked with
    this before they are kept, so a bad one cannot break a later merge.
    """
    if not isinstance(snap, Mapping):
        return "a snapshot must be a dict"
    for section in ("counters", "gauges", "histograms"):
        entries = snap.get(section, {})
        if not isinstance(entries, Mapping):
            return f"{section} must be a dict"
        for name, value in entries.items():
            if not isinstance(name, str):
                return f"{section} keys must be strings"
            if section != "histograms":
                if not _is_number(value):
                    return f"{section}[{name!r}] must be a number"
                continue
            problem = _histogram_problem(value)
            if problem is not None:
                return f"histograms[{name!r}]: {problem}"
    return None
