"""Work-stealing lease queue — the coordinator's scheduling core.

Workers pull units one lease at a time, so a fast worker never idles
while a slow one still holds a fixed share of the grid.  Pull
scheduling comes with two recovery mechanisms:

* **lease expiry** — every grant carries a deadline; a unit whose every
  holder blew its deadline is re-queued (the holder was SIGKILLed, hung
  past the watchdog, or lost its network);
* **work stealing** — an *idle* worker (nothing pending) may be granted
  a unit that is still leased to someone else, once that lease has been
  outstanding for ``steal_after_s`` seconds.  The first result to arrive
  wins; later duplicates are discarded, which keeps the journal — and
  therefore the report — byte-identical to a serial run, because trials
  are seed-deterministic (two executions of one unit produce the same
  record).

The class is deliberately pure: no clocks, no sockets, no I/O — every
method takes ``now`` explicitly, so scheduling policy is unit-testable
with a scripted clock and the coordinator stays the single place that
reads wall time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set


@dataclass
class Lease:
    """One in-flight unit: who holds it and since when.

    A unit has one :class:`Lease` however many workers are currently
    racing it; ``holders`` maps each worker to its grant time.  The
    deadline is refreshed on every (re-)grant, so a unit is only
    re-queued when its *newest* holder has also gone quiet.
    """

    unit_id: str
    first_granted: float
    last_granted: float
    deadline: float
    holders: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class LeaseGrant:
    """The queue's answer to one lease request."""

    unit_id: str
    stolen: bool
    deadline: float


@dataclass(frozen=True)
class Completion:
    """What :meth:`LeaseQueue.complete` learned about a result.

    ``first`` is False for duplicates (a stolen-and-raced unit reporting
    twice); ``latency_s`` measures first grant → first result and is
    ``None`` when the unit was never granted (e.g. a record replayed
    from another journal).
    """

    first: bool
    latency_s: Optional[float] = None


class LeaseQueue:
    """Pending/in-flight bookkeeping with expiry and bounded stealing.

    Args:
        unit_ids: the units still needing execution, in expansion order.
        lease_timeout_s: grant-to-deadline horizon; a lease none of whose
            holders reported by its deadline is re-queued.
        steal_after_s: minimum age of a lease before an idle worker may
            steal it.  Stealing resets the age, so a straggler unit is
            re-granted at most once per ``steal_after_s`` — the race is
            bounded, not a stampede.
    """

    def __init__(self, unit_ids: Sequence[str],
                 lease_timeout_s: float = 60.0,
                 steal_after_s: float = 2.0) -> None:
        self.lease_timeout_s = float(lease_timeout_s)
        self.steal_after_s = float(steal_after_s)
        self._pending: Deque[str] = deque(unit_ids)
        self._inflight: Dict[str, Lease] = {}
        self._done: Set[str] = set()
        self._first_grant: Dict[str, float] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def pending_count(self) -> int:
        """Units waiting for their first (or re-queued) grant."""
        return len(self._pending)

    @property
    def inflight_count(self) -> int:
        """Units currently leased to at least one worker."""
        return len(self._inflight)

    @property
    def drained(self) -> bool:
        """Nothing pending and nothing in flight."""
        return not self._pending and not self._inflight

    def holders(self, unit_id: str) -> List[str]:
        """The workers currently racing ``unit_id`` (empty if none)."""
        lease = self._inflight.get(unit_id)
        return sorted(lease.holders) if lease else []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def requeue_expired(self, now: float) -> List[str]:
        """Re-queue every lease whose deadline has passed.

        Returns the re-queued unit ids (the coordinator counts them).
        """
        expired = [lease for lease in self._inflight.values()
                   if now > lease.deadline]
        for lease in expired:
            del self._inflight[lease.unit_id]
            self._pending.append(lease.unit_id)
        return [lease.unit_id for lease in expired]

    def lease(self, worker: str, now: float) -> Optional[LeaseGrant]:
        """Grant the next unit to ``worker``, stealing if necessary.

        Pending units are granted in queue order.  With nothing pending,
        the oldest sufficiently-aged lease not already held by this
        worker is re-granted as a steal.  Returns ``None`` when there is
        nothing to hand out (the worker should back off and retry).
        """
        self.requeue_expired(now)
        deadline = now + self.lease_timeout_s
        if self._pending:
            unit_id = self._pending.popleft()
            lease = Lease(unit_id=unit_id, first_granted=now,
                          last_granted=now, deadline=deadline,
                          holders={worker: now})
            self._inflight[unit_id] = lease
            self._first_grant.setdefault(unit_id, now)
            return LeaseGrant(unit_id=unit_id, stolen=False,
                              deadline=deadline)
        candidates = [lease for lease in self._inflight.values()
                      if worker not in lease.holders
                      and now - lease.last_granted >= self.steal_after_s]
        if not candidates:
            return None
        victim = min(candidates,
                     key=lambda lease: (lease.last_granted, lease.unit_id))
        victim.holders[worker] = now
        victim.last_granted = now
        victim.deadline = deadline
        return LeaseGrant(unit_id=victim.unit_id, stolen=True,
                          deadline=deadline)

    def complete(self, unit_id: str, now: float) -> Completion:
        """Record a result for ``unit_id``; first occurrence wins."""
        if unit_id in self._done:
            return Completion(first=False)
        self._done.add(unit_id)
        self._inflight.pop(unit_id, None)
        try:
            self._pending.remove(unit_id)
        except ValueError:
            pass
        granted = self._first_grant.pop(unit_id, None)
        latency = (now - granted) if granted is not None else None
        return Completion(first=True, latency_s=latency)
