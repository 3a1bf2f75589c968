"""The shared radio medium.

The medium connects transceivers: it propagates every transmission to every
listening transceiver, applying path loss (distance, walls, shadowing),
receiver locking, and the capture-effect collision model.

Receiver locking
----------------
A real BLE receiver correlates on the preamble/access address and, once
synchronised to a frame, demodulates it to the end; a frame that starts
while the receiver is busy is seen only as interference.  This is the exact
mechanism the InjectaBLE race relies on: if the injected frame starts
*before* the legitimate Master frame, the Slave locks onto the injected one
and the Master frame can only corrupt it (paper Fig. 5, situations a/b),
whereas if the Master starts first the injection fails outright
(situation c).

The medium implements this by assigning locks at transmission *start* time:
an eligible listening receiver that is not already locked becomes locked to
the new frame until its end.  At frame end the locked frame is resolved
against every overlapping transmission and delivered (possibly corrupted).

Indexed propagation
-------------------
Per-frame cost scales with the receivers that can actually hear the frame,
not with world size (the broadcast path is O(world) per frame, which melts
at the 100+ connection dense-RF worlds the occupancy sweep runs):

* **per-channel interest sets** — transceivers publish every RX retune via
  :meth:`note_listen`, so lock assignment iterates only the listeners on
  the frame's channel;
* **per-channel active/recent frame indexes** — collision resolution and
  :meth:`active_on_channel` touch only co-channel overlaps;
* **lazy per-link shadowing** — shadowing draws come from counter-based
  per-(sender, receiver) RNG substreams indexed by the sender's
  transmission sequence number, so a draw is a pure function of
  (link, tx_seq).  Pruning unheard receivers, or evaluating a draw late
  (first needed as interference), cannot perturb any other link's draws —
  the property that keeps the indexed and broadcast media trace-identical
  and lets the fast-forward engine skip off-link draws entirely.

``Medium(indexed=False)`` keeps the original broadcast behaviour (every
frame eagerly sampled at every transceiver) as a differential baseline;
``tests/test_sim_medium.py`` checks one against the other and
``tests/test_speed_floors.py`` times them.

Hot-path notes
--------------
``transmit``/``_finish`` run once per frame, i.e. millions of times per
experiment sweep, so:

* in-flight frames live in dicts keyed by ``frame_id`` (O(1) removal at
  frame end instead of a list scan);
* the recently-finished window is a per-channel deque pruned incrementally
  from the left (frames finish in time order);
* receiver locks are additionally indexed per frame id, so resolving a
  finished frame touches only the receivers locked to it;
* geometry (``topology.distance``/``walls_between`` and the derived mean
  loss) is cached per (sender, receiver) pair and invalidated via
  :attr:`Topology.version` whenever a device moves or a wall is added;
* trace records are guarded by ``trace.enabled`` at the call site, so a
  disabled trace costs no kwargs-dict allocation;
* metrics instruments are pre-bound at construction and guarded by
  ``metrics.enabled`` — the telemetry-off path costs one attribute check
  per frame (the benchmark guard asserts < 2% event throughput).
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import MediumError
from repro.phy.collision import CollisionModel, Overlap
from repro.phy.path_loss import PathLossModel
from repro.phy.signal import RadioFrame
from repro.sim.events import TIME_EPS_US
from repro.sim.simulator import Simulator
from repro.sim.topology import Topology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.transceiver import Transceiver

#: Frames that ended longer ago than this no longer matter for collision
#: resolution (the longest BLE frame is ~2.1 ms on air); recent-frame
#: deques are pruned past it.  The fast-forward engine mirrors this when
#: rebuilding the recent window after a batched stretch.
RECENT_HORIZON_US = 20_000.0

#: Link-margin multiple of the shadowing sigma treated as "cannot happen".
#: The indexed medium prunes a candidate receiver without drawing its
#: shadowing when even an 8-sigma fade-up leaves the mean received power
#: below the sensitivity floor (single-draw probability ~1e-15 — the same
#: tolerance the fast-forward engine's engagement audit uses).
LINK_MARGIN_SIGMAS = 8.0


class _ActiveTransmission:
    """Bookkeeping for a frame currently on air (one per transmitted frame)."""

    __slots__ = ("frame", "sender", "tx_seq", "rx_power_dbm")

    def __init__(self, frame: RadioFrame, sender: "Transceiver", tx_seq: int):
        self.frame = frame
        self.sender = sender
        #: The sender's transmission counter at this frame — the per-link
        #: shadowing draw index, so lazily-computed powers are reproducible.
        self.tx_seq = tx_seq
        #: Received power per receiver id, filled on demand (indexed mode)
        #: or eagerly at start (broadcast mode).
        self.rx_power_dbm: dict[int, float] = {}


class _ReceiverLock:
    """A receiver synchronised to one in-flight frame."""

    __slots__ = ("frame_id", "until_us")

    def __init__(self, frame_id: int, until_us: float):
        self.frame_id = frame_id
        self.until_us = until_us


class _LinkShadow:
    """Counter-indexed shadowing draws for one (sender, receiver) link.

    ``value(seq)`` is the shadowing of the sender's ``seq``-th transmission
    as heard on this link — a pure function of (link, seq), whatever order
    or grouping the draws are requested in, and however often.  The
    stream is private to the link and ``numpy.random.Generator.normal(0,
    s, n)`` yields exactly the values of ``n`` scalar draws, so the draws
    for indexes ``[_base, _end)`` sit in one float64 window, extended in
    blocks, and every reader just indexes it: requests may arrive out of
    order (a frame's power can be first needed as *interference* long
    after later frames drew theirs), and a draw nobody used stays there
    for the next reader.

    The window is trimmed from the front when it runs out of room, never
    below the last :attr:`_HORIZON` indexes: a request only reaches back
    as far as the recent-frame horizon (~450 frames per link at the
    minimum frame length).  So it holds at most ``2 * _HORIZON`` draws
    unless one request asks for more at once; a request below it raises.
    """

    __slots__ = ("_rng", "_sigma", "_draws", "_base", "_end")

    #: Fewest draws generated per RNG call; amortises numpy call overhead.
    _BLOCK = 32

    #: Newest indexes that stay readable whatever is trimmed.
    _HORIZON = 4096

    def __init__(self, rng, sigma: float):
        self._rng = rng
        self._sigma = sigma
        self._draws = np.empty(0)
        self._base = 0
        self._end = 0

    def value(self, seq: int) -> float:
        """The link's shadowing draw for transmission index ``seq``, in dB."""
        if seq >= self._end:
            self._extend(seq + 1, seq)
        index = seq - self._base
        if index < 0:
            raise self._below(seq)
        return float(self._draws[index])

    def take(self, seq: int, count: int) -> np.ndarray:
        """Draws for transmission indexes ``seq .. seq+count-1``, in dB: the
        values of ``count`` :meth:`value` calls, as a new array."""
        if seq + count > self._end:
            self._extend(seq + count, seq)
        index = seq - self._base
        if index < 0:
            raise self._below(seq)
        return self._draws[index:index + count].copy()

    def _extend(self, stop: int, first: int) -> None:
        """Draw up to index ``stop - 1``.  A window out of room moves to a
        new array (doubled, up to ``2 * _HORIZON``) that keeps index
        ``first`` on and at least the last :attr:`_HORIZON` indexes."""
        base, end, draws = self._base, self._end, self._draws
        fresh = self._rng.normal(0.0, self._sigma,
                                 max(stop - end, self._BLOCK))
        new_end = end + len(fresh)
        if new_end - base > len(draws):
            keep = max(base, min(first, new_end - self._HORIZON))
            window = np.empty(max(new_end - keep,
                                  min(2 * len(draws), 2 * self._HORIZON)))
            if keep < end:
                window[:end - keep] = draws[keep - base:end - base]
            draws, base = self._draws, self._base = window, keep
        start = max(end, base)
        draws[start - base:new_end - base] = fresh[start - end:]
        self._end = new_end

    def _below(self, seq: int) -> MediumError:
        return MediumError(f"shadowing draw {seq} lies below the link's "
                           f"window, which starts at {self._base}")


class Medium:
    """Radio propagation between registered transceivers.

    Args:
        sim: owning simulator (scheduling and RNG streams).
        topology: device positions and walls.
        path_loss: propagation model.
        collision: capture-effect model.
        sensitivity_dbm: default receiver sensitivity; frames arriving below
            it neither lock nor deliver.
        indexed: use the per-channel indexes, range pruning and lazy per-link
            shadowing (the default); ``False`` restores the broadcast
            medium that eagerly samples every frame at every transceiver —
            same traces, O(world) per frame — kept as the differential and
            benchmark baseline.

    On a fast simulator (``sim.engine == "fast"``) the medium installs a
    :class:`~repro.sim.fastforward.QuietCycleEngine`, which the world's
    links, followers and Wi-Fi interferers enrol in and leave themselves.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Optional[Topology] = None,
        path_loss: Optional[PathLossModel] = None,
        collision: Optional[CollisionModel] = None,
        sensitivity_dbm: float = -90.0,
        indexed: bool = True,
    ):
        self.sim = sim
        self.topology = topology if topology is not None else Topology()
        self.path_loss = path_loss if path_loss is not None else PathLossModel()
        self.collision = collision if collision is not None else CollisionModel()
        self.sensitivity_dbm = sensitivity_dbm
        self.indexed = indexed
        self._transceivers: dict[int, "Transceiver"] = {}
        self._next_id = 0
        self._active: dict[int, _ActiveTransmission] = {}
        # Per-channel views of the in-flight and recently-finished frames;
        # iteration order within a channel matches the global insertion /
        # finish order, so collision resolution consumes the collision RNG
        # exactly as a whole-world scan filtered by channel would.
        self._active_by_channel: dict[int, dict[int, _ActiveTransmission]] = {}
        self._recent_by_channel: dict[int, deque] = {}
        # channel -> {medium id -> transceiver} currently in RX there,
        # maintained by Transceiver via note_listen.
        self._listeners: dict[int, dict[int, "Transceiver"]] = {}
        self._locks: dict[int, _ReceiverLock] = {}
        # frame_id -> medium ids locked to it, so _finish resolves in
        # O(locks on this frame) instead of scanning the whole lock table.
        self._frame_locks: dict[int, list[int]] = {}
        # sender id -> transmissions so far (the per-link draw index).
        self._tx_seq: dict[int, int] = {}
        self._link_shadows: dict[tuple[int, int], _LinkShadow] = {}
        self._collision_rng = sim.streams.get("medium-collision")
        self._taps: list = []
        # (sender_id, receiver_id) -> (distance_m, walls crossed, mean
        # loss dB); rebuilt lazily whenever the topology version moves.
        self._path_cache: dict[tuple[int, int], tuple[float, tuple, float]] = {}
        self._path_cache_version = -1
        metrics = sim.metrics
        self._metrics = metrics
        self._m_tx = metrics.counter("medium.tx")
        self._m_rx = metrics.counter("medium.rx")
        self._m_rx_corrupted = metrics.counter("medium.rx.corrupted")
        self._m_rx_busy = metrics.counter("medium.rx_busy")
        self._m_collisions = metrics.counter("medium.collisions")
        # Per-channel airtime counters, bound on first use per channel.
        self._m_airtime: dict[int, object] = {}
        from repro.sim.fastforward import ENGINE_FAST, QuietCycleEngine

        if sim.engine == ENGINE_FAST:
            sim.install_fast_forward(QuietCycleEngine(sim, self))

    def register(self, transceiver: "Transceiver") -> int:
        """Attach a transceiver; returns its medium id."""
        tid = self._next_id
        self._next_id += 1
        self._transceivers[tid] = transceiver
        return tid

    def note_listen(self, transceiver: "Transceiver",
                    old: Optional[int], new: Optional[int]) -> None:
        """RX retune hook: keep the per-channel interest sets current.

        Called by :class:`~repro.sim.transceiver.Transceiver` whenever its
        RX channel changes (``old``/``new`` of ``None`` mean not listening).
        """
        tid = transceiver.medium_id
        if old is not None:
            listeners = self._listeners.get(old)
            if listeners is not None:
                listeners.pop(tid, None)
        if new is not None:
            listeners = self._listeners.get(new)
            if listeners is None:
                listeners = self._listeners[new] = {}
            listeners[tid] = transceiver

    # ------------------------------------------------------------------
    # Propagation geometry (cached) and per-link shadowing
    # ------------------------------------------------------------------

    def _path_to(self, sender: "Transceiver", tid: int
                 ) -> tuple[float, tuple, float]:
        """(distance, walls, mean loss) from ``sender`` to transceiver ``tid``."""
        topology = self.topology
        if topology.version != self._path_cache_version:
            self._path_cache.clear()
            self._path_cache_version = topology.version
        key = (sender.medium_id, tid)
        path = self._path_cache.get(key)
        if path is None:
            rx = self._transceivers[tid]
            distance = topology.distance(sender.name, rx.name)
            walls = topology.walls_between(sender.name, rx.name)
            path = (distance, walls,
                    self.path_loss.mean_loss_db(distance, walls))
            self._path_cache[key] = path
        return path

    def _link_shadow(self, sender: "Transceiver", tid: int) -> _LinkShadow:
        """The shadowing substream of the ``sender`` → ``tid`` link."""
        key = (sender.medium_id, tid)
        shadow = self._link_shadows.get(key)
        if shadow is None:
            rx = self._transceivers[tid]
            rng = self.sim.streams.get(f"shadow-{sender.name}->{rx.name}")
            shadow = _LinkShadow(rng, self.path_loss.shadowing_sigma_db)
            self._link_shadows[key] = shadow
        return shadow

    def _power_at(self, tx: _ActiveTransmission, tid: int) -> float:
        """Received power of ``tx`` at transceiver ``tid`` (memoised).

        The shadowing draw is read from the link's window by the frame's
        transmission index, so it is the same value whether the
        fast-forward engine read it first or nobody did."""
        power = tx.rx_power_dbm.get(tid)
        if power is None:
            _distance, _walls, mean_loss = self._path_to(tx.sender, tid)
            loss = mean_loss
            if self.path_loss.shadowing_sigma_db > 0.0:
                loss += self._link_shadow(tx.sender, tid).value(tx.tx_seq)
            power = tx.frame.tx_power_dbm - loss
            tx.rx_power_dbm[tid] = power
        return power

    # ------------------------------------------------------------------
    # Transmission path
    # ------------------------------------------------------------------

    def transmit(self, frame: RadioFrame, sender: "Transceiver") -> None:
        """Put ``frame`` on air; called by the sender at frame start time."""
        sender_id = sender.medium_id
        if sender_id not in self._transceivers:
            raise MediumError(f"transceiver {sender.name!r} is not registered")
        if abs(frame.start_us - self.sim.now) > TIME_EPS_US:
            raise MediumError(
                f"frame start {frame.start_us} != now {self.sim.now}"
            )
        seq = self._tx_seq.get(sender_id, 0)
        self._tx_seq[sender_id] = seq + 1
        tx = _ActiveTransmission(frame=frame, sender=sender, tx_seq=seq)
        if not self.indexed:
            self._sample_rx_powers(tx)
        self._active[frame.frame_id] = tx
        actives = self._active_by_channel.get(frame.channel)
        if actives is None:
            actives = self._active_by_channel[frame.channel] = {}
        actives[frame.frame_id] = tx
        self._assign_locks(tx)
        trace = self.sim.trace
        if trace.enabled:
            trace.record(
                self.sim.now, sender.name, "tx",
                channel=frame.channel, aa=frame.access_address,
                pdu_len=len(frame.pdu), frame_id=frame.frame_id,
            )
        if self._metrics.enabled:
            self._m_tx.inc()
            airtime = self._m_airtime.get(frame.channel)
            if airtime is None:
                airtime = self._m_airtime[frame.channel] = \
                    self._metrics.counter(
                        f"medium.airtime_us.ch{frame.channel:02d}")
            airtime.inc(frame.duration_us)
        self.sim.schedule_at(frame.end_us, lambda: self._finish(tx), "medium-finish")
        for tap in self._taps:
            tap(frame)

    def _sample_rx_powers(self, tx: _ActiveTransmission) -> None:
        """Eagerly sample ``tx``'s power at every other transceiver.

        The broadcast (non-indexed) baseline: O(world) per frame.  Draws
        come from the same per-link substreams the lazy path uses, so the
        values are identical either way.
        """
        sender_id = tx.sender.medium_id
        for tid in self._transceivers:
            if tid != sender_id:
                self._power_at(tx, tid)

    def _assign_locks(self, tx: _ActiveTransmission) -> None:
        """Lock every eligible idle listening receiver onto ``tx``."""
        now = self.sim.now
        trace = self.sim.trace
        frame = tx.frame
        sender_id = tx.sender.medium_id
        margin = 0.0
        if self.indexed:
            listeners = self._listeners.get(frame.channel)
            if not listeners:
                return
            # Ascending medium-id order matches the broadcast scan's
            # registration order, so rx-busy/rx-lock traces and lock-table
            # insertion order are identical between the two modes.
            candidates = [(tid, listeners[tid]) for tid in sorted(listeners)]
            margin = LINK_MARGIN_SIGMAS * self.path_loss.shadowing_sigma_db
        else:
            candidates = list(self._transceivers.items())
        for tid, rx in candidates:
            if tid == sender_id:
                continue
            if not rx.is_listening_on(frame.channel, since_us=now):
                continue
            if rx.rx_phy is not frame.phy:
                continue  # wrong symbol rate: no preamble correlation
            if rx.is_transmitting(at_us=now):
                continue  # half duplex
            floor = max(self.sensitivity_dbm, rx.sensitivity_dbm)
            if self.indexed:
                mean_loss = self._path_to(tx.sender, tid)[2]
                if frame.tx_power_dbm - mean_loss + margin < floor:
                    continue  # deaf even under an 8-sigma fade-up: no draw
            if self._power_at(tx, tid) < floor:
                continue
            lock = self._locks.get(tid)
            if lock is not None and lock.until_us > now + TIME_EPS_US:
                # Receiver busy demodulating an earlier frame: this frame is
                # interference only (handled at resolution time).
                if trace.enabled:
                    trace.record(
                        now, rx.name, "rx-busy",
                        frame_id=frame.frame_id, locked_to=lock.frame_id,
                    )
                if self._metrics.enabled:
                    self._m_rx_busy.inc()
                continue
            self._locks[tid] = _ReceiverLock(frame.frame_id, frame.end_us)
            locked = self._frame_locks.get(frame.frame_id)
            if locked is None:
                locked = self._frame_locks[frame.frame_id] = []
            locked.append(tid)
            if trace.enabled:
                trace.record(
                    now, rx.name, "rx-lock",
                    frame_id=frame.frame_id, channel=frame.channel,
                    rssi_dbm=tx.rx_power_dbm[tid],
                )

    def _append_recent(self, tx: _ActiveTransmission) -> None:
        """File a finished transmission in its channel's recent window.

        Frames finish in time order, so each deque is sorted by end time
        and pruning from the left is exact.  Idle channels keep their last
        few frames until the next finish there — unobservable, since a
        frame past the horizon can no longer overlap anything.
        """
        channel = tx.frame.channel
        recent = self._recent_by_channel.get(channel)
        if recent is None:
            recent = self._recent_by_channel[channel] = deque()
        recent.append(tx)
        horizon = self.sim.now - RECENT_HORIZON_US
        while recent and recent[0].frame.end_us < horizon:
            recent.popleft()

    def _finish(self, tx: _ActiveTransmission) -> None:
        """Frame finished: resolve collisions and deliver to locked receivers."""
        frame = tx.frame
        fid = frame.frame_id
        self._active.pop(fid, None)
        actives = self._active_by_channel.get(frame.channel)
        if actives is not None:
            actives.pop(fid, None)
        self._append_recent(tx)
        tx.sender.on_tx_done(frame)

        locked = self._frame_locks.pop(fid, None)
        if not locked:
            return
        if len(locked) > 1:
            # Multi-receiver frames deliver in lock-*table* order, which an
            # overwritten-then-relocked receiver keeps from its first entry
            # (dict update preserves position).  Re-derive it so delivery —
            # and hence collision-RNG consumption — matches the pre-index
            # whole-table scan exactly.  O(currently locked receivers).
            locked = [tid for tid, lock in self._locks.items()
                      if lock.frame_id == fid]
        trace = self.sim.trace
        for tid in locked:
            lock = self._locks.get(tid)
            if lock is None or lock.frame_id != fid:
                continue  # lock was overwritten at this exact instant
            del self._locks[tid]
            rx = self._transceivers[tid]
            if not rx.is_listening_on(frame.channel, since_us=None):
                # Receiver gave up (window closed) before the frame ended.
                if trace.enabled:
                    trace.record(
                        self.sim.now, rx.name, "rx-abandoned",
                        frame_id=fid,
                    )
                continue
            copy = frame.copy_for_receiver()
            outcome = self._resolve_interference(tx, tid)
            if outcome is not None and not outcome.survived:
                copy.corrupted = True
            if trace.enabled:
                trace.record(
                    self.sim.now, rx.name, "rx",
                    frame_id=copy.frame_id, corrupted=copy.corrupted,
                    rssi_dbm=tx.rx_power_dbm[tid],
                )
            if self._metrics.enabled:
                self._m_rx.inc()
                if copy.corrupted:
                    self._m_rx_corrupted.inc()
            rx.deliver(copy, tx.rx_power_dbm[tid])

    def _resolve_interference(self, tx: _ActiveTransmission, receiver_id: int):
        """Resolve ``tx`` against all frames overlapping it at ``receiver_id``."""
        overlaps: list[Overlap] = []
        wanted_power = tx.rx_power_dbm[receiver_id]
        frame = tx.frame
        start_us, end_us = frame.start_us, frame.end_us
        actives = self._active_by_channel.get(frame.channel)
        recents = self._recent_by_channel.get(frame.channel)
        for other in chain(actives.values() if actives else (),
                           recents if recents is not None else ()):
            other_frame = other.frame
            # Inline RadioFrame.overlaps minus its channel test — the
            # per-channel indexes only ever hand us co-channel frames, and
            # the recent window holds many frames too old to overlap.
            if other_frame.end_us <= start_us or end_us <= other_frame.start_us:
                continue
            if other_frame.frame_id == frame.frame_id:
                continue
            if other.sender.medium_id == receiver_id:
                continue  # a receiver is deaf to its own TX, not corrupted by it
            overlaps.append(
                Overlap(
                    start_us=max(frame.start_us, other.frame.start_us),
                    end_us=min(frame.end_us, other.frame.end_us),
                    sir_db=wanted_power - self._power_at(other, receiver_id),
                )
            )
        if not overlaps:
            return None
        outcome = self.collision.resolve(frame, overlaps, self._collision_rng)
        if self._metrics.enabled:
            self._m_collisions.inc()
        trace = self.sim.trace
        if trace.enabled:
            trace.record(
                self.sim.now, self._transceivers[receiver_id].name, "collision",
                frame_id=frame.frame_id,
                overlapped_bits=outcome.overlapped_bits,
                corrupted_bits=outcome.corrupted_bits,
                survived=outcome.survived,
            )
        return outcome

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def active_on_channel(self, channel: int) -> list[RadioFrame]:
        """Frames currently on air on ``channel`` (for IDS-style monitors)."""
        actives = self._active_by_channel.get(channel)
        if not actives:
            return []
        return [t.frame for t in actives.values()]

    def add_tap(self, tap) -> None:
        """Register a wideband monitor callback, called at every frame start.

        Models an SDR-based IDS (RadIoT-style, paper §VIII): the tap sees
        frame metadata (time, channel, AA, duration) but not per-receiver
        corruption outcomes.  While any tap reads more, the fast-forward
        engine replays nothing, whatever links and tracks are enrolled in
        it.  A tap that reads nothing but ``frame.duration_us`` may declare
        ``airtime_only = True`` and offer ``credit_airtime(durations)``:
        the engine then hands it the durations of the frames it skips, in
        frame-start order, instead of standing down.
        """
        self._taps.append(tap)

    def lock_end_of(self, transceiver: "Transceiver") -> Optional[float]:
        """End time of the frame ``transceiver`` is locked onto, or ``None``.

        Receivers use this to keep their window open to the end of a frame
        they are already demodulating (real radios finish the packet even if
        the nominal window closes mid-frame).
        """
        lock = self._locks.get(transceiver.medium_id)
        if lock is None or lock.until_us <= self.sim.now + TIME_EPS_US:
            return None
        return lock.until_us
