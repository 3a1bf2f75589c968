"""Analytic fast-forward of quiet BLE connection-event cycles.

An established connection with nothing to say is *quiet*: Master and
Slave exchange empty data PDUs (poll / ack) every connection interval
while every other radio sits idle or only listens.  Event by event, each
such connection event costs 6-9 heap operations, two ``RadioFrame``
allocations, closures, and medium lock bookkeeping.  A §VII trial (and
scenario A) is quiet for nearly all of its simulated time: the
connection set-up, during which the attacker follows the link passively
(re-anchoring on every Master frame and recording both sides' SN/NESN
bits), and the settle — a supervision timeout plus a margin — after its
injection report.  So is any world a caller keeps running past its
trial, such as the engine differential tests' long post-injection
horizons.  The attack itself is not quiet (the attacker transmits, and
it counts followed events while an injection is queued), and neither is
a world with a wideband medium tap (dense occupancy meter, detector
bank) or an attacker that stays on air (scenarios B-D), so the engine
stays off there.

:class:`QuietCycleEngine` replaces those stretches with closed-form
arithmetic.  Whenever the event queue holds *exactly* the steady-state trio
(the Slave's window-open and window-close events and the Master's
connection event) -- or the trio plus the sniff-open/sniff-close pair of
the world's *follower*, a passive
:class:`~repro.core.sniffer.ConnectionSniffer` on the link -- and a
conservative eligibility audit passes, the engine computes whole blocks
of cycles as numpy arrays — CSA channel, SN/NESN ARQ bits, SleepClock
drift/jitter, path-loss shadowing, and the follower's listening windows
and received power — commits the cycles up to the first one it cannot
replicate, emits the *same* trace records, metric increments and RNG
stream consumption the reference path would produce, then writes the end
state back and lets the reference engine resume.  Anything it cannot
replicate bit-for-bit (pending procedures, queued data, a follower with
an ``on_event`` callback or one that would miss a frame, a window edge
within float tolerance of a frame boundary) disengages it with none of
that cycle's draws consumed, so the reference path takes over mid-trial
with no divergence.

Correctness contract (enforced by ``tests/test_engine_differential.py``):
byte-identical traces and bit-identical results against the reference
engine.  See DESIGN.md, "Epoch scheduler & analytic fast-forward", for the
invariants and the full bail-out list.
"""

from __future__ import annotations

import os
from dataclasses import replace
from itertools import islice
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.ll.csa1 import NUM_DATA_CHANNELS
from repro.ll.master import _RESPONSE_GRACE_US, MasterState
from repro.ll.pdu.data import LLID, DataPdu
from repro.ll.pdu.frame import compute_crc
from repro.ll.slave import SlaveState
from repro.ll.timing import (
    WINDOW_WIDENING_CONSTANT_US,
    WORST_CASE_SLAVE_SCA_PPM,
)
from repro.phy import signal as _signal
from repro.phy.modulation import air_time_us
from repro.phy.signal import RadioFrame
from repro.sim.events import TIME_EPS_US, Event
from repro.sim.medium import (
    LINK_MARGIN_SIGMAS,
    RECENT_HORIZON_US,
    Medium,
    _ActiveTransmission,
)
from repro.sim.simulator import Simulator
from repro.utils.units import PPM, T_IFS_US

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.sniffer import ConnectionSniffer
    from repro.ll.master import MasterLinkLayer
    from repro.ll.slave import SlaveLinkLayer
    from repro.sim.transceiver import Transceiver

#: Environment variable consulted by :func:`resolve_engine`.  The CLI's
#: ``--engine`` flag sets it so worker processes inherit the choice.
ENGINE_ENV_VAR = "REPRO_ENGINE"

#: Engine names accepted by :func:`resolve_engine`.
ENGINE_FAST = "fast"
ENGINE_REFERENCE = "reference"
_VALID_ENGINES = (ENGINE_FAST, ENGINE_REFERENCE)

#: The empty data PDU's LLID as an int (header byte arithmetic).
_LLID_EMPTY = int(LLID.DATA_CONTINUATION)
_LLID_CONTROL = int(LLID.CONTROL)

#: (LLID, MD) of an empty data PDU with no more data to follow.
_EMPTY_DESC = (_LLID_EMPTY, 0)

#: How far below a frame's start the Slave's scheduled-response clamp may
#: reach (mirrors the ``max(jitter, -4.0)`` clamp in ``slave.py``).
_RESPONSE_JITTER_FLOOR_US = -4.0

#: Link-margin multiple of the shadowing sigma required for engagement
#: (shared with the medium's indexed-pruning margin).  At 8 sigma the
#: probability of a single fade dropping a frame below the sensitivity
#: floor is ~1e-15 per cycle; the engine still hard-checks every sampled
#: power and raises if the impossible happens.
_LINK_MARGIN_SIGMAS = LINK_MARGIN_SIGMAS

#: Frames that ended longer ago than this no longer matter for collision
#: resolution; the medium's recent-window pruning horizon.
_RECENT_HORIZON_US = RECENT_HORIZON_US

#: Cycles the first block of an engagement speculates; later blocks grow
#: eightfold up to :data:`_BLOCK_CYCLES`, and every block is cut to the
#: cycles the horizon and the event budget leave room for.  A block's
#: fixed cost dwarfs its per-cycle cost, so the first block is sized to
#: finish a short engagement in one go.  In the §VII grid (perfbench
#: ``panel3`` and ``campaign``) engagements run 11 to ~4,000 cycles, and
#: half of them end within 128 cycles: 128 cycles measured cheaper than
#: 16, 32 or 64 on those, and only ~12 % of engagements (11-48 cycles
#: long) cost more than a per-cycle loop would.
_FIRST_BLOCK_CYCLES = 128
_BLOCK_CYCLES = 1024

#: The error for each post-draw invariant, in the order a cycle checks
#: them: both frames' received power, the response deadline, and the next
#: cycle's events firing after the response.
_FAULTS = (
    "fast-forward: master frame faded below the slave's sensitivity floor "
    "despite the engagement margin",
    "fast-forward: slave frame faded below the master's sensitivity floor "
    "despite the engagement margin",
    "fast-forward: slave response would miss the master's response deadline",
    "fast-forward: next cycle's events would fire before the current "
    "response completes",
)

_events_fast_forwarded = 0


def events_fast_forwarded() -> int:
    """Total simulator events replaced by fast-forward, process-wide.

    Serial runs (``--jobs 1``) accumulate here directly; parallel workers
    each count their own share.  Benchmarks reset via
    :func:`reset_fast_forward_count` and read this after a serial panel.
    """
    return _events_fast_forwarded


def reset_fast_forward_count() -> None:
    """Zero the process-wide :func:`events_fast_forwarded` counter."""
    global _events_fast_forwarded
    _events_fast_forwarded = 0


def resolve_engine(explicit: Optional[str] = None) -> str:
    """Resolve the simulation engine choice.

    Args:
        explicit: engine name passed programmatically; overrides the
            environment.  ``None`` falls back to ``$REPRO_ENGINE`` and
            then to the default (``"fast"``).

    Returns:
        ``"fast"`` or ``"reference"``.

    Raises:
        ConfigurationError: for any other name.
    """
    engine = explicit if explicit is not None \
        else os.environ.get(ENGINE_ENV_VAR, ENGINE_FAST)
    if engine not in _VALID_ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; "
            f"expected one of {_VALID_ENGINES}"
        )
    return engine


def install_engine(
    sim: Simulator,
    medium: Medium,
    master: "MasterLinkLayer",
    slave: "SlaveLinkLayer",
    engine: Optional[str] = None,
    follower: Optional["ConnectionSniffer"] = None,
) -> Optional["QuietCycleEngine"]:
    """Attach a :class:`QuietCycleEngine` to ``sim`` if the resolved engine
    is ``"fast"``; a no-op (returning ``None``) for ``"reference"``.

    ``follower`` is the world's passive sniffer of the (master, slave)
    link, if it has one: the engine then also fast-forwards the cycles
    the sniffer follows.
    """
    if resolve_engine(engine) != ENGINE_FAST:
        return None
    quiet_engine = QuietCycleEngine(sim, medium, master, slave, follower)
    sim.install_fast_forward(quiet_engine)
    return quiet_engine


class _StreamBuffer:
    """Block-buffered normal draws, bit-identical to per-call draws.

    ``numpy.random.Generator.normal(0, s, n)`` consumes the bit stream
    exactly as ``n`` scalar ``normal(0, s)`` calls do (same values, same
    end state), so the engine can take a whole block of cycles' draws at
    once, hand back the ones a cut-short block did not use, and on
    disengage rewind to the saved state and replay exactly the consumed
    count, so the reference path continues on an identical stream.
    """

    __slots__ = ("_rng", "_sigma", "_values", "_pos", "_consumed",
                 "_saved_state")

    def __init__(self, rng, sigma: float):
        self._rng = rng if (sigma > 0.0 and rng is not None) else None
        self._sigma = sigma
        self._values: np.ndarray = np.empty(0)
        self._pos = 0
        self._consumed = 0
        self._saved_state: Optional[dict] = None

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` draws (zeros, consuming nothing, when sigma is 0)."""
        rng = self._rng
        if rng is None:
            return np.zeros(n)
        if self._saved_state is None:
            self._saved_state = rng.bit_generator.state
        pos, values = self._pos, self._values
        if pos + n > len(values):
            fresh = rng.normal(0.0, self._sigma, n - (len(values) - pos))
            values = self._values = np.concatenate((values[pos:], fresh))
            pos = 0
        self._pos = pos + n
        self._consumed += n
        return values[pos:pos + n]

    def give_back(self, n: int) -> None:
        """Return the last ``n`` taken draws; the next :meth:`take` sees
        them again."""
        if self._rng is not None:
            self._pos -= n
            self._consumed -= n

    def unwind(self) -> None:
        """Leave the stream exactly where per-call draws would have."""
        rng = self._rng
        if rng is None or self._saved_state is None:
            return
        rng.bit_generator.state = self._saved_state
        if self._consumed:
            rng.normal(0.0, self._sigma, self._consumed)
        self._saved_state = None
        self._values = np.empty(0)
        self._pos = 0
        self._consumed = 0


def _take_frame_ids(count: int) -> int:
    """Consume ``count`` ids from the global frame-id counter; the first."""
    ids = _signal._frame_ids
    first = next(ids)
    if count > 1:
        next(islice(ids, count - 2, None))
    return first


class QuietCycleEngine:
    """Closed-form block execution of quiet Master/Slave poll cycles.

    Installed on a :class:`~repro.sim.simulator.Simulator` via
    :meth:`~repro.sim.simulator.Simulator.install_fast_forward`; the run
    loop consults :meth:`advance` once per iteration.  The engine is
    default-closed: every condition it cannot prove is a disengage, and the
    cycle in question consumes no RNG draw or frame id.
    """

    __slots__ = ("sim", "medium", "master", "slave", "follower",
                 "_pdu_cache", "_csa1_tables", "_wo_label", "_master_handler",
                 "_open_handler", "_close_handler")

    def __init__(self, sim: Simulator, medium: Medium,
                 master: "MasterLinkLayer", slave: "SlaveLinkLayer",
                 follower: Optional["ConnectionSniffer"] = None):
        self.sim = sim
        self.medium = medium
        self.master = master
        self.slave = slave
        #: The passive sniffer of this link, if the world has one: a third,
        #: listen-only lane of every cycle it follows.
        self.follower = follower
        # (llid, md, sn, nesn, crc_init) -> (pdu_bytes, crc)
        self._pdu_cache: dict = {}
        # channel map -> CSA#1 unmapped-index table
        self._csa1_tables: dict = {}
        self._wo_label = f"{slave.name}-window-open"
        self._master_handler = master._connection_event
        self._open_handler = None if follower is None \
            else follower._listen_if_following
        self._close_handler = None if follower is None \
            else follower._event_window_closed

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def advance(self, until_us: Optional[float], budget: int) -> int:
        """Fast-forward as many quiet cycles as provable; 0 if none.

        Called by the run loop before every event pop.  Must be cheap when
        the world is not in fast-forwardable shape: the first check is an
        O(1) live-event count -- the trio, or the trio plus the follower's
        pending sniff-open/sniff-close pair.
        """
        queue = self.sim._queue
        live = queue._live
        if live == 3:
            lane = None
        elif live == 5 and self.follower is not None:
            lane = self.follower
        else:
            return 0
        if budget < 6:
            return 0
        queued = self._classify(queue, lane)
        if queued is None or not self._eligible(lane, queued[3]):
            return 0
        return self._run(queued, lane, until_us, budget)

    def _classify(self, queue, lane):
        """Match the live events against the steady-state trio and, with a
        follower ``lane``, its sniff-open/sniff-close pair.

        Returns ``(window-open, window-close, master event, sniff-open,
        sniff-close)``, the last two ``None`` without a lane.
        """
        window_close = self.slave._window_close
        if window_close is None or not window_close.pending:
            return None
        ev_open: Optional[Event] = None
        ev_master: Optional[Event] = None
        ev_sniff_open: Optional[Event] = None
        ev_sniff_close: Optional[Event] = None
        for entry in queue._heap:
            event = entry[2]
            if event._queue is None or event is window_close:
                continue
            handler = event.handler
            if handler == self._master_handler:
                ev_master = event
            elif event.label == self._wo_label:
                ev_open = event
            elif lane is None:
                return None
            elif handler == self._close_handler:
                ev_sniff_close = event
            elif getattr(handler, "func", None) == self._open_handler:
                ev_sniff_open = event
            else:
                return None
        if ev_open is None or ev_master is None:
            return None
        if lane is not None and (ev_sniff_open is None
                                 or ev_sniff_close is None):
            return None
        return ev_open, window_close, ev_master, ev_sniff_open, ev_sniff_close

    # ------------------------------------------------------------------
    # Eligibility (static per engagement; default-closed)
    # ------------------------------------------------------------------

    def _mean_loss(self, sender: "Transceiver",
                   receiver: "Transceiver") -> float:
        """Mean path loss from ``sender`` to ``receiver``, in dB, computed
        as the medium computes it."""
        topology = self.medium.topology
        return self.medium.path_loss.mean_loss_db(
            topology.distance(sender.name, receiver.name),
            topology.walls_between(sender.name, receiver.name))

    def _eligible(self, lane: Optional["ConnectionSniffer"],
                  ev_sniff_open) -> bool:
        master, slave, medium = self.master, self.slave, self.medium
        if master.state is not MasterState.CONNECTED or not master.is_connected:
            return False
        if slave.state is not SlaveState.CONNECTED or not slave.is_connected:
            return False
        mconn, sconn = master.conn, slave.conn
        if not (mconn.established and sconn.established):
            return False
        if mconn.terminated or sconn.terminated:
            return False
        if master._awaiting_response:
            return False
        if master._tx_queue or slave._tx_queue:
            return False
        if slave._terminate_after_response is not None:
            return False
        if master._pending_encryption is not None \
                or slave._pending_encryption is not None:
            return False
        if master.encryption is not None or slave.encryption is not None:
            return False
        for conn in (mconn, sconn):
            if conn.pending_update is not None \
                    or conn.pending_channel_map is not None \
                    or conn.pending_phy is not None:
                return False
            if not self._retransmit_state_ok(conn):
                return False
            if conn.last_valid_rx_local_us is None:
                return False
        if slave._anchor_local is None or slave._events_since_anchor != 1:
            return False
        if master._anchor_local is None:
            return False
        mp, sp = mconn.params, sconn.params
        if (mp.access_address != sp.access_address
                or mp.crc_init != sp.crc_init
                or mp.interval != sp.interval
                or mp.use_csa2 != sp.use_csa2
                or mp.master_sca_ppm != sp.master_sca_ppm):
            return False
        if mconn.event_count != sconn.event_count:
            return False
        mr, sr = master.radio, slave.radio
        if master.phy is not slave.phy:
            return False
        if mr.rx_phy is not master.phy or sr.rx_phy is not slave.phy:
            return False
        if mp.interval_us < 2_000.0 or mp.timeout_us < 5_000.0:
            return False
        # The next window must open strictly after the previous response
        # frame ends; bound the widening so it provably cannot reach back.
        drift_k = (mp.master_sca_ppm + slave.clock.sca_ppm) / PPM
        widening = slave.widening_scale * (
            drift_k * mp.interval_us + WINDOW_WIDENING_CONSTANT_US)
        if widening >= 0.25 * mp.interval_us:
            return False
        if not self._channels_lockstep(mconn, sconn):
            return False
        # Medium must be silent and stay silent: no frame in flight, no
        # receiver locked, no wideband tap observing transmissions.
        if medium._active or medium._locks or medium._taps:
            return False
        now = self.sim.now
        lane_radio = None if lane is None else lane.radio
        for rx in medium._transceivers.values():
            if rx is mr or rx is sr or rx is lane_radio:
                continue
            if rx._rx_channel is not None or rx.is_transmitting(at_us=now):
                return False
        if mr._rx_channel is not None or sr._rx_channel is not None:
            return False
        if mr.on_tx_complete is not None or sr.on_tx_complete is not None:
            return False
        # Both links need enough margin that shadowing can never fade a
        # frame below the sensitivity floor (hard-checked per draw anyway).
        margin = _LINK_MARGIN_SIGMAS * medium.path_loss.shadowing_sigma_db
        floor_s = max(medium.sensitivity_dbm, sr.sensitivity_dbm)
        floor_m = max(medium.sensitivity_dbm, mr.sensitivity_dbm)
        if mr.tx_power_dbm - self._mean_loss(mr, sr) - floor_s <= margin:
            return False
        if sr.tx_power_dbm - self._mean_loss(sr, mr) - floor_m <= margin:
            return False
        return lane is None or self._follower_eligible(lane, ev_sniff_open)

    def _follower_eligible(self, lane: "ConnectionSniffer",
                           ev_sniff_open) -> bool:
        """The follower must be a callback-free passive listener, in step
        with the victims' hop sequence and not provably deaf to them."""
        if not lane.following or lane.paused or lane.on_event is not None:
            return False
        conn, current = lane.connection, lane._current
        if conn is None or not conn.alive or conn.last_anchor_us is None:
            return False
        if current is None or current.anchor_us is not None:
            return False
        if conn._pending_update is not None \
                or conn._pending_channel_map is not None \
                or conn._pending_phy is not None:
            return False
        master, medium = self.master, self.medium
        mp, sconn = master.conn.params, self.slave.conn
        if conn.params.access_address != mp.access_address \
                or conn.params.crc_init != mp.crc_init:
            return False
        if conn.phy is not master.phy:
            return False
        channel = conn.current_channel
        if channel != sconn.current_channel \
                or ev_sniff_open.handler.args != (channel,):
            return False
        a_sel, s_sel = conn.selector, sconn.selector
        if conn._selector_is_csa2 != sconn._selector_is_csa2 \
                or a_sel._channel_map != s_sel._channel_map:
            return False
        if sconn._selector_is_csa2:
            if a_sel._ch_id != s_sel._ch_id \
                    or conn.event_count != sconn.event_count:
                return False
        elif a_sel.hop_increment != s_sel.hop_increment \
                or a_sel._last_unmapped != s_sel._last_unmapped:
            return False
        radio = lane.radio
        if radio.on_frame != lane._on_follow_frame \
                or radio.rx_phy is not conn.phy \
                or radio.is_transmitting(at_us=self.sim.now):
            return False
        # Not provably deaf to either victim: the medium then draws the
        # follower's shadowing for every frame, as the kernel does.
        margin = _LINK_MARGIN_SIGMAS * medium.path_loss.shadowing_sigma_db
        floor = max(medium.sensitivity_dbm, radio.sensitivity_dbm)
        return all(
            sender.tx_power_dbm - self._mean_loss(sender, radio) + margin
            >= floor
            for sender in (master.radio, self.slave.radio))

    @staticmethod
    def _retransmit_state_ok(conn) -> bool:
        """The last sent PDU must be replayable as an empty-PDU cycle."""
        last = conn._last_sent
        if last is None:
            return True
        header = last.header
        return header.length == 0 and int(header.llid) != _LLID_CONTROL

    @staticmethod
    def _channels_lockstep(mconn, sconn) -> bool:
        """Both selectors must produce the shared hop sequence in lockstep.

        The Slave runs one selector step ahead (it advances when scheduling
        the window, the Master when the event fires), so the Master's
        unmapped index plus one hop must land on the Slave's.
        """
        m_sel, s_sel = mconn.selector, sconn.selector
        if sconn.current_channel is None:
            return False
        if mconn.params.use_csa2:
            if not (sconn._selector_is_csa2 and mconn._selector_is_csa2):
                return False
            if m_sel._ch_id != s_sel._ch_id:
                return False
            if m_sel._channel_map != s_sel._channel_map:
                return False
            return s_sel.channel_for_event(sconn.event_count) \
                == sconn.current_channel
        if sconn._selector_is_csa2 or mconn._selector_is_csa2:
            return False
        if m_sel.hop_increment != s_sel.hop_increment:
            return False
        if m_sel._channel_map != s_sel._channel_map:
            return False
        hop = s_sel.hop_increment
        if (m_sel._last_unmapped + hop) % NUM_DATA_CHANNELS \
                != s_sel._last_unmapped:
            return False
        return s_sel._map(s_sel._last_unmapped) == sconn.current_channel

    # ------------------------------------------------------------------
    # The block kernel
    # ------------------------------------------------------------------

    def _pdu_bytes(self, llid: int, md: int, sn: int, nesn: int,
                   crc_init: int):
        """Header bytes + CRC of an empty data PDU, memoised."""
        key = (llid, md, sn, nesn, crc_init)
        hit = self._pdu_cache.get(key)
        if hit is None:
            byte0 = llid | (nesn << 2) | (sn << 3) | (md << 4)
            pdu = bytes((byte0, 0))
            hit = (pdu, compute_crc(pdu, crc_init))
            self._pdu_cache[key] = hit
        return hit

    def _csa1_table(self, selector) -> np.ndarray:
        """CSA#1 unmapped index -> channel, memoised per channel map."""
        table = self._csa1_tables.get(selector._channel_map)
        if table is None:
            table = np.array([selector._map(unmapped)
                              for unmapped in range(NUM_DATA_CHANNELS)])
            self._csa1_tables[selector._channel_map] = table
        return table

    def _run(self, queued, lane: Optional["ConnectionSniffer"],
             until_us: Optional[float], budget: int) -> int:
        sim, medium, master, slave = self.sim, self.medium, self.master, self.slave
        ev_open, ev_close, ev_master, ev_sniff_open, ev_sniff_close = queued
        mconn, sconn = master.conn, slave.conn
        mp = mconn.params
        phy = master.phy
        frame_dur = air_time_us(2, phy)
        aa, crc_init = mp.access_address, mp.crc_init
        interval_us = mp.interval_us
        timeout_us = mp.timeout_us
        rate_m = master.clock.rate
        rate_s = slave.clock.rate
        drift_k = (mp.master_sca_ppm + slave.clock.sca_ppm) / PPM
        widen_scale = slave.widening_scale
        # Latest event of a cycle is the Slave response's end, which the
        # deadline invariant bounds below end_m + T_IFS + grace.
        horizon_pad = frame_dur + T_IFS_US + _RESPONSE_GRACE_US
        period_us = interval_us / rate_m  # block sizing only
        # Events of a cycle, not counting the window-close that fires
        # (and extends the window) before the master frame ends.
        per_cycle = 6 if lane is None else 8

        # The state at the start of the next cycle.
        t_open, t_close, t_master = \
            ev_open.time_us, ev_close.time_us, ev_master.time_us
        m_lv = mconn.last_valid_rx_local_us
        fired = 0

        # The follower's lane: its listening window of the next cycle, and
        # the anchor it predicts for it.
        t_sniff_open = t_sniff_close = a_predicted = 0.0
        if lane is not None:
            aconn, a_current, a_radio = \
                lane.connection, lane._current, lane.radio
            assert aconn is not None and a_current is not None  # eligible
            t_sniff_open = ev_sniff_open.time_us
            t_sniff_close = ev_sniff_close.time_us
            a_predicted = aconn.predicted_anchor_us()

        def bails(t_o, t_m, t_c, end_m, lv, events):
            """The pre-draw bail-outs of one cycle (floats) or of each cycle
            of a block (arrays), given the events fired by its end."""
            stop = (t_o > t_m) | (t_m >= t_c)  # window miss
            # window edge within float tolerance of the frame end
            stop = stop | ((end_m - TIME_EPS_US <= t_c) & (t_c <= end_m))
            stop = stop | (events > budget)
            if until_us is not None:
                stop = stop | (t_m + horizon_pad > until_us)
            # Master supervision would expire: reference path
            return stop | (t_m * rate_m - lv > timeout_us)

        def next_cycle_bails():
            """Whether the cycle at the current state bails out; checked
            before speculating a block, so a stretch too short to run
            costs no draws."""
            end_m0 = t_master + frame_dur
            stop = bails(t_open, t_master, t_close, end_m0, m_lv,
                         fired + per_cycle + (t_close < end_m0))
            if lane is None:
                return stop
            # The follower must be on the channel before the master frame,
            # and its window must close within the horizon.
            return stop or t_sniff_open >= t_master or (
                until_us is not None and t_sniff_close > until_us)

        if next_cycle_bails():
            return 0

        use_csa2 = mp.use_csa2
        m_sel, s_sel = mconn.selector, sconn.selector
        hop = 0 if use_csa2 else s_sel.hop_increment
        unmapped = 0 if use_csa2 else s_sel._last_unmapped
        channel = sconn.current_channel

        mr, sr = master.radio, slave.radio
        sigma = medium.path_loss.shadowing_sigma_db
        draw_shadow = sigma > 0.0

        # Only the counterpart links (and the follower's) matter for a quiet
        # cycle (eligibility proved nobody else is listening).  Shadowing
        # draws come from the medium's per-link substreams indexed by the
        # sender's transmission counter, so skipping every off-link draw is
        # exact — a draw's value depends only on (link, index), never on
        # what other links consumed.  Geometry is frozen while engaged
        # (nothing else runs), so the mean losses are engagement-wide.
        mr_tid, sr_tid = mr.medium_id, sr.medium_id
        mean_m_to_s = self._mean_loss(mr, sr)
        mean_s_to_m = self._mean_loss(sr, mr)
        ms_shadow = medium._link_shadow(mr, sr_tid) if draw_shadow else None
        sm_shadow = medium._link_shadow(sr, mr_tid) if draw_shadow else None
        m_seq = medium._tx_seq.get(mr_tid, 0)
        s_seq = medium._tx_seq.get(sr_tid, 0)
        floor_s = max(medium.sensitivity_dbm, sr.sensitivity_dbm)
        floor_m = max(medium.sensitivity_dbm, mr.sensitivity_dbm)
        m_tx_power = mr.tx_power_dbm
        s_tx_power = sr.tx_power_dbm

        if lane is not None:
            a_tid = a_radio.medium_id
            a_interval = aconn.params.interval_us
            # The sniffer's widening estimate (SniffedConnection.
            # estimated_widening_us), in window_widening_us's float order.
            a_drift_k = (aconn.params.master_sca_ppm
                         + WORST_CASE_SLAVE_SCA_PPM) / PPM
            mean_m_to_a = self._mean_loss(mr, a_radio)
            mean_s_to_a = self._mean_loss(sr, a_radio)
            ma_shadow = medium._link_shadow(mr, a_tid) if draw_shadow else None
            sa_shadow = medium._link_shadow(sr, a_tid) if draw_shadow else None
            floor_a = max(medium.sensitivity_dbm, a_radio.sensitivity_dbm)
            a_event_count = aconn.event_count

        s_jitter = _StreamBuffer(slave.clock._rng, slave.clock.jitter_us)
        m_jitter = _StreamBuffer(master.clock._rng, master.clock.jitter_us)

        # The rest of the state at the start of the next cycle.
        event_count = sconn.event_count
        m_ts, m_ne = mconn.transmit_seq_num, mconn.next_expected_seq_num
        s_ts, s_ne = sconn.transmit_seq_num, sconn.next_expected_seq_num
        m_pal = mconn._peer_acked_last
        s_pal = sconn._peer_acked_last
        m_desc = None if mconn._last_sent is None else (
            int(mconn._last_sent.header.llid), mconn._last_sent.header.md)
        s_desc = None if sconn._last_sent is None else (
            int(sconn._last_sent.header.llid), sconn._last_sent.header.md)
        s_lv = sconn.last_valid_rx_local_us
        m_anchor = master._anchor_local

        trace = sim.trace
        metrics = medium._metrics
        # Frames recent enough to matter for collision resolution.
        retained: list = []
        block_cycles = _FIRST_BLOCK_CYCLES
        # Final-cycle snapshots for write-back.
        last_end_m = last_end_r = last_anchor_s = last_t_m = 0.0
        last_sniff_open = last_sniff_close = 0.0
        last_channel = last_unmapped = 0
        last_m_bits = last_s_bits = (0, 0)

        while True:
            # -- 1. speculate: a block of cycles the budget and horizon
            #    leave room for ------------------------------------------
            n = min(block_cycles, (budget - fired) // per_cycle)
            if until_us is not None:
                n = min(n, int((until_us - t_master) / period_us) + 2)
            block_cycles = min(8 * block_cycles, _BLOCK_CYCLES)

            # -- 2. draw in bulk: slave jitter per cycle is response,
            #    window-open, window-close; master jitter is the next event
            s_draws = s_jitter.take(3 * n).reshape(n, 3)
            m_draws = m_jitter.take(n)

            # -- 3. every cycle's timing, in the reference's float-op order.
            #    Cycle i+1 starts at cycle i's unclamped next master event;
            #    step 4 cuts the block where that assumption fails. -------
            anchors = np.full(n + 1, interval_us, dtype=np.float64)
            anchors[0] = m_anchor
            anchors = np.add.accumulate(anchors)  # sequential, like the loop
            unclamped = anchors[1:] / rate_m + m_draws
            t_m = np.empty(n)
            t_m[0] = t_master
            t_m[1:] = unclamped[:-1]
            end_m = t_m + frame_dur
            t_resp = end_m + T_IFS_US + np.maximum(
                s_draws[:, 0], _RESPONSE_JITTER_FLOOR_US)
            end_r = t_resp + frame_dur
            anchor_s = t_m * rate_s
            predicted_s = anchor_s + interval_us
            widening = widen_scale * (
                drift_k * (predicted_s - anchor_s)
                + WINDOW_WIDENING_CONSTANT_US)
            next_open = np.maximum(
                (predicted_s - widening) / rate_s + s_draws[:, 1], t_resp)
            next_close = np.maximum(
                (predicted_s + widening) / rate_s + s_draws[:, 2], t_resp)
            t_o = np.empty(n)
            t_o[0] = t_open
            t_o[1:] = next_open[:-1]
            t_c = np.empty(n)
            t_c[0] = t_close
            t_c[1:] = next_close[:-1]
            lv = np.empty(n)
            lv[0] = m_lv
            lv[1:] = end_r[:-1] * rate_m

            # -- 4. locate the first pre-draw bail-out and the first
            #    binding next-master clamp -------------------------------
            seven = t_c < end_m
            # Events fired by each cycle's end; only worth an array when
            # the budget could run out inside the block.
            fired_by = fired + (per_cycle + seven).cumsum() \
                if fired + (per_cycle + 1) * n > budget else fired
            stop = bails(t_o, t_m, t_c, end_m, lv, fired_by)
            if lane is not None:
                # The follower's window of each next cycle, armed at this
                # cycle's sniff-close from this cycle's anchor.
                a_next = t_m + a_interval
                open_next, close_next = lane.follow_window(
                    a_next,
                    a_drift_k * (a_next - t_m) + WINDOW_WIDENING_CONSTANT_US)
                a_open = np.empty(n)
                a_open[0] = t_sniff_open
                a_open[1:] = open_next[:-1]
                a_close = np.empty(n)
                a_close[0] = t_sniff_close
                a_close[1:] = close_next[:-1]
                # The follower tunes in after the master frame starts, its
                # window closes before the response ends, or its close
                # would fire among the next cycle's events or after its
                # next open: the reference path runs that cycle.
                stop = stop | (a_open >= t_m) | (a_close <= end_r) \
                    | (a_close >= np.minimum(np.minimum(next_open, next_close),
                                             np.maximum(unclamped, end_r))) \
                    | (open_next <= a_close)
                if until_us is not None:
                    stop = stop | (a_close > until_us)
            bail = int(stop.argmax())
            if not stop[bail]:
                bail = n
            clamped = end_r > unclamped
            restart = int(clamped.argmax())
            valid = restart + 1 if clamped[restart] else n
            k = min(bail, valid)
            if lane is not None and k:
                # The follower's received power; a fade below its floor is
                # a missed frame, and the reference path runs that cycle.
                if ma_shadow is not None and sa_shadow is not None:
                    ma_draws = ma_shadow.take(m_seq, k)
                    sa_draws = sa_shadow.take(s_seq, k)
                    pa_master = m_tx_power - (mean_m_to_a + ma_draws)
                    pa_slave = s_tx_power - (mean_s_to_a + sa_draws)
                else:
                    pa_master = np.full(k, m_tx_power - mean_m_to_a)
                    pa_slave = np.full(k, s_tx_power - mean_s_to_a)
                missed = (pa_master < floor_a) | (pa_slave < floor_a)
                miss = int(missed.argmax())
                if missed[miss]:
                    if ma_shadow is not None and sa_shadow is not None:
                        ma_shadow.give_back(m_seq + miss, ma_draws[miss:])
                        sa_shadow.give_back(s_seq + miss, sa_draws[miss:])
                    k = bail = miss
                    pa_master, pa_slave = pa_master[:k], pa_slave[:k]
            s_jitter.give_back(3 * (n - k))
            m_jitter.give_back(n - k)
            if not k:
                break

            # -- commit cycles 0..k-1 ------------------------------------
            if use_csa2:
                channels = [s_sel.channel_for_event((event_count + i) & 0xFFFF)
                            for i in range(k + 1)]
                unmapped_seq = None
            else:
                unmapped_seq = (unmapped + hop * np.arange(k + 1)) \
                    % NUM_DATA_CHANNELS
                channels = self._csa1_table(s_sel)[unmapped_seq].tolist()
            if ms_shadow is not None and sm_shadow is not None:
                p_slave = m_tx_power - (
                    mean_m_to_s + ms_shadow.take(m_seq, k))
                p_master = s_tx_power - (
                    mean_s_to_m + sm_shadow.take(s_seq, k))
            else:
                p_slave = np.full(k, m_tx_power - mean_m_to_s)
                p_master = np.full(k, s_tx_power - mean_s_to_m)
            end_r_k = end_r[:k]
            faults = (
                p_slave < floor_s,
                p_master < floor_m,
                end_r_k >= end_m[:k] + T_IFS_US + _RESPONSE_GRACE_US,
                (next_open[:k] < end_r_k) | (next_close[:k] < end_r_k))
            if (faults[0] | faults[1] | faults[2] | faults[3]).any():
                table = np.vstack(faults)
                cycle = int(table.any(axis=0).argmax())
                check = int(table[:, cycle].argmax())
                # The reference cycle has sent its master frame before its
                # first check and its response before the others.
                _take_frame_ids(2 * cycle + (1 if check == 0 else 2))
                raise SimulationError(_FAULTS[check])
            first_id = _take_frame_ids(2 * k)

            # Each frame's receivers in lock order (ascending medium id,
            # the order the medium locks and delivers in) with their
            # received powers: the counterpart, then or before the
            # follower.
            m_receivers = [(sr_tid, p_slave)]
            s_receivers = [(mr_tid, p_master)]
            if lane is not None:
                m_receivers = sorted(m_receivers + [(a_tid, pa_master)],
                                     key=lambda receiver: receiver[0])
                s_receivers = sorted(s_receivers + [(a_tid, pa_slave)],
                                     key=lambda receiver: receiver[0])

            # SN/NESN: the first cycle follows the ARQ rules; after it both
            # sides ack every frame, so the bits alternate with period 2
            # and every later PDU is an empty one.
            m_sn0, m_nesn0 = m_ts, m_ne
            m_desc0 = m_desc if (not m_pal and m_desc is not None) \
                else _EMPTY_DESC
            s_sn0, s_nesn0 = m_nesn0, m_sn0 ^ 1
            s_desc0 = s_desc if (m_nesn0 == s_ts and s_desc is not None) \
                else _EMPTY_DESC
            pdus = [
                (self._pdu_bytes(*(m_desc0 if i == 0 else _EMPTY_DESC),
                                 m_sn0 ^ (i & 1), m_nesn0 ^ (i & 1),
                                 crc_init),
                 self._pdu_bytes(*(s_desc0 if i == 0 else _EMPTY_DESC),
                                 s_sn0 ^ (i & 1), s_nesn0 ^ (i & 1),
                                 crc_init))
                for i in range(min(k, 3))]

            if trace.enabled:
                t_o_l, t_m_l, end_m_l, t_resp_l, end_r_l = (
                    t_o[:k].tolist(), t_m[:k].tolist(), end_m[:k].tolist(),
                    t_resp[:k].tolist(), end_r_k.tolist())
                transceivers = medium._transceivers
                s_name, m_name = slave.name, master.name
                # (name, powers, is the counterpart) per receiver.
                m_rx = [(transceivers[tid].name, powers.tolist(),
                         tid == sr_tid) for tid, powers in m_receivers]
                s_rx = [(transceivers[tid].name, powers.tolist(),
                         tid == mr_tid) for tid, powers in s_receivers]
                for i in range(k):
                    ch = channels[i]
                    ec = (event_count + i) & 0xFFFF
                    frame_id_m = first_id + 2 * i
                    frame_id_s = frame_id_m + 1
                    m_sn, m_nesn = m_sn0 ^ (i & 1), m_nesn0 ^ (i & 1)
                    s_sn, s_nesn = s_sn0 ^ (i & 1), s_nesn0 ^ (i & 1)
                    t_cycle, t_end_m = t_m_l[i], end_m_l[i]
                    t_response, t_end_r = t_resp_l[i], end_r_l[i]
                    trace.record(t_o_l[i], s_name, "window-open",
                                 channel=ch, event_count=ec)
                    for name, powers, _ in m_rx:
                        trace.record(t_cycle, name, "rx-lock",
                                     frame_id=frame_id_m, channel=ch,
                                     rssi_dbm=powers[i])
                    trace.record(t_cycle, m_name, "tx",
                                 channel=ch, aa=aa, pdu_len=2,
                                 frame_id=frame_id_m)
                    trace.record(t_cycle, m_name, "master-tx",
                                 event_count=ec, sn=m_sn, nesn=m_nesn,
                                 channel=ch)
                    for name, powers, counterpart in m_rx:
                        trace.record(t_end_m, name, "rx",
                                     frame_id=frame_id_m, corrupted=False,
                                     rssi_dbm=powers[i])
                        if counterpart:
                            trace.record(t_end_m, s_name, "anchor",
                                         event_count=ec, anchor_us=t_cycle,
                                         frame_id=frame_id_m)
                    for name, powers, _ in s_rx:
                        trace.record(t_response, name, "rx-lock",
                                     frame_id=frame_id_s, channel=ch,
                                     rssi_dbm=powers[i])
                    trace.record(t_response, s_name, "tx",
                                 channel=ch, aa=aa, pdu_len=2,
                                 frame_id=frame_id_s)
                    trace.record(t_response, s_name, "slave-response",
                                 sn=s_sn, nesn=s_nesn, event_count=ec)
                    for name, powers, counterpart in s_rx:
                        trace.record(t_end_r, name, "rx",
                                     frame_id=frame_id_s, corrupted=False,
                                     rssi_dbm=powers[i])
                        if counterpart:
                            trace.record(t_end_r, m_name, "slave-heard",
                                         event_count=ec, sn=s_sn,
                                         nesn=s_nesn)
            if metrics.enabled:
                medium._m_tx.inc(2 * k)
                medium._m_rx.inc((len(m_receivers) + len(s_receivers)) * k)
                for ch in channels[:k]:
                    airtime = medium._m_airtime.get(ch)
                    if airtime is None:
                        airtime = medium._m_airtime[ch] = metrics.counter(
                            f"medium.airtime_us.ch{ch:02d}")
                    airtime.inc(frame_dur)
                    airtime.inc(frame_dur)
                if lane is not None:
                    # Every followed event is heard: one anchor each, and
                    # its drift against the anchor the sniffer predicted.
                    lane._m_events.inc(k)
                    lane._m_anchors.inc(k)
                    predicted = [a_predicted] + a_next[:k - 1].tolist()
                    for t_anchor, t_predicted in zip(t_m[:k].tolist(),
                                                     predicted):
                        lane._m_drift.observe(t_anchor - t_predicted)

            # Only frames ending within the recent horizon of the last
            # response survive into the medium's recent window.
            prune_before = float(end_r_k[-1]) - _RECENT_HORIZON_US
            retained = [frame for frame in retained
                        if frame[2] >= prune_before]
            for i in range(int(np.searchsorted(end_r_k, prune_before)), k):
                m_pdu, s_pdu = pdus[i if i < 3 else 2 - (i & 1)]
                start, end = float(t_m[i]), float(end_m[i])
                if end >= prune_before:
                    retained.append((first_id + 2 * i, start, end,
                                     channels[i], *m_pdu,
                                     [(tid, float(powers[i]))
                                      for tid, powers in m_receivers],
                                     mr, m_seq + i))
                retained.append((first_id + 2 * i + 1, float(t_resp[i]),
                                 float(end_r_k[i]), channels[i], *s_pdu,
                                 [(tid, float(powers[i]))
                                  for tid, powers in s_receivers],
                                 sr, s_seq + i))

            # -- roll the state to the first cycle after the block -------
            last = k - 1
            last_par = last & 1
            fired += per_cycle * k + int(np.count_nonzero(seven[:k]))
            m_seq += k
            s_seq += k
            last_m_bits = (m_sn0 ^ last_par, m_nesn0 ^ last_par)
            last_s_bits = (s_sn0 ^ last_par, s_nesn0 ^ last_par)
            m_ts, m_ne, m_pal = m_sn0 ^ (k & 1), m_nesn0 ^ (k & 1), True
            s_ts, s_ne, s_pal = last_s_bits[0], last_s_bits[1], False
            m_desc = m_desc0 if k == 1 else _EMPTY_DESC
            s_desc = s_desc0 if k == 1 else _EMPTY_DESC
            last_end_m, last_end_r = float(end_m[last]), float(end_r[last])
            last_anchor_s = float(anchor_s[last])
            last_t_m = float(t_m[last])
            s_lv = last_end_m * rate_s
            m_lv = last_end_r * rate_m
            m_anchor = float(anchors[k])
            last_channel, channel = channels[last], channels[k]
            if unmapped_seq is not None:
                last_unmapped = int(unmapped_seq[last])
                unmapped = int(unmapped_seq[k])
            event_count = (event_count + k) & 0xFFFF
            t_open = float(next_open[last])
            t_close = float(next_close[last])
            t_master = max(float(unclamped[last]), last_end_r)
            if lane is not None:
                last_sniff_open = float(a_open[last])
                last_sniff_close = float(a_close[last])
                t_sniff_open = float(open_next[last])
                t_sniff_close = float(close_next[last])
                a_predicted = float(a_next[last])
                a_event_count = (a_event_count + k) & 0xFFFF
            if bail < valid or next_cycle_bails():
                break

        # ------------------------------------------------------------------
        # Materialise: write the end-of-stretch state back so the reference
        # engine resumes as if it had executed every cycle itself.  The
        # per-link shadowing substreams need no unwind: their draws are
        # indexed by transmission counter, so the reference path picks up
        # at the written-back counters with identical values.
        # ------------------------------------------------------------------
        s_jitter.unwind()
        m_jitter.unwind()
        if not fired:
            return 0

        sim._now = last_end_r if lane is None else last_sniff_close
        for event in queued:
            if event is not None:
                event.cancel()
        # Recreate the trio in the reference's creation order (window-open,
        # window-close, master event, then the follower's pair) so time
        # ties break identically.
        sim.schedule_at(t_open,
                        lambda ch=channel: slave._window_open(ch),
                        self._wo_label)
        new_close = sim.schedule_at(t_close, slave._window_timeout,
                                    f"{slave.name}-window-close")
        sim.schedule_at(t_master, self._master_handler,
                        f"{master.name}-event")
        slave._window_close = new_close
        slave._pending_events.append(new_close)

        mconn.event_count = event_count
        sconn.event_count = event_count
        mconn.transmit_seq_num, mconn.next_expected_seq_num = m_ts, m_ne
        sconn.transmit_seq_num, sconn.next_expected_seq_num = s_ts, s_ne
        mconn._peer_acked_last = m_pal
        sconn._peer_acked_last = s_pal
        mconn._last_sent = DataPdu.make(
            LLID(m_desc[0]), b"", sn=last_m_bits[0], nesn=last_m_bits[1],
            md=m_desc[1])
        sconn._last_sent = DataPdu.make(
            LLID(s_desc[0]), b"", sn=last_s_bits[0], nesn=last_s_bits[1],
            md=s_desc[1])
        mconn.last_valid_rx_local_us = m_lv
        sconn.last_valid_rx_local_us = s_lv
        mconn.current_channel = last_channel
        sconn.current_channel = channel
        if not use_csa2:
            m_sel._last_unmapped = last_unmapped
            s_sel._last_unmapped = unmapped
        master._anchor_local = m_anchor
        master._awaiting_response = False
        master._response_deadline = None
        slave._anchor_local = last_anchor_s
        slave._events_since_anchor = 1

        mr._tx_until_us = last_end_m
        sr._tx_until_us = last_end_r
        mr._rx_channel = mr._rx_since_us = None
        sr._rx_channel = sr._rx_since_us = None

        if lane is not None:
            # The sniffer has heard every frame and re-armed its window at
            # the last sniff-close: a fresh event, the last anchor, the
            # last bits of each side, its radio still on the last channel.
            aconn.event_count = a_event_count
            aconn.events_since_anchor = 1
            aconn.last_anchor_us = last_t_m
            aconn.current_channel = channel
            if not use_csa2:
                aconn.selector._last_unmapped = unmapped
            for bits, (sn, nesn) in ((aconn.master_bits, last_m_bits),
                                     (aconn.slave_bits, last_s_bits)):
                bits.sn, bits.nesn, bits.seen = sn, nesn, True
            lane._current = replace(a_current, event_count=a_event_count,
                                    channel=channel)
            lane._silent_events = 0
            if a_radio._rx_channel != last_channel:
                medium.note_listen(a_radio, a_radio._rx_channel, last_channel)
            a_radio._rx_channel = last_channel
            a_radio._rx_since_us = last_sniff_open
            lane._arm(channel, t_sniff_open, t_sniff_close)

        medium._tx_seq[mr_tid] = m_seq
        medium._tx_seq[sr_tid] = s_seq
        for frame_id, start, _end, frame_ch, pdu_bytes, crc, powers, sender, \
                seq in retained:
            frame = RadioFrame(
                access_address=aa, pdu=pdu_bytes, crc=crc, channel=frame_ch,
                start_us=start, tx_power_dbm=sender.tx_power_dbm, phy=phy,
                sender_id=sender.medium_id, frame_id=frame_id)
            transmission = _ActiveTransmission(frame, sender, seq)
            transmission.rx_power_dbm.update(powers)
            medium._append_recent(transmission)

        global _events_fast_forwarded
        _events_fast_forwarded += fired
        return fired
